/**
 * @file
 * End-to-end tests of the FinGraV profiler pipeline on the simulated
 * MI300X, plus unit tests of the methodology pieces (guidance table, time
 * sync, binner, differentiator).
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "fingrav/binning.hpp"
#include "fingrav/differentiation.hpp"
#include "fingrav/energy.hpp"
#include "fingrav/guidance.hpp"
#include "fingrav/profiler.hpp"
#include "fingrav/time_sync.hpp"
#include "kernels/workloads.hpp"
#include "runtime/host_runtime.hpp"
#include "sim/machine_config.hpp"
#include "sim/simulation.hpp"
#include "support/logging.hpp"

namespace fc = fingrav::core;
namespace fk = fingrav::kernels;
namespace fs = fingrav::support;
namespace rt = fingrav::runtime;
namespace sim = fingrav::sim;
using namespace fingrav::support::literals;

namespace {

/** A fresh node + runtime + profiler bundle for one campaign. */
struct Bench {
    sim::MachineConfig cfg = sim::mi300xConfig();
    std::unique_ptr<sim::Simulation> sim;
    std::unique_ptr<rt::HostRuntime> host;

    explicit Bench(std::uint64_t seed, std::size_t devices = 1)
    {
        sim = std::make_unique<sim::Simulation>(cfg, seed, devices);
        host = std::make_unique<rt::HostRuntime>(*sim, sim->forkRng(7));
    }

    fc::Profiler
    profiler(fc::ProfilerOptions opts = {})
    {
        return fc::Profiler(*host, opts, sim->forkRng(8));
    }
};

}  // namespace

// ---------------------------------------------------------------------------
// Guidance table (paper Table I)
// ---------------------------------------------------------------------------

TEST(Guidance, PaperRows)
{
    const auto table = fc::GuidanceTable::paperDefault();
    const auto& r30 = table.lookup(30_us);
    EXPECT_EQ(r30.runs, 400u);
    EXPECT_DOUBLE_EQ(r30.binning_margin, 0.05);
    EXPECT_EQ(r30.recommendedLois(30_us), 6u);

    const auto& r100 = table.lookup(100_us);
    EXPECT_EQ(r100.runs, 200u);
    EXPECT_DOUBLE_EQ(r100.binning_margin, 0.05);
    EXPECT_EQ(r100.recommendedLois(100_us), 10u);

    const auto& r500 = table.lookup(500_us);
    EXPECT_EQ(r500.runs, 200u);
    EXPECT_DOUBLE_EQ(r500.binning_margin, 0.02);

    const auto& r2ms = table.lookup(2_ms);
    EXPECT_EQ(r2ms.runs, 200u);
    EXPECT_DOUBLE_EQ(r2ms.binning_margin, 0.02);

    // Sub-25 us extension row.
    const auto& r10 = table.lookup(10_us);
    EXPECT_EQ(r10.runs, 400u);
    EXPECT_DOUBLE_EQ(r10.binning_margin, 0.05);
}

TEST(Guidance, BoundaryAndValidation)
{
    const auto table = fc::GuidanceTable::paperDefault();
    // 50 us is the start of the 50-200 us row (ranges are half-open).
    EXPECT_EQ(table.lookup(50_us).runs, 200u);
    EXPECT_EQ(table.lookup(49.9_us).runs, 400u);

    EXPECT_THROW(fc::GuidanceTable({}), fs::FatalError);

    // Clamping at both ends: times below the first row's range take the
    // first row, times at/above the last row's end take the last row.
    const fc::GuidanceTable custom({{10_us, 20_us, 100, 1_us, 0.05},
                                    {20_us, 40_us, 50, 2_us, 0.02}});
    EXPECT_EQ(custom.lookup(0_us).runs, 100u);
    EXPECT_EQ(custom.lookup(9.9_us).runs, 100u);
    EXPECT_EQ(custom.lookup(40_us).runs, 50u);
    EXPECT_EQ(custom.lookup(fs::Duration::seconds(3.0)).runs, 50u);
    // The paper table's own ends clamp the same way.
    EXPECT_EQ(table.lookup(0_us).runs, table.rows().front().runs);
    EXPECT_EQ(table.lookup(fs::Duration::seconds(7200.0)).runs,
              table.rows().back().runs);
    EXPECT_THROW(
        fc::GuidanceTable({{10_us, 5_us, 100, 1_us, 0.05}}),
        fs::FatalError);
    // Non-contiguous rows rejected.
    EXPECT_THROW(fc::GuidanceTable({{0_us, 10_us, 100, 1_us, 0.05},
                                    {20_us, 30_us, 100, 1_us, 0.05}}),
                 fs::FatalError);
}

// ---------------------------------------------------------------------------
// Time sync (tenet S2)
// ---------------------------------------------------------------------------

TEST(TimeSyncS2, TranslationAccuracyWithinMicroseconds)
{
    Bench b(101);
    auto sync = fc::TimeSync::calibrate(*b.host);
    // Oracle: pick master times and compare the sync translation of the
    // true GPU counter against the true CPU clock.
    const auto& gpu = b.sim->device(0).gpuClock();
    for (double offset_s : {0.01, 0.1, 0.5}) {
        const auto master =
            b.host->masterNow() + fs::Duration::seconds(offset_s);
        const auto counter = gpu.readCounter(master);
        const auto cpu_est = sync.gpuCounterToCpuNs(counter);
        const auto cpu_true = b.host->cpuClockAt(master);
        // Error: read jitter (~0.2us) + drift (4ppm * elapsed).
        const double bound_ns = 800.0 + 5e-6 * offset_s * 1e9 + 200.0;
        EXPECT_NEAR(static_cast<double>(cpu_est - cpu_true), 0.0, bound_ns)
            << "offset " << offset_s;
    }
}

TEST(TimeSyncS2, IgnoringDelayBiasesTranslation)
{
    Bench b(102);
    auto good = fc::TimeSync::calibrate(*b.host);
    auto lang = fc::TimeSync::calibrateIgnoringDelay(*b.host);
    const auto& gpu = b.sim->device(0).gpuClock();
    const auto master = b.host->masterNow() + fs::Duration::millis(10.0);
    const auto counter = gpu.readCounter(master);
    const auto err_good =
        good.gpuCounterToCpuNs(counter) - b.host->cpuClockAt(master);
    const auto err_lang =
        lang.gpuCounterToCpuNs(counter) - b.host->cpuClockAt(master);
    // The un-accounted half-round-trip (~0.75us) appears as bias.
    EXPECT_LT(std::abs(err_good), std::abs(err_lang));
    EXPECT_GT(std::abs(err_lang), 400);
}

TEST(TimeSyncS2, DriftAnchorRecoversConfiguredDrift)
{
    Bench b(103);
    auto sync = fc::TimeSync::calibrate(*b.host);
    b.host->sleep(fs::Duration::seconds(2.0));
    sync.addDriftAnchor(*b.host);
    EXPECT_TRUE(sync.driftCompensated());
    EXPECT_NEAR(sync.estimatedDriftPpm(), b.cfg.gpu_clock_drift_ppm, 1.0);
}

// ---------------------------------------------------------------------------
// Differentiator (tenet S4)
// ---------------------------------------------------------------------------

TEST(Differentiator, SspFormulaMatchesPaperStep4)
{
    fc::ProfileDifferentiator d(4, 0.03);
    // Sub-window kernel: ceil(1000/32) = 32 executions.
    EXPECT_EQ(d.sspExecutionFormula(32_us, 1_ms), 32u);
    // Super-window kernel: the SSE count dominates.
    EXPECT_EQ(d.sspExecutionFormula(1.2_ms, 1_ms), 4u);
    EXPECT_EQ(d.sspExecutionFormula(250_us, 1_ms), 4u);
    EXPECT_THROW(d.sspExecutionFormula(0_us, 1_ms), fs::FatalError);
}

TEST(Differentiator, StabilizationScan)
{
    fc::ProfileDifferentiator d(4, 0.03);
    // Ramp then flat: stabilization at the flat region.
    std::vector<double> series{100, 200, 400, 600, 700, 700, 701, 699, 700};
    EXPECT_EQ(d.detectStabilization(series), 4u);
    // Monotone ramp never stabilizes until its end.
    std::vector<double> ramp{100, 200, 300, 400, 500};
    EXPECT_GE(d.detectStabilization(ramp), 4u);
    // Flat from the start.
    std::vector<double> flat{500, 501, 499, 500};
    EXPECT_EQ(d.detectStabilization(flat), 0u);
    EXPECT_EQ(d.detectStabilization({}), 0u);
}

namespace {

/** The step-4 scan without a screen: the full check at every candidate. */
std::size_t
fullScanStabilization(const std::vector<double>& series, double eps)
{
    for (std::size_t i = 0; i < series.size(); ++i) {
        double mean = 0.0;
        for (std::size_t j = i; j < series.size(); ++j)
            mean += series[j];
        mean /= static_cast<double>(series.size() - i);
        if (mean <= 0.0)
            continue;
        bool stable = true;
        for (std::size_t j = i; j < series.size(); ++j) {
            if (std::fabs(series[j] - mean) > eps * mean) {
                stable = false;
                break;
            }
        }
        if (stable)
            return i;
    }
    return series.size();
}

}  // namespace

TEST(Differentiator, ScreenedScanMatchesFullScanOnSeededSeries)
{
    // The scan screens candidates by the tail's extrema before the full
    // check; it must answer exactly as the unscreened scan, including on
    // tails whose extremes sit on the ±eps band edge, on zero, negative
    // and NaN values, constants and ramps.
    const double kEps[] = {0.03, 0.01, 0.2, 0.5, 0.9};
    fs::Rng rng(4242);
    std::size_t stable_found = 0;
    for (int trial = 0; trial < 600; ++trial) {
        const double eps = kEps[rng.uniformInt(0, 4)];
        const auto n = static_cast<std::size_t>(
            rng.bernoulli(0.1) ? rng.uniformInt(1000, 3000)
                               : rng.uniformInt(0, 120));
        const auto settle = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(n)));
        const double level = rng.uniform(1.0, 1000.0);
        std::vector<double> series(n);
        const auto shape = rng.uniformInt(0, 4);
        for (std::size_t k = 0; k < n; ++k) {
            const double ramp = level * (0.2 + 0.8 * static_cast<double>(k) /
                                                   static_cast<double>(n));
            // Noise up to 1.2 eps; the band edge nudged by a few ulps.
            const double noise =
                rng.uniform(-eps, eps) * rng.uniform(0.0, 1.2);
            const double edge = (1.0 + (k % 2 ? eps : -eps)) *
                                (1.0 + rng.uniformInt(-2, 2) * 1e-16);
            switch (shape) {
              case 0:  // transient, then noise around the level
                series[k] = k < settle ? ramp : level * (1.0 + noise);
                break;
              case 1:  // transient, then a tail on the band edge
                series[k] = k < settle ? ramp : level * edge;
                break;
              case 2:  // constant
                series[k] = level;
                break;
              case 3:  // ramp, never flat
                series[k] = ramp;
                break;
              default:  // uniform noise over both signs
                series[k] = rng.uniform(-level, level);
                break;
            }
        }
        // Sprinkle zeros, negatives and (rarely) a NaN.
        if (n > 0 && rng.bernoulli(0.2))
            series[rng.uniformInt(0, n - 1)] = 0.0;
        if (n > 0 && rng.bernoulli(0.2))
            series[rng.uniformInt(0, n - 1)] = -level;
        if (n > 0 && rng.bernoulli(0.05)) {
            series[rng.uniformInt(0, n - 1)] =
                std::numeric_limits<double>::quiet_NaN();
        }
        const fc::ProfileDifferentiator d(4, eps);
        const std::size_t want = fullScanStabilization(series, eps);
        EXPECT_EQ(d.detectStabilization(series), want)
            << "trial " << trial << " shape " << shape << " n " << n
            << " eps " << eps;
        stable_found += want < n;
    }
    // The seeds reach both answers: stable tails and none.
    EXPECT_GT(stable_found, 100u);
    EXPECT_LT(stable_found, 600u);
}

TEST(Differentiator, Validation)
{
    EXPECT_THROW(fc::ProfileDifferentiator(0, 0.03), fs::FatalError);
    EXPECT_THROW(fc::ProfileDifferentiator(4, 0.0), fs::FatalError);
    EXPECT_THROW(fc::ProfileDifferentiator(4, 1.5), fs::FatalError);
}

// ---------------------------------------------------------------------------
// Binner (tenet S3)
// ---------------------------------------------------------------------------

TEST(Binner, SelectsModalBinAndDiscardsOutliers)
{
    fc::ExecutionBinner binner(0.05);
    std::vector<fs::Duration> times;
    for (int i = 0; i < 40; ++i)
        times.push_back(fs::Duration::micros(100.0 + 0.05 * i));
    times.push_back(120_us);  // allocation outliers
    times.push_back(135_us);
    const auto result = binner.select(times);
    EXPECT_EQ(result.total_runs, 42u);
    EXPECT_EQ(result.golden_runs.size(), 40u);
    EXPECT_EQ(result.outlierCount(), 2u);
    EXPECT_NEAR(result.bin_center.toMicros(), 101.0, 2.0);
}

TEST(Binner, SelectAroundTargetsOutlierBin)
{
    fc::ExecutionBinner binner(0.05);
    std::vector<fs::Duration> times{100_us, 101_us, 99_us, 130_us, 131_us};
    const auto result = binner.selectAround(times, 130_us);
    EXPECT_EQ(result.golden_runs.size(), 2u);
    for (auto i : result.golden_runs)
        EXPECT_GT(times[i].toMicros(), 125.0);
    EXPECT_THROW(binner.selectAround(times, 0_us), fs::FatalError);
}

TEST(Binner, MarginValidation)
{
    EXPECT_THROW(fc::ExecutionBinner(-0.01), fs::FatalError);
    EXPECT_THROW(fc::ExecutionBinner(0.6), fs::FatalError);
    EXPECT_THROW(
        fc::ExecutionBinner(std::numeric_limits<double>::quiet_NaN()),
        fs::FatalError);
}

// ---------------------------------------------------------------------------
// End-to-end campaigns
// ---------------------------------------------------------------------------

TEST(ProfilerPipeline, TwoKGemmEndToEnd)
{
    Bench b(201);
    fc::ProfilerOptions opts;
    opts.runs_override = 80;  // keep the test fast; benches use Table I
    auto profiler = b.profiler(opts);
    const auto set = profiler.profile(fk::makeSquareGemm(2048, b.cfg));

    EXPECT_EQ(set.label, "CB-2K-GEMM");
    // Step 1: measured time in the 25-50us guidance row (overheads incl.).
    EXPECT_GT(set.measured_exec_time.toMicros(), 25.0);
    EXPECT_LT(set.measured_exec_time.toMicros(), 50.0);
    EXPECT_EQ(set.guidance.runs, 400u);
    // SSE at execution #4; SSP tens of executions later (window fill).
    EXPECT_EQ(set.sse_exec_index, 3u);
    EXPECT_GT(set.ssp_exec_index, 15u);
    // Golden runs dominate (outlier probability ~6 %).
    EXPECT_GT(set.binning.goldenFraction(), 0.75);
    EXPECT_LT(set.binning.goldenFraction(), 1.0);
    // Profiles are populated and the SSE underestimates power massively.
    EXPECT_GE(set.ssp.size(),
              set.guidance.recommendedLois(set.measured_exec_time));
    EXPECT_FALSE(set.timeline.empty());
    const auto rep = fc::differentiationError(set);
    EXPECT_GT(rep.ssp_mean_w, 450.0);
    EXPECT_GT(rep.error_pct, 55.0);
    EXPECT_LT(rep.error_pct, 85.0);
    std::cout << "CB-2K-GEMM: SSE " << rep.sse_mean_w << " W, SSP "
              << rep.ssp_mean_w << " W, error " << rep.error_pct << " %, "
              << set.ssp.size() << " SSP LOIs, ssp_idx "
              << set.ssp_exec_index << ", golden "
              << set.binning.golden_runs.size() << "/"
              << set.binning.total_runs << "\n";
}

TEST(ProfilerPipeline, EightKGemmEndToEnd)
{
    Bench b(202);
    fc::ProfilerOptions opts;
    opts.runs_override = 40;
    auto profiler = b.profiler(opts);
    const auto set = profiler.profile(fk::makeSquareGemm(8192, b.cfg));

    EXPECT_EQ(set.label, "CB-8K-GEMM");
    EXPECT_GT(set.measured_exec_time.toMillis(), 1.0);
    EXPECT_DOUBLE_EQ(set.guidance.binning_margin, 0.02);
    // Throttling pushes SSP past the step-4 formula (which says 4).
    EXPECT_GT(set.ssp_exec_index, 4u);
    EXPECT_LT(set.ssp_exec_index, 24u);
    const auto rep = fc::differentiationError(set);
    // The paper reports ~20 % SSE/SSP spread for CB-8K-GEMM.
    EXPECT_GT(rep.error_pct, 8.0);
    EXPECT_LT(rep.error_pct, 30.0);
    EXPECT_GT(rep.ssp_mean_w, 650.0);
    std::cout << "CB-8K-GEMM: SSE " << rep.sse_mean_w << " W, SSP "
              << rep.ssp_mean_w << " W, error " << rep.error_pct
              << " %, ssp_idx " << set.ssp_exec_index << ", exec "
              << set.measured_exec_time.toMicros() << " us\n";
}

TEST(ProfilerPipeline, GemvEndToEnd)
{
    Bench b(203);
    fc::ProfilerOptions opts;
    opts.runs_override = 80;
    auto profiler = b.profiler(opts);
    const auto set = profiler.profile(fk::makeGemv(8192, b.cfg));
    EXPECT_EQ(set.label, "MB-8K-GEMV");
    // The paper's GEMVs land in Table I's shortest bracket (25-50 us).
    EXPECT_GT(set.measured_exec_time.toMicros(), 25.0);
    EXPECT_LT(set.measured_exec_time.toMicros(), 50.0);
    EXPECT_EQ(set.guidance.runs, 400u);
    EXPECT_FALSE(set.ssp.empty());
    // Memory-bound kernel: far lower power than the compute GEMMs.
    EXPECT_LT(set.ssp.meanPower(), 420.0);
    EXPECT_GT(set.ssp.meanPower(), 150.0);
}

TEST(ProfilerPipeline, CollectiveEndToEndOnNode)
{
    Bench b(204, 8);
    fc::ProfilerOptions opts;
    opts.runs_override = 30;
    auto profiler = b.profiler(opts);
    const auto set = profiler.profile(
        fk::kernelByLabel("AG-1GB", b.cfg));
    EXPECT_FALSE(set.ssp.empty());
    // Bandwidth-bound collective: IOD is the dominant dynamic rail.
    EXPECT_GT(set.ssp.meanPower(fc::Rail::kIod),
              set.ssp.meanPower(fc::Rail::kXcd));
    // All eight devices executed the collective.
    for (std::size_t d = 0; d < 8; ++d)
        EXPECT_FALSE(b.host->deviceExecutionLog(d).empty()) << d;
}

TEST(ProfilerPipeline, ToiCoverageSpansExecution)
{
    // Random inter-run delays must spread TOIs across the kernel, not
    // cluster them at one phase (step 5's purpose).
    Bench b(205);
    fc::ProfilerOptions opts;
    opts.runs_override = 120;
    auto profiler = b.profiler(opts);
    const auto set = profiler.profile(fk::makeSquareGemm(2048, b.cfg));
    ASSERT_GE(set.ssp.size(), 10u);
    double lo = 1.0;
    double hi = 0.0;
    for (const auto& p : set.ssp.points()) {
        lo = std::min(lo, p.toi_frac);
        hi = std::max(hi, p.toi_frac);
        EXPECT_GE(p.toi_frac, 0.0);
        EXPECT_LE(p.toi_frac, 1.0);
    }
    EXPECT_LT(lo, 0.25);
    EXPECT_GT(hi, 0.75);
}

TEST(ProfilerPipeline, InterleavedContaminationDirections)
{
    // Fig. 9: compute-heavy preludes pull a short kernel's measured power
    // up; memory-bound preludes pull it down.
    Bench iso(206);
    fc::ProfilerOptions opts;
    opts.runs_override = 80;
    auto iso_set =
        iso.profiler(opts).profile(fk::makeSquareGemm(2048, iso.cfg));

    Bench up(207);
    std::vector<fc::InterleaveItem> cb_prelude{
        {fk::makeSquareGemm(8192, up.cfg), 1},
        {fk::makeSquareGemm(4096, up.cfg), 1}};
    auto up_set = up.profiler(opts).profileInterleaved(
        fk::makeSquareGemm(2048, up.cfg), cb_prelude, 6);

    Bench down(208);
    std::vector<fc::InterleaveItem> mb_prelude{
        {fk::makeGemv(4096, down.cfg), 40}};
    auto down_set = down.profiler(opts).profileInterleaved(
        fk::makeSquareGemm(2048, down.cfg), mb_prelude, 6);

    ASSERT_FALSE(iso_set.ssp.empty());
    ASSERT_FALSE(up_set.ssp.empty());
    ASSERT_FALSE(down_set.ssp.empty());
    const double up_shift = fc::interleavingShiftPct(up_set, iso_set);
    const double down_shift = fc::interleavingShiftPct(down_set, iso_set);
    std::cout << "CB->2K shift " << up_shift << " %, MB->2K shift "
              << down_shift << " %\n";
    EXPECT_GT(up_shift, 5.0);
    EXPECT_LT(down_shift, -10.0);
}

TEST(ProfilerPipeline, InterleavedDriftModeTakesTheDriftAnchor)
{
    // Both entry points share the campaign tail, so drift mode takes its
    // second anchor after the interleaved base runs too.
    Bench b(210);
    fc::ProfilerOptions opts;
    opts.runs_override = 20;
    opts.sync_mode = fc::SyncMode::kFinGraVDrift;
    const std::vector<fc::InterleaveItem> prelude{
        {fk::makeGemv(4096, b.cfg), 4}};
    const auto set = b.profiler(opts).profileInterleaved(
        fk::makeSquareGemm(2048, b.cfg), prelude);
    ASSERT_FALSE(set.ssp.empty());
    EXPECT_GT(set.drift_ppm, 0.0);
}

TEST(ProfilerPipeline, OptionValidation)
{
    Bench b(209);
    fc::ProfilerOptions opts;
    opts.device = 5;  // single-device sim
    EXPECT_THROW(b.profiler(opts), fs::FatalError);

    fc::ProfilerOptions ok;
    auto profiler = b.profiler(ok);
    EXPECT_THROW(profiler.profile(nullptr), fs::FatalError);
    EXPECT_THROW(profiler.profileInterleaved(
                     fk::makeSquareGemm(2048, b.cfg), {}, 6),
                 fs::FatalError);
}
