/**
 * @file
 * Failure injection: the methodology under hostile conditions — noisy
 * telemetry, extreme clock drift, pathological margins, degenerate
 * profiles, and scripted execution-layer faults (worker deaths, corrupt
 * result frames, failed cache writes).  FinGraV should degrade
 * gracefully (and loudly), never crash or silently fabricate data:
 * every execution-layer degradation must land in a run journal while
 * results stay bit-identical to the clean path.
 */

#include <memory>

#include <gtest/gtest.h>

#include "fingrav/campaign_cache.hpp"
#include "fingrav/campaign_runner.hpp"
#include "fingrav/energy.hpp"
#include "fingrav/profile.hpp"
#include "fingrav/profiler.hpp"
#include "fingrav/worker_fleet.hpp"
#include "kernels/workloads.hpp"
#include "runtime/host_runtime.hpp"
#include "sim/machine_config.hpp"
#include "sim/simulation.hpp"
#include "support/fault_injector.hpp"
#include "support/logging.hpp"
#include "support/run_journal.hpp"
#include "tests/test_fixtures.hpp"

#ifndef FINGRAV_CLI_PATH
#error "FINGRAV_CLI_PATH must point at the fingrav_cli binary"
#endif

namespace fc = fingrav::core;
namespace fk = fingrav::kernels;
namespace fs = fingrav::support;
namespace rt = fingrav::runtime;
namespace sim = fingrav::sim;

namespace {

/** A real `fingrav_cli --serve` fleet under a scripted fault plan. */
std::shared_ptr<fc::FleetBackend>
faultedFleet(std::size_t workers, const char* plan)
{
    fc::FleetOptions opts;
    opts.workers = workers;
    opts.worker_command = fc::defaultServeCommand(FINGRAV_CLI_PATH);
    opts.backoff_base_ms = 1;
    opts.fault_plan = fs::FaultPlan::parse(plan);
    return std::make_shared<fc::FleetBackend>(opts);
}

struct Node {
    sim::MachineConfig cfg;
    std::unique_ptr<sim::Simulation> s;
    std::unique_ptr<rt::HostRuntime> host;

    explicit Node(std::uint64_t seed,
                  const sim::MachineConfig& config = sim::mi300xConfig())
        : cfg(config)
    {
        s = std::make_unique<sim::Simulation>(cfg, seed, 1);
        host = std::make_unique<rt::HostRuntime>(*s, s->forkRng(7));
    }

    fc::ProfileSet
    profile(const fk::KernelModelPtr& k, fc::ProfilerOptions opts)
    {
        return fc::Profiler(*host, opts, s->forkRng(8)).profile(k);
    }
};

fc::ProfilerOptions
fastOpts()
{
    fc::ProfilerOptions o;
    o.runs_override = 50;
    o.collect_extra_runs = false;
    return o;
}

}  // namespace

TEST(FailureInjection, ExtremeLoggerNoiseStillYieldsProfile)
{
    auto cfg = sim::mi300xConfig();
    cfg.logger_noise_w = 25.0;  // 20x the realistic noise floor
    Node node(601, cfg);
    const auto set =
        node.profile(fk::makeSquareGemm(2048, cfg), fastOpts());
    ASSERT_FALSE(set.ssp.empty());
    // The mean survives even if individual LOIs are noisy.
    EXPECT_NEAR(set.ssp.meanPower(), 585.0, 60.0);
}

TEST(FailureInjection, ExtremeDriftBreaksSingleAnchorSync)
{
    // 5000 ppm (0.5 %) drift: a single-anchor sync mis-places samples by
    // ~5 us per second of capture distance.  The per-run anchor distance
    // here spans seconds of campaign time, so LOIs land far outside their
    // executions and the SSP profile starves or scrambles.
    auto cfg = sim::mi300xConfig();
    cfg.gpu_clock_drift_ppm = 5000.0;
    Node broken(602, cfg);
    const auto degraded =
        broken.profile(fk::makeSquareGemm(2048, cfg), fastOpts());

    Node rescued(602, cfg);
    auto opts = fastOpts();
    opts.sync_mode = fc::SyncMode::kFinGraVDrift;
    const auto fixed =
        rescued.profile(fk::makeSquareGemm(2048, cfg), opts);

    // Single-anchor sync: millisecond-scale displacement moves every
    // sample out of the narrow SSE execution window — the SSE profile
    // starves and differentiation silently collapses.  (SSP LOIs survive
    // by accident: displaced samples still land inside *some* steady
    // execution of the homogeneous run.)
    EXPECT_LE(degraded.sse.size(), 1u);
    // Drift compensation recovers the estimate and the differentiation.
    ASSERT_FALSE(fixed.ssp.empty());
    EXPECT_NEAR(fixed.drift_ppm, 5000.0, 100.0);
    const auto fixed_rep = fc::differentiationError(fixed);
    EXPECT_GT(fixed_rep.error_pct, 55.0);
    EXPECT_LT(fixed_rep.error_pct, 85.0);
    EXPECT_GT(fixed.sse.size(), 0u);
}

TEST(FailureInjection, ZeroMarginKeepsAtLeastOneRun)
{
    Node node(603);
    auto opts = fastOpts();
    opts.margin_override = 0.0;  // degenerate: exact-tie binning
    const auto set = node.profile(fk::makeSquareGemm(2048, node.cfg), opts);
    // Execution times are effectively continuous, so the modal "bin" is a
    // single run — the pipeline must survive and say so.
    EXPECT_GE(set.binning.golden_runs.size(), 1u);
    EXPECT_LT(set.binning.golden_runs.size(), 5u);
}

TEST(FailureInjection, EmptyProfilesReportZeroNotCrash)
{
    const fc::PowerProfile empty("X", fc::ProfileKind::kSse);
    EXPECT_DOUBLE_EQ(empty.meanPower(), 0.0);
    EXPECT_DOUBLE_EQ(empty.minPower(), 0.0);
    EXPECT_DOUBLE_EQ(empty.maxPower(), 0.0);
    EXPECT_FALSE(empty.trend(fc::Rail::kTotal).poly.valid());

    fc::ProfileSet set;
    set.ssp_exec_time = fs::Duration::micros(100.0);
    const auto rep = fc::differentiationError(set);
    EXPECT_DOUBLE_EQ(rep.error_pct, 0.0);
    EXPECT_DOUBLE_EQ(rep.ssp_energy_j, 0.0);

    fc::ProfileSet isolated;  // empty reference
    EXPECT_THROW(fc::interleavingShiftPct(set, isolated), fs::FatalError);
}

TEST(FailureInjection, OutlierStormStillBins)
{
    // Half the runs are allocation outliers: binning must still find the
    // (slim) majority cluster rather than averaging the two populations.
    auto cfg = sim::mi300xConfig();
    cfg.outlier_run_probability = 0.5;
    cfg.outlier_slowdown_min = 1.25;
    cfg.outlier_slowdown_max = 1.30;
    Node node(604, cfg);
    auto opts = fastOpts();
    opts.runs_override = 120;
    const auto set = node.profile(fk::makeSquareGemm(4096, cfg), opts);
    const double golden = set.binning.goldenFraction();
    EXPECT_GT(golden, 0.30);
    EXPECT_LT(golden, 0.75);
    // The golden bin is the fast (common) population.
    EXPECT_LT(set.binning.bin_center.toMicros(),
              set.measured_exec_time.toMicros() * 1.15);
}

TEST(FailureInjection, TinyRunBudgetDegradesGracefully)
{
    Node node(605);
    auto opts = fastOpts();
    opts.runs_override = 5;
    const auto set = node.profile(fk::makeSquareGemm(2048, node.cfg), opts);
    // Five runs of a 33 us kernel yield few LOIs — but never invalid ones.
    for (const auto& p : set.ssp.points()) {
        EXPECT_GE(p.toi_frac, 0.0);
        EXPECT_LE(p.toi_frac, 1.0);
        EXPECT_GT(p.sample.total_w, 0.0);
    }
}

TEST(FailureInjection, WorkerDeathMidDispatchStaysBitIdenticalAndJournaled)
{
    // Seat 1's worker is scripted to die before delivering anything.
    // The supervisor redispatches on a fresh worker; the output must be
    // bit-identical to the serial loop and the death must be journaled —
    // a silent degradation is itself a failure.
    auto specs = fingrav::testing::fig10Specs(6);
    specs.resize(4);
    const auto serial = fc::CampaignRunner(1).run(specs);

    const auto backend = faultedFleet(2, "kill:shard=1,frame=0");
    const auto fleet = fc::CampaignRunner(backend).run(specs);

    fingrav::testing::expectAllIdentical(serial, fleet, specs,
                                         "worker death mid-dispatch");
    const auto& journal = backend->lastStats().journal;
    EXPECT_FALSE(journal.empty()) << "worker death must be journaled";
    EXPECT_GE(journal.count(fs::DegradeKind::kWorkerDeath), 1u);
}

TEST(FailureInjection, CorruptResultFrameStaysBitIdenticalAndJournaled)
{
    // A bit-flipped result frame must be rejected by the frame checksum
    // — never decoded into a result — and the forfeited spec must come
    // back bit-identical through a retry, with the corruption journaled.
    auto specs = fingrav::testing::fig10Specs(6);
    specs.resize(2);
    const auto serial = fc::CampaignRunner(1).run(specs);

    const auto backend = faultedFleet(1, "corrupt:shard=0,frame=0");
    const auto fleet = fc::CampaignRunner(backend).run(specs);

    fingrav::testing::expectAllIdentical(serial, fleet, specs,
                                         "corrupt result frame");
    const auto& journal = backend->lastStats().journal;
    EXPECT_FALSE(journal.empty()) << "frame corruption must be journaled";
    EXPECT_GE(journal.count(fs::DegradeKind::kFrameCorruption), 1u);
}

TEST(FailureInjection, ShortCacheStoreWriteIsJournaledAndNeverServed)
{
    // An ENOSPC-style short write at the cache's disk tier: nothing
    // partial may ever be published, the failure must be journaled, and
    // later lookups must re-execute to bit-identical results.
    fingrav::testing::TempDir dir("fingrav_store_fault");
    const auto cfg = sim::mi300xConfig();
    auto specs = fingrav::testing::fig10Specs(6);
    specs.resize(1);
    const auto clean = fc::CampaignRunner(1).run(specs);

    fc::CacheOptions copts;
    copts.dir = dir.path();
    copts.fault_plan = fs::FaultPlan::parse("store-short");
    fc::CampaignCache cache(copts);
    cache.store(specs[0], cfg, clean[0]);

    EXPECT_EQ(cache.stats().store_failures, 1u);
    EXPECT_EQ(cache.journal().count(fs::DegradeKind::kCacheStoreFailure),
              1u);
    // Nothing partial reached the store: no blob, no leftover temp.
    const auto scan = fc::CampaignCache::scanDir(dir.path());
    EXPECT_EQ(scan.entries, 0u);
    EXPECT_EQ(scan.temp_files, 0u);

    // A fresh cache over the same directory must miss (nothing was
    // published) and a re-execution must be bit-identical.
    fc::CampaignCache fresh(fc::CacheOptions{dir.path()});
    EXPECT_FALSE(fresh.lookup(specs[0], cfg).has_value());
    const auto again = fc::CampaignRunner(1).run(specs);
    EXPECT_TRUE(fc::identicalProfileSets(clean[0], again[0]));

    // The memory tier of the faulted cache still serves the result —
    // degradation to memory-only, never to a wrong answer.
    const auto served = cache.lookup(specs[0], cfg);
    ASSERT_TRUE(served.has_value());
    EXPECT_TRUE(fc::identicalProfileSets(clean[0], *served));
}

TEST(FailureInjection, StepEightTopsUpLoiShortfall)
{
    // With a tiny base budget and top-up enabled, the profiler must keep
    // adding runs until the Table I LOI target is met (or the cap hits).
    Node node(606);
    fc::ProfilerOptions opts;
    opts.runs_override = 2;  // far below any useful yield
    opts.collect_extra_runs = true;
    opts.max_extra_run_factor = 20.0;
    const auto set = node.profile(fk::makeSquareGemm(2048, node.cfg), opts);
    const auto target =
        set.guidance.recommendedLois(set.measured_exec_time);
    EXPECT_GE(set.ssp.size(), target);
    EXPECT_GT(set.runs_executed, 2u);
}
