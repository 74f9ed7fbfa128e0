/**
 * @file
 * Regression tests for the incremental ProfileStitcher: stitching runs
 * one-by-one through restitch() must produce the same ProfileSet, bit for
 * bit, as the seed-faithful quadratic reference applied to the final run
 * vector — including across modal-bin shifts that force a rebuild — and
 * runs that recorded zero main executions must be skipped instead of
 * underflowing the representative-execution index (the seed crashed
 * computing `main_exec_indices.size() - 1`).  Long runs whose SSP index
 * sits deep in the run (the stitcher visits only the harvested
 * executions and skips those that cannot hold a sample) and
 * multi-window pools are checked against the same reference, with the
 * inputs where a skip could part from a walk over every execution.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fingrav/profiler.hpp"
#include "fingrav/run_executor.hpp"
#include "fingrav/stitcher.hpp"
#include "fingrav/time_sync.hpp"
#include "kernels/workloads.hpp"
#include "runtime/host_runtime.hpp"
#include "sim/machine_config.hpp"
#include "sim/simulation.hpp"
#include "support/logging.hpp"
#include "support/time_types.hpp"

namespace fc = fingrav::core;
namespace fk = fingrav::kernels;
namespace fs = fingrav::support;
namespace rt = fingrav::runtime;
namespace sim = fingrav::sim;
using namespace fingrav::support::literals;

namespace {

struct Bench {
    sim::MachineConfig cfg = sim::mi300xConfig();
    std::unique_ptr<sim::Simulation> simulation;
    std::unique_ptr<rt::HostRuntime> host;

    explicit Bench(std::uint64_t seed)
    {
        simulation = std::make_unique<sim::Simulation>(cfg, seed, 1);
        host = std::make_unique<rt::HostRuntime>(*simulation,
                                                 simulation->forkRng(7));
    }
};

void
expectProfilesEqual(const fc::PowerProfile& a, const fc::PowerProfile& b,
                    const char* what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_TRUE(a.points()[i] == b.points()[i]) << what << " " << i;
}

void
expectSetsEqual(const fc::ProfileSet& a, const fc::ProfileSet& b)
{
    EXPECT_EQ(a.binning.golden_runs, b.binning.golden_runs);
    EXPECT_EQ(a.binning.total_runs, b.binning.total_runs);
    EXPECT_EQ(a.binning.bin_center.nanos(), b.binning.bin_center.nanos());
    EXPECT_EQ(a.ssp_exec_time.nanos(), b.ssp_exec_time.nanos());
    expectProfilesEqual(a.sse, b.sse, "sse");
    expectProfilesEqual(a.ssp, b.ssp, "ssp");
    expectProfilesEqual(a.timeline, b.timeline, "timeline");
}

fc::ProfileSet
skeleton(const char* label, std::size_t sse_idx, std::size_t ssp_idx)
{
    fc::ProfileSet out;
    out.label = label;
    out.sse_exec_index = sse_idx;
    out.ssp_exec_index = ssp_idx;
    return out;
}

/** Fully synthetic run for controlled binning (coarse-align stitching). */
fc::RunRecord
syntheticRun(std::size_t idx, double rep_us, std::size_t execs = 12)
{
    fc::RunRecord r;
    r.run_index = idx;
    const std::int64_t base =
        1'000'000'000 + static_cast<std::int64_t>(idx) * 10'000'000;
    r.run_start_cpu_ns = base;
    r.log_start_cpu_ns = base - 50'000;
    const auto dur = static_cast<std::int64_t>(rep_us * 1e3);
    for (std::size_t j = 0; j < execs; ++j) {
        fc::ExecObservation ob;
        ob.is_main = true;
        ob.timing.cpu_start_ns =
            base + static_cast<std::int64_t>(j) * (dur + 20'000);
        ob.timing.cpu_end_ns = ob.timing.cpu_start_ns + dur;
        r.main_exec_indices.push_back(r.execs.size());
        r.execs.push_back(ob);
    }
    // Samples every 37 us in 10 ns GPU ticks; coarse-align anchors the
    // first sample at log_start_cpu_ns.
    for (int k = 0; k < 60; ++k) {
        sim::PowerSample s;
        s.gpu_timestamp = 500'000 + k * 3'700;
        s.total_w = 100.0 + k;
        s.xcd_w = 50.0 + k;
        s.iod_w = 25.0;
        s.hbm_w = 20.0;
        r.samples.push_back(s);
    }
    return r;
}

/** Main executions of longSyntheticRun(). */
constexpr std::size_t kLongMains = 320;

/**
 * A log with one sample at each CPU offset in `at` (ascending) from the
 * run's origin, which sits at GPU counter `ts0`.
 */
sim::SampleColumns
samplesAt(std::int64_t ts0, const std::vector<std::int64_t>& at,
          std::int64_t tick_ns, double base_w)
{
    sim::SampleColumns out;
    for (std::size_t k = 0; k < at.size(); ++k) {
        sim::PowerSample s;
        s.gpu_timestamp = ts0 + at[k] / tick_ns;
        s.total_w = base_w + static_cast<double>(k % 97);
        s.xcd_w = 0.5 * s.total_w;
        s.iod_w = 25.0;
        s.hbm_w = 20.0 + static_cast<double>(k % 7);
        out.push_back(s);
    }
    return out;
}

/** Run index of longPool() whose logs stop before its last execution. */
constexpr std::size_t kShortLogRun = 4;

/** Per longPool() run: length of its sample-free stretch from main 308. */
constexpr std::size_t kQuiet[] = {5, 8, 6, 7, 4};

/**
 * Long variant of syntheticRun: three prelude (non-main) executions, then
 * kLongMains main executions of `rep_us` with a non-main execution after
 * every 40th, and zero-duration main executions at 50, 51, 200 (inside
 * the stretch a deep SSP index skips) and 310.  Samples every 53 us (the
 * primary log) and every 211 us and 1009 us (two extra windows) start at
 * the run's calibrated CPU origin, so the coarse-align and the TimeSync
 * mappings put them at the same CPU times.  Two contention intervals
 * overlap the run.
 *
 * Every log also carries the cases where skipping sample-free executions
 * could part from a walk over every execution:
 *  - mains 3-4 and 302-304 run back to back, and a sample lands on each
 *    shared boundary (end(j) == start(j + 1)), so it belongs to both;
 *  - the 302/303 boundary carries two samples with the same timestamp;
 *  - mains 308 to 308 + q - 1 hold no sample (q = kQuiet[idx]), so the
 *    zero-duration main 310 sits between sample-free executions, and
 *    the first sample after them lies on the boundary of back-to-back
 *    mains 308 + q and 309 + q: the skip must stop at 308 + q, reached
 *    by a different probe of its search in each run;
 *  - run kShortLogRun's logs stop inside main 316, before its last
 *    execution.
 */
fc::RunRecord
longSyntheticRun(std::size_t idx, double rep_us, const fc::TimeSync& sync,
                 fs::Duration tick)
{
    fc::RunRecord r;
    r.run_index = idx;
    const std::int64_t ts0 =
        1'000'000 + static_cast<std::int64_t>(idx) * 5'000'000;
    const std::int64_t cpu0 = sync.gpuCounterToCpuNs(ts0);
    r.log_start_cpu_ns = cpu0;
    // Offsets from cpu0, all whole GPU ticks so boundary samples are
    // exact under every mapping.
    std::int64_t t = 40'000;
    std::vector<std::int64_t> start, end;  // of each main execution
    auto add = [&](bool is_main, std::int64_t dur_ns, std::int64_t gap_ns) {
        fc::ExecObservation ob;
        ob.is_main = is_main;
        ob.timing.cpu_start_ns = cpu0 + t;
        ob.timing.cpu_end_ns = cpu0 + t + dur_ns;
        if (is_main) {
            start.push_back(t);
            end.push_back(t + dur_ns);
            r.main_exec_indices.push_back(r.execs.size());
        }
        t += dur_ns + gap_ns;
        r.execs.push_back(ob);
    };
    for (int i = 0; i < 3; ++i)
        add(false, 30'000, 20'000);
    const std::int64_t dur = std::llround(rep_us * 1e3);
    for (std::size_t j = 0; j < kLongMains; ++j) {
        if (j > 0 && j % 40 == 0)
            add(false, 30'000, 20'000);
        const bool zero = j == 50 || j == 51 || j == 200 || j == 310;
        const bool back_to_back =
            j == 3 || j == 302 || j == 303 || j == 308 + kQuiet[idx];
        add(true, zero ? 0 : dur, back_to_back ? 0 : 20'000);
    }
    r.run_start_cpu_ns = r.execs.front().timing.cpu_start_ns;
    const std::int64_t span = t;

    const std::int64_t tick_ns = tick.nanos();
    auto log = [&](std::int64_t period_ns, double base_w) {
        std::vector<std::int64_t> at;
        const std::size_t quiet_end = 308 + kQuiet[idx];
        for (std::int64_t o = 0; o < span; o += period_ns) {
            if (o < start[308] || o > end[quiet_end])
                at.push_back(o);
        }
        for (const std::size_t j : {std::size_t{3}, std::size_t{302},
                                    std::size_t{302}, std::size_t{303},
                                    quiet_end})
            at.push_back(end[j]);
        std::sort(at.begin(), at.end());
        if (idx == kShortLogRun) {
            at.erase(std::upper_bound(at.begin(), at.end(),
                                      start[316] + dur / 2),
                     at.end());
        }
        return samplesAt(ts0, at, tick_ns, base_w);
    };
    r.samples = log(53'000, 300.0);
    r.extra_samples.push_back(log(211'000, 310.0));
    r.extra_samples.push_back(log(1'009'000, 320.0));
    r.contended_cpu_ns = {{cpu0 + span / 3, cpu0 + span / 2},
                          {cpu0 + span - 2'000'000, cpu0 + span}};
    return r;
}

/** Long runs with one execution-time outlier (run 3). */
std::vector<fc::RunRecord>
longPool(const fc::TimeSync& sync, fs::Duration tick)
{
    std::vector<fc::RunRecord> runs;
    const double reps[] = {100.0, 100.3, 99.8, 130.0, 100.1};
    for (std::size_t i = 0; i < std::size(reps); ++i)
        runs.push_back(longSyntheticRun(i, reps[i], sync, tick));
    return runs;
}

/** The same runs carrying window `w`'s log in RunRecord::samples. */
std::vector<fc::RunRecord>
windowMajor(const std::vector<fc::RunRecord>& runs, std::size_t w)
{
    std::vector<fc::RunRecord> out;
    for (const auto& run : runs) {
        fc::RunRecord copy = run;
        copy.samples = run.windowSamples(w);
        copy.extra_samples.clear();
        out.push_back(std::move(copy));
    }
    return out;
}

const fc::SyncMode kAllSyncModes[] = {
    fc::SyncMode::kFinGraV, fc::SyncMode::kFinGraVDrift,
    fc::SyncMode::kNoDelayAccounting, fc::SyncMode::kCoarseAlign};

}  // namespace

TEST(StitchIncremental, MatchesReferenceAcrossTopUps)
{
    // Real instrumented runs: execute a campaign's worth and restitch
    // after every appended run, exactly like the step-8 top-up loop.
    Bench b(31);
    fc::RunExecutor exec(*b.host, b.simulation->forkRng(9));
    fc::RunPlan plan;
    plan.main = fk::makeSquareGemm(2048, b.cfg);
    plan.main_execs_per_block = 24;

    auto sync = fc::TimeSync::calibrate(*b.host);
    std::vector<fc::RunRecord> runs;
    for (std::size_t r = 0; r < 24; ++r)
        runs.push_back(exec.executeRun(plan, r));

    fc::ProfilerOptions opts;
    opts.margin_override = 0.05;

    auto incremental = skeleton("CB-2K-GEMM", 3, 8);
    fc::ProfileStitcher stitcher(opts, sync, b.host->timestampTick());
    std::vector<fc::RunRecord> prefix;
    for (const auto& run : runs) {
        prefix.push_back(run);
        stitcher.restitch(prefix, incremental);
    }

    auto reference = skeleton("CB-2K-GEMM", 3, 8);
    fc::ProfileStitcher::stitchReference(opts, sync,
                                         b.host->timestampTick(), runs,
                                         reference);
    ASSERT_FALSE(reference.ssp.empty());
    expectSetsEqual(incremental, reference);
}

TEST(StitchIncremental, ModalShiftForcesRebuildAndStillMatches)
{
    Bench b(32);
    auto sync = fc::TimeSync::calibrate(*b.host);

    fc::ProfilerOptions opts;
    opts.sync_mode = fc::SyncMode::kCoarseAlign;
    opts.margin_override = 0.05;

    // Three ~100 us runs, then four ~130 us runs: appending the fourth
    // outlier flips the modal bin, so previously stitched runs drop out.
    std::vector<double> reps{100.0, 100.4, 99.8, 130.0, 130.2, 129.9,
                             130.1};
    auto incremental = skeleton("synthetic", 3, 4);
    fc::ProfileStitcher stitcher(opts, sync, b.host->timestampTick());
    std::vector<fc::RunRecord> runs;
    for (std::size_t i = 0; i < reps.size(); ++i) {
        runs.push_back(syntheticRun(i, reps[i]));
        stitcher.restitch(runs, incremental);
    }
    EXPECT_GE(stitcher.rebuildCount(), 2u);  // initial build + bin shift
    EXPECT_EQ(incremental.binning.golden_runs,
              (std::vector<std::size_t>{3, 4, 5, 6}));

    auto reference = skeleton("synthetic", 3, 4);
    fc::ProfileStitcher::stitchReference(opts, sync,
                                         b.host->timestampTick(), runs,
                                         reference);
    expectSetsEqual(incremental, reference);
}

TEST(StitchIncremental, ZeroExecRunsAreSkippedNotUnderflowed)
{
    Bench b(33);
    auto sync = fc::TimeSync::calibrate(*b.host);

    fc::ProfilerOptions opts;
    opts.sync_mode = fc::SyncMode::kCoarseAlign;
    opts.margin_override = 0.05;

    std::vector<fc::RunRecord> runs;
    runs.push_back(syntheticRun(0, 100.0));
    fc::RunRecord empty;  // e.g. a failed/aborted run: no main executions
    empty.run_index = 1;
    runs.push_back(empty);
    runs.push_back(syntheticRun(2, 100.2));

    auto incremental = skeleton("synthetic", 3, 4);
    fc::ProfileStitcher stitcher(opts, sync, b.host->timestampTick());
    // The skip is warned once, when the run is first seen, however often
    // the growing pool is restitched (std::cerr is unbuffered).
    ::testing::internal::CaptureStderr();
    EXPECT_NO_THROW(stitcher.restitch(runs, 2, incremental));
    EXPECT_NO_THROW(stitcher.restitch(runs, incremental));
    EXPECT_NO_THROW(stitcher.restitch(runs, incremental));
    const std::string warned = ::testing::internal::GetCapturedStderr();
    const std::string skip = "run 1 recorded no main executions";
    const auto first = warned.find(skip);
    EXPECT_NE(first, std::string::npos) << warned;
    EXPECT_EQ(warned.find(skip, first + 1), std::string::npos) << warned;
    EXPECT_EQ(incremental.binning.golden_runs,
              (std::vector<std::size_t>{0, 2}));
    EXPECT_EQ(incremental.binning.total_runs, 3u);

    auto reference = skeleton("synthetic", 3, 4);
    EXPECT_NO_THROW(fc::ProfileStitcher::stitchReference(
        opts, sync, b.host->timestampTick(), runs, reference));
    expectSetsEqual(incremental, reference);

    // Degenerate: every run empty — selection must not crash and must
    // keep nothing (binning disabled exercises the other branch too).
    std::vector<fc::RunRecord> all_empty(3);
    auto degenerate = skeleton("synthetic", 3, 4);
    fc::ProfilerOptions no_binning = opts;
    no_binning.binning = false;
    EXPECT_NO_THROW(fc::ProfileStitcher::stitchReference(
        no_binning, sync, b.host->timestampTick(), all_empty, degenerate));
    EXPECT_TRUE(degenerate.binning.golden_runs.empty());
}

TEST(StitchIncremental, LongRunsMatchReferenceAtEveryIndexSplit)
{
    Bench b(34);
    const auto sync = fc::TimeSync::calibrate(*b.host);
    const auto tick = b.host->timestampTick();
    const auto runs = longPool(sync, tick);
    ASSERT_EQ(runs.front().main_exec_indices.size(), kLongMains);

    struct Split {
        std::size_t sse, ssp;
    };
    const Split splits[] = {
        {3, 300},    // sse < ssp: the SSE execution, then a jump
        {50, 300},   // the SSE execution has zero duration
        {305, 300},  // sse >= ssp: SSE inside the SSP region
        {3, kLongMains},  // ssp == mains: SSE points only
        {3, 400},         // ssp > mains
        {400, 300},  // sse >= mains: SSP points only
    };
    for (const auto mode : kAllSyncModes) {
        fc::ProfilerOptions opts;
        opts.sync_mode = mode;
        opts.margin_override = 0.05;
        for (std::size_t w = 0; w <= runs.front().extra_samples.size();
             ++w) {
            const auto window_major = windowMajor(runs, w);
            for (const auto& split : splits) {
                SCOPED_TRACE(::testing::Message()
                             << fc::toString(mode) << " window " << w
                             << " sse " << split.sse << " ssp "
                             << split.ssp);
                auto incremental =
                    skeleton("synthetic", split.sse, split.ssp);
                fc::ProfileStitcher stitcher(opts, sync, tick, w);
                for (std::size_t n = 1; n <= runs.size(); ++n)
                    stitcher.restitch(runs, n, incremental);

                // The recorded form: every run's record built up front
                // for this split, as RecordedCampaign::record does.
                std::vector<fc::AlignedRun> table;
                for (const auto& run : runs) {
                    table.push_back(fc::alignRun(run, w, mode, sync, tick,
                                                 split.sse, split.ssp));
                }
                auto recorded = skeleton("synthetic", split.sse, split.ssp);
                fc::ProfileStitcher from_table(opts, table, w);
                for (std::size_t n = 1; n <= runs.size(); ++n)
                    from_table.restitch(runs, n, recorded);

                auto reference = skeleton("synthetic", split.sse, split.ssp);
                fc::ProfileStitcher::stitchReference(opts, sync, tick,
                                                     window_major, reference);
                EXPECT_EQ(reference.binning.golden_runs,
                          (std::vector<std::size_t>{0, 1, 2, 4}));
                EXPECT_EQ(reference.ssp.empty(), split.ssp >= kLongMains);
                // The 1009 us log (window 2) places no sample in main 305.
                if (w < 2) {
                    EXPECT_EQ(reference.sse.empty(),
                              split.sse >= kLongMains || split.sse == 50);
                }
                expectSetsEqual(incremental, reference);
                expectSetsEqual(recorded, reference);
            }
        }
    }
}

TEST(StitchIncremental, EachWindowOfOnePoolMatchesWindowMajorReference)
{
    Bench b(35);
    const auto sync = fc::TimeSync::calibrate(*b.host);
    const auto tick = b.host->timestampTick();
    const auto runs = longPool(sync, tick);
    for (const auto mode : kAllSyncModes) {
        fc::ProfilerOptions opts;
        opts.sync_mode = mode;
        opts.margin_override = 0.05;
        for (std::size_t w = 0; w <= runs.front().extra_samples.size();
             ++w) {
            SCOPED_TRACE(::testing::Message()
                         << fc::toString(mode) << " window " << w);
            auto shared = skeleton("synthetic", 3, 300);
            fc::ProfileStitcher stitcher(opts, sync, tick, w);
            stitcher.restitch(runs, 2, shared);
            stitcher.restitch(runs, shared);

            auto reference = skeleton("synthetic", 3, 300);
            fc::ProfileStitcher::stitchReference(
                opts, sync, tick, windowMajor(runs, w), reference);
            ASSERT_FALSE(reference.ssp.empty());
            expectSetsEqual(shared, reference);

            // The edge cases are really there: run 0 places the two
            // same-timestamp samples at the end of main 302 and the start
            // of 303, the 303/304 and 313/314 boundary samples in both
            // executions, and nothing in its sample-free stretch 308-312.
            std::size_t at_end_302 = 0, at_start_303 = 0, at_304 = 0,
                        at_313 = 0, at_314 = 0, in_quiet = 0;
            for (std::size_t i = 0; i < reference.ssp.size(); ++i) {
                const auto p = reference.ssp.point(i);
                if (p.run_index != 0)
                    continue;
                at_end_302 += p.exec_index == 302 && p.toi_frac == 1.0;
                at_start_303 += p.exec_index == 303 && p.toi_us == 0.0;
                at_304 += p.exec_index == 304 && p.toi_us == 0.0;
                at_313 += p.exec_index == 313 && p.toi_frac == 1.0;
                at_314 += p.exec_index == 314 && p.toi_us == 0.0;
                in_quiet += p.exec_index >= 308 && p.exec_index <= 312;
            }
            EXPECT_EQ(at_end_302, 2u);
            EXPECT_EQ(at_start_303, 2u);
            EXPECT_EQ(at_304, 1u);
            EXPECT_EQ(at_313, 1u);
            EXPECT_EQ(at_314, 1u);
            EXPECT_EQ(in_quiet, 0u);
        }
    }
}

TEST(StitchIncremental, TableForAnotherSplitIsFatal)
{
    // A record's rows hold for the split it was built for; a ProfileSet
    // with another SSE or SSP index must be refused, never stitched from
    // the wrong rows.
    Bench b(36);
    const auto sync = fc::TimeSync::calibrate(*b.host);
    const auto tick = b.host->timestampTick();
    const auto runs = longPool(sync, tick);
    fc::ProfilerOptions opts;
    opts.margin_override = 0.05;
    std::vector<fc::AlignedRun> table;
    for (const auto& run : runs)
        table.push_back(fc::alignRun(run, 0, opts.sync_mode, sync, tick, 3,
                                     300));

    auto matching = skeleton("synthetic", 3, 300);
    fc::ProfileStitcher ok(opts, table, 0);
    EXPECT_NO_THROW(ok.restitch(runs, matching));
    EXPECT_FALSE(matching.ssp.empty());
    for (const auto& [sse, ssp] :
         {std::pair<std::size_t, std::size_t>{4, 300}, {3, 301}, {300, 3}}) {
        auto other = skeleton("synthetic", sse, ssp);
        fc::ProfileStitcher stitcher(opts, table, 0);
        EXPECT_THROW(stitcher.restitch(runs, other), fs::FatalError)
            << sse << "/" << ssp;
    }
}
