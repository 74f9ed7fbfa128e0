/**
 * @file
 * CampaignRunner / RecordedCampaign determinism contract.
 *
 * The campaign engine is only admissible if parallel execution is
 * invisible in the results: ProfileSets must be bit-identical to the
 * serial loop for any thread count, any spec order and any completion
 * order, and sweep-reuse restitches must be bit-identical to re-executing
 * the recorded campaign from scratch.  These tests lock all of that, plus
 * the deterministic per-campaign RNG streams under concurrent starts.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "fingrav/campaign_runner.hpp"
#include "fingrav/recorded_campaign.hpp"
#include "kernels/workloads.hpp"
#include "support/logging.hpp"
#include "support/thread_pool.hpp"
#include "support/time_types.hpp"
#include "tests/test_fixtures.hpp"

namespace fc = fingrav::core;
namespace fs = fingrav::support;
using namespace fingrav::support::literals;

namespace {

using fingrav::testing::mixedSpecs;
using fingrav::testing::recordSpec;

}  // namespace

TEST(CampaignRunner, ParallelBitIdenticalToSerialAcrossThreadCounts)
{
    // The mixed set, and the Fig. 10 set with the step-8 top-up left on.
    fc::ProfilerOptions topped_up;
    topped_up.runs_override = 30;
    for (const auto& specs :
         {mixedSpecs(), fingrav::testing::fig10SpecsWithOptions(topped_up)}) {
        const auto serial = fc::CampaignRunner(1).run(specs);
        ASSERT_EQ(serial.size(), specs.size());
        for (const std::size_t threads : {2u, 8u}) {
            const auto parallel = fc::CampaignRunner(threads).run(specs);
            ASSERT_EQ(parallel.size(), specs.size());
            for (std::size_t i = 0; i < specs.size(); ++i) {
                EXPECT_TRUE(fc::identicalProfileSets(serial[i], parallel[i]))
                    << specs[i].label << " diverged at " << threads
                    << " threads";
            }
        }
    }
}

TEST(CampaignRunner, SpecOrderDoesNotPerturbResults)
{
    // Campaigns are hermetic: submitting the specs in reverse (a proxy
    // for arbitrary completion order) must reproduce each campaign
    // bitwise.
    auto specs = mixedSpecs();
    const auto forward = fc::CampaignRunner(4).run(specs);
    std::vector<fc::ScenarioSpec> reversed(specs.rbegin(), specs.rend());
    const auto backward = fc::CampaignRunner(4).run(reversed);
    ASSERT_EQ(forward.size(), backward.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_TRUE(fc::identicalProfileSets(
            forward[i], backward[specs.size() - 1 - i]))
            << specs[i].label;
    }
}

TEST(RecordedCampaign, SweepReuseBitIdenticalToReExecution)
{
    // One recording, many restitches vs one fresh re-execution per sweep
    // point: bit-identical ProfileSets either way.
    const auto spec = recordSpec();
    const std::vector<fs::Duration> extra{5_ms, 10_ms};
    const auto recorded = fc::RecordedCampaign::record(spec, extra);
    ASSERT_EQ(recorded.windows().size(), 3u);
    ASSERT_GT(recorded.runCount(), 0u);

    std::vector<fc::SweepPoint> points;
    points.push_back({});  // the recorded campaign's own parameters
    fc::SweepPoint margin;
    margin.margin = 0.10;
    points.push_back(margin);
    fc::SweepPoint nobin;
    nobin.binning = false;
    points.push_back(nobin);
    fc::SweepPoint sync;
    sync.sync_mode = fc::SyncMode::kNoDelayAccounting;
    points.push_back(sync);
    fc::SweepPoint drift;
    drift.sync_mode = fc::SyncMode::kFinGraVDrift;
    points.push_back(drift);
    fc::SweepPoint coarse;
    coarse.window_index = 2;
    points.push_back(coarse);
    fc::SweepPoint prefix;
    prefix.runs = 5;
    points.push_back(prefix);

    for (std::size_t p = 0; p < points.size(); ++p) {
        const auto reused = recorded.restitch(points[p]);
        const auto reexecuted =
            fc::RecordedCampaign::record(spec, extra).restitch(points[p]);
        EXPECT_TRUE(fc::identicalProfileSets(reused, reexecuted))
            << "sweep point " << p;
    }
}

TEST(RecordedCampaign, SweepPointsBehaveAsSpecified)
{
    const auto recorded = fc::RecordedCampaign::record(recordSpec(), {20_ms});

    fc::SweepPoint prefix;
    prefix.runs = 4;
    const auto small = recorded.restitch(prefix);
    EXPECT_EQ(small.runs_executed, 4u);
    EXPECT_EQ(small.binning.total_runs, 4u);

    const auto fine = recorded.restitch({});
    fc::SweepPoint coarse_point;
    coarse_point.window_index = 1;
    const auto coarse = recorded.restitch(coarse_point);
    // A 20x coarser window yields at most as many LOIs per unit time and
    // a later SSP execution index.
    EXPECT_GE(coarse.ssp_exec_index, fine.ssp_exec_index);
    ASSERT_FALSE(fine.ssp.empty());

    fc::SweepPoint nodelay;
    nodelay.sync_mode = fc::SyncMode::kNoDelayAccounting;
    EXPECT_EQ(recorded.restitch(nodelay).read_delay_us, 0.0);
    fc::SweepPoint drift;
    drift.sync_mode = fc::SyncMode::kFinGraVDrift;
    EXPECT_NE(recorded.restitch(drift).drift_ppm, 0.0);
}

TEST(RecordedCampaign, RestitchWithEmptyExtraWindowsList)
{
    // A recording with no extra windows is the single-window common case:
    // exactly one recorded window (the primary), restitch({}) replays it,
    // and addressing any other window index is a user error.
    auto spec = recordSpec();
    spec.opts.runs_override = 4;
    spec.opts.collect_extra_runs = false;  // budget = base: no top-up pool
    const auto recorded = fc::RecordedCampaign::record(spec, {});
    ASSERT_EQ(recorded.windows().size(), 1u);

    const auto set = recorded.restitch({});
    EXPECT_FALSE(set.ssp.empty());
    EXPECT_EQ(set.runs_executed, recorded.baseRuns());

    fc::SweepPoint primary;
    primary.window_index = 0;
    EXPECT_TRUE(fc::identicalProfileSets(set, recorded.restitch(primary)));
    // Deterministic: a fresh single-window recording restitches bitwise.
    EXPECT_TRUE(fc::identicalProfileSets(
        set, fc::RecordedCampaign::record(spec, {}).restitch({})));

    fc::SweepPoint beyond;
    beyond.window_index = 1;
    EXPECT_THROW(recorded.restitch(beyond), fs::FatalError);
}

TEST(RecordedCampaign, ShorthandSpecReportsTheKernelLabel)
{
    // A shorthand label names a custom shape; the recorded pipeline
    // reports the resolved kernel's label, as the live one does.
    fc::ScenarioSpec spec{"gemv:4096", 17};
    spec.opts.runs_override = 3;
    spec.opts.collect_extra_runs = false;
    const auto set = fc::RecordedCampaign::record(spec).restitch({});
    EXPECT_EQ(set.label, "MB-4K-GEMV");
    EXPECT_EQ(set.label, fc::CampaignRunner::runOne(spec).label);
}

TEST(RecordedCampaign, AutotuneBudgetFindsMinimalPrefix)
{
    // Guidance-table autotuning (ROADMAP): the autotuner replays
    // run-pool prefixes until the LOI target is met; the reported
    // budget must be minimal and consistent with restitch().
    const auto recorded = fc::RecordedCampaign::record(recordSpec());
    const auto tuned = recorded.autotuneBudget();

    EXPECT_EQ(tuned.recommended_runs, recorded.baseRuns());
    EXPECT_EQ(tuned.pool_runs, recorded.runCount());
    EXPECT_GT(tuned.loi_target, 0u);
    ASSERT_GE(tuned.runs_needed, 1u);
    ASSERT_LE(tuned.runs_needed, recorded.runCount());

    // The budget it reports really meets the target...
    fc::SweepPoint at_budget;
    at_budget.runs = tuned.runs_needed;
    const auto met = recorded.restitch(at_budget);
    if (tuned.target_met) {
        EXPECT_GE(met.ssp.size(), tuned.loi_target);
        EXPECT_GE(tuned.achieved_yield, 1.0);
        // ...and one run fewer does not (minimality).
        if (tuned.runs_needed > 1) {
            fc::SweepPoint one_less;
            one_less.runs = tuned.runs_needed - 1;
            EXPECT_LT(recorded.restitch(one_less).ssp.size(),
                      tuned.loi_target);
        }
    } else {
        EXPECT_EQ(tuned.runs_needed, recorded.runCount());
        EXPECT_LT(tuned.achieved_yield, 1.0);
    }
}

TEST(RecordedCampaign, AutotuneBudgetHonoursExplicitTargets)
{
    const auto recorded = fc::RecordedCampaign::record(recordSpec());

    // A trivial target is met by the first prefix.
    const auto easy = recorded.autotuneBudget(1);
    EXPECT_TRUE(easy.target_met);
    EXPECT_EQ(easy.loi_target, 1u);
    EXPECT_GE(easy.achieved_yield, 1.0);

    // An unreachable target exhausts the pool and reports the miss —
    // the observable that tells operators Table I under-budgets here.
    const auto impossible = recorded.autotuneBudget(1000000);
    EXPECT_FALSE(impossible.target_met);
    EXPECT_EQ(impossible.runs_needed, recorded.runCount());
    EXPECT_LT(impossible.achieved_yield, 1.0);
    EXPECT_LT(impossible.budgetDelta(), 0);

    // Targets are monotone: a harder target never needs fewer runs.
    const auto harder = recorded.autotuneBudget(easy.loi_target + 4);
    EXPECT_GE(harder.runs_needed, easy.runs_needed);

    EXPECT_THROW(recorded.autotuneBudget(0, 5), fs::FatalError);
}

TEST(RecordedCampaign, AutotuneBudgetOnEmptyRunPool)
{
    // A zero run budget with top-up collection off records an empty
    // pool.  The autotuner must degrade gracefully: zero runs scanned,
    // target reported unmet at zero yield — never a crash or a phantom
    // budget.
    auto spec = recordSpec();
    spec.opts.runs_override = 0;
    spec.opts.collect_extra_runs = false;
    const auto recorded = fc::RecordedCampaign::record(spec);
    ASSERT_EQ(recorded.runCount(), 0u);

    const auto tuned = recorded.autotuneBudget();
    EXPECT_EQ(tuned.pool_runs, 0u);
    EXPECT_EQ(tuned.runs_needed, 0u);
    EXPECT_FALSE(tuned.target_met);
    EXPECT_EQ(tuned.achieved_yield, 0.0);
    EXPECT_GT(tuned.loi_target, 0u);
}

TEST(RecordedCampaign, AutotuneBudgetTargetMetByFirstRun)
{
    // A target of one LOI is satisfied by the very first prefix: the
    // scan must stop there and report a one-run budget (the lower edge
    // of minimality, complementing the minimal-prefix test above).
    const auto recorded = fc::RecordedCampaign::record(recordSpec());
    ASSERT_GT(recorded.runCount(), 1u);

    const auto tuned = recorded.autotuneBudget(1);
    EXPECT_TRUE(tuned.target_met);
    EXPECT_EQ(tuned.runs_needed, 1u);
    EXPECT_GE(tuned.achieved_yield, 1.0);
}

TEST(RecordedCampaign, AutotuneBudgetTargetUnreachableAtMaxBudget)
{
    // When even the full pool cannot meet the target, the autotuner
    // must consume exactly the whole pool and report the shortfall
    // precisely: yield = achieved/target, negative budget delta.
    const auto recorded = fc::RecordedCampaign::record(recordSpec());
    const auto full = recorded.restitch({});
    const std::size_t unreachable = full.ssp.size() * 1000 + 1;

    const auto tuned = recorded.autotuneBudget(unreachable);
    EXPECT_FALSE(tuned.target_met);
    EXPECT_EQ(tuned.runs_needed, recorded.runCount());
    EXPECT_EQ(tuned.pool_runs, recorded.runCount());
    EXPECT_GT(tuned.achieved_yield, 0.0);
    EXPECT_LT(tuned.achieved_yield, 1.0);
    EXPECT_LT(tuned.budgetDelta(), 0);
}

TEST(RecordedCampaign, ConcurrentRecordingDeterministic)
{
    // Deterministic per-campaign RNG streams under concurrent campaign
    // start: recordings racing on a pool reproduce the serial recording.
    const auto spec = recordSpec();
    const auto reference = fc::RecordedCampaign::record(spec).restitch({});

    std::vector<fc::ProfileSet> raced(4);
    fs::ThreadPool pool(4);
    pool.parallelFor(raced.size(), [&](std::size_t i) {
        raced[i] = fc::RecordedCampaign::record(spec).restitch({});
    });
    for (std::size_t i = 0; i < raced.size(); ++i) {
        EXPECT_TRUE(fc::identicalProfileSets(reference, raced[i]))
            << "racer " << i;
    }
}
