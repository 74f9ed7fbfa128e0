/**
 * @file
 * Scenario-layer contract: declarative environments over the campaign
 * engine.
 *
 * Locks the properties the scenario refactor is only admissible with:
 *  - an isolated scenario replicates a hand-built node (root seed,
 *    runtime stream 7, profiler stream 8) bitwise: an empty background
 *    arms nothing;
 *  - scenario trajectories are deterministic — re-running a spec, and
 *    fanning a spec set over 1/2/8 runner threads, reproduce results
 *    bitwise (background launches ride a dedicated root-RNG stream);
 *  - background loads fire on their declared schedule (offset, period,
 *    duty-cycle burst sizing, cycle caps) on the declared device;
 *  - contended scenarios produce *different* profiles than isolation,
 *    stretch by the fair-share factor that conserves the transferred
 *    bytes, and annotate LOIs with the contention state active during
 *    them (all of them under steady demand, some under periodic load);
 *  - RecordedCampaign::record over a scenario restitches bit-identically
 *    to re-execution, contention annotations included.
 */

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/report.hpp"
#include "fingrav/campaign_runner.hpp"
#include "fingrav/recorded_campaign.hpp"
#include "fingrav/scenario.hpp"
#include "kernels/workloads.hpp"
#include "runtime/host_runtime.hpp"
#include "sim/simulation.hpp"
#include "support/logging.hpp"
#include "support/time_types.hpp"

namespace an = fingrav::analysis;
namespace fc = fingrav::core;
namespace fs = fingrav::support;
using namespace fingrav::support::literals;

namespace {

fc::ProfilerOptions
cheapOpts()
{
    fc::ProfilerOptions opts;
    opts.runs_override = 4;
    opts.collect_extra_runs = false;
    return opts;
}

/** Steady injected fabric demand for the whole campaign. */
fc::BackgroundLoad
steadyDemand(double demand)
{
    fc::BackgroundLoad load;
    load.kind = fc::BackgroundKind::kFabricDemand;
    load.demand = demand;
    return load;
}

fc::ScenarioSpec
contendedCollective(std::uint64_t seed)
{
    fc::ScenarioSpec spec;
    spec.label = "AR-512MB";
    spec.seed = seed;
    spec.opts = cheapOpts();
    spec.background.push_back(steadyDemand(0.6));
    return spec;
}

}  // namespace

TEST(Scenario, IsolatedScenarioReplicatesHandBuiltNode)
{
    fc::ProfilerOptions opts;
    opts.runs_override = 10;
    opts.collect_extra_runs = false;

    // The stream contract, built by hand: a 1-GPU node on the root seed,
    // runtime stream 7, profiler stream 8.
    const auto cfg = fingrav::sim::mi300xConfig();
    fingrav::sim::Simulation s(cfg, 91, 1);
    fingrav::runtime::HostRuntime host(s, s.forkRng(7));
    const auto expected =
        fc::Profiler(host, opts, s.forkRng(8))
            .profile(fingrav::kernels::kernelByLabel("CB-2K-GEMM", cfg));

    // An isolated scenario through the runner replicates it bitwise.
    fc::ScenarioSpec isolated;
    isolated.label = "CB-2K-GEMM";
    isolated.seed = 91;
    isolated.opts = opts;
    EXPECT_TRUE(fc::identicalProfileSets(
        expected, fc::CampaignRunner::runOne(isolated)));
}

TEST(Scenario, TrajectoryIsDeterministic)
{
    const auto spec = contendedCollective(321);
    const auto a = fc::CampaignRunner::runOne(spec);
    const auto b = fc::CampaignRunner::runOne(spec);
    EXPECT_TRUE(fc::identicalProfileSets(a, b));
    ASSERT_FALSE(a.ssp.empty());
}

TEST(Scenario, RunnerBitIdenticalAcrossThreadCountsWithBackgrounds)
{
    // A mixed scenario set: isolated, steadily contended, and a bursty
    // kernel background — the background channel must not leak any
    // nondeterminism into the campaign engine's thread-identity contract.
    std::vector<fc::ScenarioSpec> specs;
    fc::ScenarioSpec isolated;
    isolated.label = "AR-512MB";
    isolated.seed = 500;
    isolated.opts = cheapOpts();
    specs.push_back(isolated);
    specs.push_back(contendedCollective(501));
    fc::ScenarioSpec bursty = isolated;
    bursty.seed = 502;
    fc::BackgroundLoad transfer;
    transfer.kernel = "AR-512MB";
    transfer.device = 1;
    transfer.offset = 300_us;
    transfer.period = 9_ms;
    transfer.duty_cycle = 0.3;
    bursty.background.push_back(transfer);
    specs.push_back(bursty);

    const auto serial = fc::CampaignRunner(1).run(specs);
    for (const std::size_t threads : {2u, 8u}) {
        const auto parallel = fc::CampaignRunner(threads).run(specs);
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            EXPECT_TRUE(fc::identicalProfileSets(serial[i], parallel[i]))
                << "spec " << i << " diverged at " << threads << " threads";
        }
    }
}

TEST(Scenario, BackgroundKernelLoadsFollowTheirSchedule)
{
    // Two cycles of a three-launch burst on device 1, starting 1 ms in.
    fc::ScenarioSpec spec;
    spec.label = "CB-2K-GEMM";
    spec.seed = 7;
    fc::BackgroundLoad load;
    load.kernel = "CB-2K-GEMM";
    load.device = 1;
    load.offset = 1_ms;
    load.period = 200_us;
    load.duty_cycle = 0.5;  // ~100 us of a ~33 us kernel -> 3 launches
    load.cycles = 2;
    spec.background.push_back(load);

    const auto cfg = fingrav::sim::mi300xConfig();
    fc::CampaignNode node(spec, cfg);
    // Auto device count: one for the foreground plus the background host.
    ASSERT_EQ(node.simulation().deviceCount(), 2u);

    auto& host = node.host();
    host.sleep(5_ms);
    host.synchronizeAll();

    // Duty-cycle sizing: enough copies to occupy ~50% of each 200 us
    // cycle at the kernel's nominal (warm) rate.
    const auto nominal = fingrav::kernels::kernelByLabel("CB-2K-GEMM", cfg)
                             ->workAt(1.0)
                             .nominal_duration;
    const auto burst = std::max<std::size_t>(
        1, static_cast<std::size_t>((0.5 * 200'000.0) /
                                    static_cast<double>(nominal.nanos())));
    const auto& log = host.deviceExecutionLog(1);
    ASSERT_EQ(log.size(), burst * 2);
    // Cycle starts honour offset and period; the burst runs back-to-back.
    EXPECT_EQ(log.front().start.nanos(), 1'000'000);
    EXPECT_EQ(log[burst].start.nanos(), 1'200'000);
    for (std::size_t i = 1; i < burst; ++i)
        EXPECT_EQ(log[i].start.nanos(), log[i - 1].end.nanos());
    // No third cycle: the cap held.
    host.sleep(5_ms);
    host.synchronizeAll();
    EXPECT_EQ(host.deviceExecutionLog(1).size(), burst * 2);
}

TEST(Scenario, OneShotLoadsAndValidation)
{
    // period <= 0 declares a one-shot load...
    fc::ScenarioSpec spec;
    spec.label = "CB-2K-GEMM";
    spec.seed = 8;
    fc::BackgroundLoad load;
    load.kernel = "CB-4K-GEMM";
    load.device = 1;
    load.offset = 500_us;
    spec.background.push_back(load);
    const auto cfg = fingrav::sim::mi300xConfig();
    fc::CampaignNode node(spec, cfg);
    auto& host = node.host();
    host.sleep(3_ms);
    host.synchronizeAll();
    EXPECT_EQ(host.deviceExecutionLog(1).size(), 1u);

    // ...and malformed loads are user errors.
    auto bad = spec;
    bad.background[0].cycles = 3;  // multiple cycles need a period
    EXPECT_THROW(fc::CampaignNode(bad, cfg), fs::FatalError);
    bad = spec;
    bad.background[0].duty_cycle = 0.0;
    EXPECT_THROW(fc::CampaignNode(bad, cfg), fs::FatalError);
    bad = spec;
    bad.background[0].kernel = "NOT-A-KERNEL";
    EXPECT_THROW(fc::CampaignNode(bad, cfg), fs::FatalError);
    bad = spec;
    bad.background[0].device = 9;  // beyond the full node
    EXPECT_THROW(fc::CampaignNode(bad, cfg), fs::FatalError);
    bad = spec;
    bad.background[0].kind = fc::BackgroundKind::kFabricDemand;
    bad.background[0].demand = -1.0;
    EXPECT_THROW(fc::CampaignNode(bad, cfg), fs::FatalError);
}

TEST(Scenario, ContendedProfileDiffersAndAnnotatesLois)
{
    fc::ScenarioSpec isolated;
    isolated.label = "AR-512MB";
    isolated.seed = 611;
    isolated.opts = cheapOpts();
    auto contended = isolated;
    contended.background.push_back(steadyDemand(0.6));
    // A periodic AR-512MB transfer on device 1 contends only part of
    // the campaign.
    auto phased = isolated;
    fc::BackgroundLoad transfer;
    transfer.kernel = "AR-512MB";
    transfer.device = 1;
    transfer.offset = 500_us;
    transfer.period = 8_ms;
    transfer.duty_cycle = 0.4;
    phased.background.push_back(transfer);

    const auto sets =
        fc::CampaignRunner(1).run({isolated, contended, phased});
    const auto& iso = sets[0];
    const auto& cont = sets[1];
    const auto& part = sets[2];
    ASSERT_FALSE(iso.ssp.empty());
    ASSERT_FALSE(cont.ssp.empty());

    // Dead-coupling guard: the environment must be visible in the data.
    EXPECT_FALSE(fc::identicalProfileSets(iso, cont));
    // Fair share: the contended collective runs longer...
    EXPECT_GT(cont.ssp_exec_time.toMicros(),
              1.2 * iso.ssp_exec_time.toMicros());
    // ...and the annotation splits the LOIs: all contended under steady
    // demand, none in isolation.
    EXPECT_EQ(iso.ssp.contendedCount(), 0u);
    EXPECT_EQ(cont.ssp.contendedCount(), cont.ssp.size());
    EXPECT_EQ(cont.timeline.contendedCount(), cont.timeline.size());

    // The analysis report sees the same split.
    const auto delta = an::contentionDelta(iso, cont);
    EXPECT_GT(delta.exec_stretch, 1.2);
    EXPECT_DOUBLE_EQ(delta.contended_loi_frac, 1.0);

    // Conservation: under fair share the foreground's allocated share is
    // u / (u + d), so the stretched execution moves the uncontended
    // payload exactly when the stretch is u + d.
    const double u = fingrav::kernels::kernelByLabel(
                         "AR-512MB", fingrav::sim::mi300xConfig())
                         ->workAt(1.0)
                         .util.fabric_bw;
    const double bytes_ratio =
        delta.exec_stretch / std::max(1.0, u + 0.6);
    EXPECT_GE(bytes_ratio, 0.92);
    EXPECT_LE(bytes_ratio, 1.08);

    // Periodic contention flags some LOIs and not others.
    EXPECT_FALSE(fc::identicalProfileSets(iso, part));
    EXPECT_GT(part.ssp.contendedCount(), 0u);
    EXPECT_LT(part.ssp.contendedCount(), part.ssp.size());
}

TEST(Scenario, LoiYieldRecordedAgainstGuidanceTarget)
{
    fc::ScenarioSpec spec;
    spec.label = "CB-2K-GEMM";
    spec.seed = 19;
    spec.opts = cheapOpts();
    const auto set = fc::CampaignRunner::runOne(spec);
    ASSERT_GT(set.loi_target, 0u);
    EXPECT_EQ(set.loi_target,
              set.guidance.recommendedLois(set.measured_exec_time));
    EXPECT_DOUBLE_EQ(set.loiYield(),
                     static_cast<double>(set.ssp.size()) /
                         static_cast<double>(set.loi_target));
}

TEST(Scenario, RecordedScenarioRestitchMatchesReExecution)
{
    // Sweep reuse extends to contended campaigns: one recording under a
    // live background restitches bit-identically to a fresh re-execution,
    // contention annotations included.
    auto spec = contendedCollective(888);
    spec.opts.runs_override = 3;

    const auto recorded = fc::RecordedCampaign::record(spec);
    const auto reused = recorded.restitch({});
    const auto reexecuted = fc::RecordedCampaign::record(spec).restitch({});
    EXPECT_TRUE(fc::identicalProfileSets(reused, reexecuted));
    ASSERT_FALSE(reused.ssp.empty());
    EXPECT_EQ(reused.ssp.contendedCount(), reused.ssp.size());
}
