/**
 * @file
 * Coverage for the remaining model surfaces: energy helpers, the run
 * executor's instrumentation, non-square GEMM shapes, and profile trend
 * mechanics.
 */

#include <memory>

#include <gtest/gtest.h>

#include "fingrav/energy.hpp"
#include "fingrav/profile.hpp"
#include "fingrav/run_executor.hpp"
#include "kernels/gemm.hpp"
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

// ---------------------------------------------------------------------------
// Energy helpers
// ---------------------------------------------------------------------------

namespace {

fc::PowerProfile
flatProfile(double watts, std::size_t n)
{
    fc::PowerProfile p("T", fc::ProfileKind::kSsp);
    for (std::size_t i = 0; i < n; ++i) {
        fc::ProfilePoint pt;
        pt.toi_us = static_cast<double>(i);
        pt.sample.total_w = watts;
        pt.sample.xcd_w = watts * 0.8;
        p.add(pt);
    }
    return p;
}

}  // namespace

TEST(Energy, ExecutionEnergyIsPowerTimesTime)
{
    const auto p = flatProfile(500.0, 10);
    EXPECT_NEAR(fc::executionEnergy(p, 2_ms), 1.0, 1e-9);
    EXPECT_NEAR(fc::executionEnergy(p, 2_ms, fc::Rail::kXcd), 0.8, 1e-9);
    EXPECT_DOUBLE_EQ(
        fc::executionEnergy(fc::PowerProfile("E", fc::ProfileKind::kSsp),
                            1_ms),
        0.0);
}

TEST(Energy, DifferentiationReportArithmetic)
{
    fc::ProfileSet set;
    set.sse = flatProfile(200.0, 5);
    set.ssp = flatProfile(800.0, 5);
    set.ssp_exec_time = 1_ms;
    const auto rep = fc::differentiationError(set);
    EXPECT_DOUBLE_EQ(rep.sse_mean_w, 200.0);
    EXPECT_DOUBLE_EQ(rep.ssp_mean_w, 800.0);
    EXPECT_DOUBLE_EQ(rep.error_pct, 75.0);
    EXPECT_NEAR(rep.ssp_energy_j, 0.8, 1e-9);
    EXPECT_NEAR(rep.sse_energy_j, 0.2, 1e-9);
}

TEST(Energy, InterleavingShift)
{
    fc::ProfileSet iso;
    iso.ssp = flatProfile(500.0, 5);
    fc::ProfileSet inter;
    inter.ssp = flatProfile(400.0, 5);
    EXPECT_DOUBLE_EQ(fc::interleavingShiftPct(inter, iso), -20.0);
    EXPECT_DOUBLE_EQ(fc::interleavingShiftPct(iso, iso), 0.0);
}

// ---------------------------------------------------------------------------
// Run executor instrumentation
// ---------------------------------------------------------------------------

namespace {

struct Node {
    sim::MachineConfig cfg = sim::mi300xConfig();
    std::unique_ptr<sim::Simulation> s;
    std::unique_ptr<rt::HostRuntime> host;

    explicit Node(std::uint64_t seed)
    {
        s = std::make_unique<sim::Simulation>(cfg, seed, 1);
        host = std::make_unique<rt::HostRuntime>(*s, s->forkRng(7));
    }
};

/**
 * Each execution starts at or after the previous one ends: every timed
 * run synchronizes before the next launch.  ProfileStitcher relies on it
 * to jump its sample cursor over the executions it does not harvest.
 */
void
expectExecsInOrder(const fc::RunRecord& rec)
{
    for (std::size_t i = 1; i < rec.execs.size(); ++i) {
        EXPECT_GE(rec.execs[i].timing.cpu_start_ns,
                  rec.execs[i - 1].timing.cpu_end_ns)
            << i;
    }
}

}  // namespace

TEST(RunExecutor, RecordsExecutionsInOrderWithPower)
{
    Node node(901);
    fc::RunExecutor exec(*node.host, node.s->forkRng(9));
    fc::RunPlan plan;
    plan.main = fk::makeSquareGemm(2048, node.cfg);
    plan.main_execs_per_block = 6;
    const auto rec = exec.executeRun(plan, 3);
    EXPECT_EQ(rec.run_index, 3u);
    ASSERT_EQ(rec.execs.size(), 6u);
    ASSERT_EQ(rec.main_exec_indices.size(), 6u);
    expectExecsInOrder(rec);
    EXPECT_FALSE(rec.samples.empty());
    EXPECT_EQ(rec.run_start_cpu_ns, rec.execs[0].timing.cpu_start_ns);
    EXPECT_LT(rec.log_start_cpu_ns, rec.run_start_cpu_ns);
    // Cold-start model: the first execution is the slowest.
    EXPECT_GT(rec.mainExecDuration(0).nanos(),
              rec.mainExecDuration(5).nanos());
}

TEST(RunExecutor, PreludeExecutesBeforeMainPerBlock)
{
    Node node(902);
    fc::RunExecutor exec(*node.host, node.s->forkRng(9));
    fc::RunPlan plan;
    plan.main = fk::makeSquareGemm(2048, node.cfg);
    plan.prelude = {{fk::makeGemv(4096, node.cfg), 3}};
    plan.blocks = 2;
    plan.main_execs_per_block = 1;
    const auto rec = exec.executeRun(plan, 0, /*with_power=*/false);
    ASSERT_EQ(rec.execs.size(), 8u);  // 2 x (3 prelude + 1 main)
    ASSERT_EQ(rec.main_exec_indices.size(), 2u);
    EXPECT_EQ(rec.main_exec_indices[0], 3u);
    EXPECT_EQ(rec.main_exec_indices[1], 7u);
    for (std::size_t i = 0; i < rec.execs.size(); ++i) {
        EXPECT_EQ(rec.execs[i].is_main, i == 3u || i == 7u) << i;
    }
    expectExecsInOrder(rec);
}

TEST(RunExecutor, CollectiveAndPreludeExecutionsRunInOrder)
{
    // Node-wide collective main executions behind a single-device prelude,
    // with power capture on: the collective timing is taken on the
    // profiled device while the other seven GPUs run it too.
    const auto cfg = sim::mi300xConfig();
    sim::Simulation s(cfg, 904);
    rt::HostRuntime host(s, s.forkRng(7));
    fc::RunExecutor exec(host, s.forkRng(9));
    fc::RunPlan plan;
    plan.main = fk::makeCollective(fk::CollectiveOp::kAllReduce, 32_MB, cfg);
    plan.prelude = {{fk::makeGemv(4096, cfg), 2}};
    plan.blocks = 3;
    plan.main_execs_per_block = 4;
    const auto rec = exec.executeRun(plan, 0);
    ASSERT_EQ(rec.execs.size(), 18u);  // 3 x (2 prelude + 4 main)
    ASSERT_EQ(rec.main_exec_indices.size(), 12u);
    EXPECT_FALSE(rec.samples.empty());
    expectExecsInOrder(rec);
}

TEST(RunExecutor, PlanValidation)
{
    Node node(903);
    fc::RunExecutor exec(*node.host, node.s->forkRng(9));
    fc::RunPlan plan;  // no main kernel
    EXPECT_THROW(exec.executeRun(plan, 0), fs::FatalError);
    plan.main = fk::makeSquareGemm(2048, node.cfg);
    plan.blocks = 0;
    EXPECT_THROW(exec.executeRun(plan, 0), fs::FatalError);
    plan.blocks = 1;
    plan.min_delay = 2_ms;
    plan.max_delay = 1_ms;
    EXPECT_THROW(exec.executeRun(plan, 0), fs::FatalError);
}

TEST(RunExecutor, OutlierRunsCarryPowerSignature)
{
    Node node(904);
    fc::RunExecutor exec(*node.host, node.s->forkRng(9));
    const auto model = fk::makeSquareGemm(4096, node.cfg);
    const auto normal = exec.sampleWork(*model, 5, 1.0);
    const auto outlier = exec.sampleWork(*model, 5, 1.3);
    EXPECT_GT(outlier.nominal_duration.nanos(),
              normal.nominal_duration.nanos());
    EXPECT_LT(outlier.util.xcd_issue, normal.util.xcd_issue);
    EXPECT_GT(outlier.util.hbm_bw, normal.util.hbm_bw);
    EXPECT_DOUBLE_EQ(outlier.util.xcd_occupancy,
                     normal.util.xcd_occupancy);
}

// ---------------------------------------------------------------------------
// Non-square GEMM shapes
// ---------------------------------------------------------------------------

TEST(GemmShapes, TallSkinnyUsesSmallTileAndLowerEfficiency)
{
    const auto cfg = sim::mi300xConfig();
    const fk::GemmKernel square({8192, 8192, 8192, 2}, cfg);
    const fk::GemmKernel skinny({65536, 512, 8192, 2}, cfg);
    EXPECT_EQ(square.tileSize(), 256);
    EXPECT_EQ(skinny.tileSize(), 128);
    EXPECT_LT(skinny.achievedComputeUtilization(),
              square.achievedComputeUtilization());
}

TEST(GemmShapes, WideNarrowKClassifiesMemoryBound)
{
    // M=N=8192 with K=16: algorithmic op:byte ~ 16 << machine balance, so
    // the paper's classification says memory-bound — even though the
    // *model's* bottleneck for such a degenerate K is the MFMA prologue
    // (pipe efficiency collapses), which is also what real BLAS shows.
    const auto cfg = sim::mi300xConfig();
    const fk::GemmKernel thin({8192, 8192, 16, 2}, cfg);
    EXPECT_EQ(thin.boundedness(), fk::Boundedness::kMemoryBound);
    const auto w = thin.workAt(1.0);
    EXPECT_LE(w.util.llc_bw, 1.0);
    EXPECT_LE(w.util.hbm_bw, 1.0);
    EXPECT_LT(thin.achievedComputeUtilization(), 0.05);
}

TEST(GemmShapes, Fp32DoublesFootprint)
{
    const auto cfg = sim::mi300xConfig();
    const fk::GemmKernel h({4096, 4096, 4096, 2}, cfg);
    const fk::GemmKernel s({4096, 4096, 4096, 4}, cfg);
    EXPECT_EQ(s.workingSetBytes(), 2 * h.workingSetBytes());
    EXPECT_NEAR(s.opsPerByte(), h.opsPerByte() / 2.0, 1e-9);
}

TEST(GemmShapes, DurationMonotoneInEverySizeDimension)
{
    const auto cfg = sim::mi300xConfig();
    const auto dur = [&](std::int64_t m, std::int64_t n, std::int64_t k) {
        return fk::GemmKernel({m, n, k, 2}, cfg)
            .nominalDuration()
            .toSeconds();
    };
    EXPECT_LT(dur(4096, 4096, 4096), dur(8192, 4096, 4096));
    EXPECT_LT(dur(4096, 4096, 4096), dur(4096, 8192, 4096));
    EXPECT_LT(dur(4096, 4096, 4096), dur(4096, 4096, 8192));
}

// ---------------------------------------------------------------------------
// Profile trend mechanics
// ---------------------------------------------------------------------------

TEST(ProfileTrend, TimelineTrendsUseRunTimeAxis)
{
    fc::PowerProfile tl("T", fc::ProfileKind::kTimeline);
    for (int i = 0; i < 50; ++i) {
        fc::ProfilePoint p;
        p.run_time_us = i * 100.0;
        p.toi_us = 0.0;  // unused for timelines
        p.sample.total_w = 100.0 + 2.0 * p.run_time_us;
        tl.add(p);
    }
    const auto fit = tl.trend(fc::Rail::kTotal, 1);
    EXPECT_NEAR(fit.poly(1000.0), 2100.0, 1.0);
    EXPECT_GT(fit.r_squared, 0.999);
}

TEST(ProfileTrend, MinMaxAndRails)
{
    fc::PowerProfile p("T", fc::ProfileKind::kSsp);
    fc::ProfilePoint a;
    a.sample = {0, 100.0, 60.0, 25.0, 10.0};
    fc::ProfilePoint b;
    b.sample = {0, 300.0, 200.0, 55.0, 30.0};
    p.add(a);
    p.add(b);
    EXPECT_DOUBLE_EQ(p.minPower(fc::Rail::kTotal), 100.0);
    EXPECT_DOUBLE_EQ(p.maxPower(fc::Rail::kTotal), 300.0);
    EXPECT_DOUBLE_EQ(p.meanPower(fc::Rail::kXcd), 130.0);
    EXPECT_DOUBLE_EQ(p.meanPower(fc::Rail::kIod), 40.0);
    EXPECT_DOUBLE_EQ(p.meanPower(fc::Rail::kHbm), 20.0);
}
