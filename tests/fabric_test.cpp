/**
 * @file
 * Tests for the Infinity-Fabric-style node interconnect: the per-kernel
 * pricing model (FabricModel) and the shared-node bandwidth arbiter
 * (NodeFabric), including the fair-share contention coupling between
 * devices of a Simulation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "kernels/collective.hpp"
#include "sim/fabric.hpp"
#include "sim/machine_config.hpp"
#include "sim/power_logger.hpp"
#include "sim/simulation.hpp"
#include "support/logging.hpp"
#include "support/units.hpp"

namespace fk = fingrav::kernels;
namespace fs = fingrav::support;
namespace sim = fingrav::sim;
using namespace fingrav::support::literals;

namespace {

sim::FabricModel
paperFabric()
{
    return sim::FabricModel::fromConfig(sim::mi300xConfig());
}

}  // namespace

TEST(Fabric, ConfigMapping)
{
    const auto f = paperFabric();
    EXPECT_EQ(f.gpus(), 8u);
    // 7 links x 64 GB/s at sub-unity efficiency.
    EXPECT_GT(f.achievableBandwidth(), 0.5 * 7.0 * 64e9);
    EXPECT_LT(f.achievableBandwidth(), 7.0 * 64e9);
}

TEST(Fabric, SmallAllGatherIsLatencyDominated)
{
    const auto f = paperFabric();
    const auto t = f.allGatherTime(64_KB);
    // alpha term: base + 7 hops; beta adds well under a microsecond.
    const double alpha_us =
        f.baseLatency().toMicros() + 7.0 * f.hopLatency().toMicros();
    EXPECT_NEAR(t.toMicros(), alpha_us, 1.0);
}

TEST(Fabric, LargeAllGatherApproachesBandwidthBound)
{
    const auto f = paperFabric();
    const auto t = f.allGatherTime(1_GB);
    const double beta_s = 1e9 * (7.0 / 8.0) / f.achievableBandwidth();
    EXPECT_NEAR(t.toSeconds(), beta_s, 0.05 * beta_s);
}

TEST(Fabric, AllReduceMovesTwiceTheData)
{
    const auto f = paperFabric();
    const double ag = f.allGatherTime(512_MB).toSeconds();
    const double ar = f.allReduceTime(512_MB).toSeconds();
    EXPECT_GT(ar, 1.8 * ag);
    EXPECT_LT(ar, 2.4 * ag);
}

TEST(Fabric, UtilizationIsBoundedAndScales)
{
    const auto f = paperFabric();
    const auto t = f.allGatherTime(1_GB);
    const double u = f.utilization(1_GB, t);
    EXPECT_GT(u, 0.5);
    EXPECT_LE(u, 1.0);
    // Tiny transfer over a long window: near-zero utilization.
    EXPECT_LT(f.utilization(64_KB, fs::Duration::millis(1.0)), 0.01);
    EXPECT_DOUBLE_EQ(f.utilization(64_KB, fs::Duration::nanos(0)), 0.0);
}

TEST(Fabric, Validation)
{
    EXPECT_THROW(sim::FabricModel(1, 7, 64e9), fs::FatalError);
    EXPECT_THROW(sim::FabricModel(8, 0, 64e9), fs::FatalError);
    EXPECT_THROW(sim::FabricModel(8, 7, 0.0), fs::FatalError);
    const auto f = paperFabric();
    EXPECT_THROW(f.allGatherTime(0), fingrav::support::PanicError);
    EXPECT_THROW(f.allReduceTime(-1), fingrav::support::PanicError);
}

TEST(Fabric, RingScalingWithNodeSize)
{
    // More GPUs move a larger fraction of the payload ((N-1)/N) but the
    // paper's fully-connected node also gives each GPU more links; at
    // fixed per-GPU links, the time grows with N through the alpha term.
    const sim::FabricModel small(2, 7, 64e9);
    const sim::FabricModel big(8, 7, 64e9);
    EXPECT_LT(small.allGatherTime(64_KB).toSeconds(),
              big.allGatherTime(64_KB).toSeconds());
}

// ---------------------------------------------------------------------------
// NodeFabric: the shared-node bandwidth arbiter
// ---------------------------------------------------------------------------

TEST(NodeFabric, GroupIdsAreFreshAndEpochTracksCommits)
{
    sim::NodeFabric fabric(sim::mi300xConfig(), 2);
    const auto g1 = fabric.allocGroup();
    const auto g2 = fabric.allocGroup();
    EXPECT_NE(g1, 0u);
    EXPECT_NE(g1, g2);

    EXPECT_EQ(fabric.epoch(), 0u);
    EXPECT_FALSE(fabric.commit());  // nothing posted: no new epoch
    EXPECT_EQ(fabric.epoch(), 0u);

    fabric.postDemand(0, {{g1, 0.7}});
    EXPECT_DOUBLE_EQ(fabric.nodeDemand(), 0.0);  // pending, not committed
    EXPECT_TRUE(fabric.commit());
    EXPECT_EQ(fabric.epoch(), 1u);
    EXPECT_DOUBLE_EQ(fabric.nodeDemand(), 0.7);

    EXPECT_FALSE(fabric.commit());  // unchanged view: epoch holds
    EXPECT_EQ(fabric.epoch(), 1u);

    fabric.postDemand(0, {});
    EXPECT_TRUE(fabric.commit());
    EXPECT_EQ(fabric.epoch(), 2u);
    EXPECT_DOUBLE_EQ(fabric.stretch(), 1.0);
}

TEST(NodeFabric, SharedDemandCountsEachTransferOnce)
{
    sim::NodeFabric fabric(sim::mi300xConfig(), 3);
    const auto a = fabric.allocGroup();  // spans devices 0 and 1
    const auto b = fabric.allocGroup();  // spans devices 1 and 2
    fabric.postDemand(0, {{a, 0.5}});
    fabric.postDemand(1, {{a, 0.5}, {b, 0.4}});
    fabric.postDemand(2, {{b, 0.4}});
    fabric.commit();

    // Device 0's copy of `a` must not contend with device 1's copy of
    // the same transfer; `b` counts once despite two copies.
    EXPECT_DOUBLE_EQ(fabric.sharedDemand(0, {{a, 0.5}}), 0.5 + 0.4);
    EXPECT_DOUBLE_EQ(fabric.sharedDemand(1, {{a, 0.5}, {b, 0.4}}),
                     0.5 + 0.4);
    // An idle bystander sees the full distinct-transfer load.
    EXPECT_DOUBLE_EQ(fabric.sharedDemand(2, {}), 0.5 + 0.4);
    EXPECT_DOUBLE_EQ(fabric.nodeDemand(), 0.9);
}

TEST(NodeFabric, CoupledTracksOutstandingTransfers)
{
    sim::NodeFabric fabric(sim::mi300xConfig(), 2);
    EXPECT_FALSE(fabric.coupled());
    fabric.noteSubmitted();
    fabric.noteSubmitted();
    EXPECT_TRUE(fabric.coupled());
    fabric.noteRetired();
    EXPECT_TRUE(fabric.coupled());
    fabric.noteRetired();
    EXPECT_FALSE(fabric.coupled());
}

// ---------------------------------------------------------------------------
// Fair-share contention between devices of a node
// ---------------------------------------------------------------------------

namespace {

/** Submit + drain helper: returns the execution duration on `device`. */
fs::Duration
runTransfer(sim::Simulation& s, const sim::KernelWork& work,
            std::size_t device, fs::SimTime at)
{
    const std::size_t before = s.device(device).executionLog().size();
    s.device(device).submit(work, at);
    s.advanceAllUntilIdle(at + fs::Duration::seconds(10.0));
    const auto& log = s.device(device).executionLog();
    EXPECT_EQ(log.size(), before + 1);
    return log.back().end - log.back().start;
}

}  // namespace

TEST(NodeFabric, ContendedAllReducePairFairShares)
{
    auto cfg = sim::mi300xConfig();
    cfg.node_gpus = 2;
    cfg.logger_noise_w = 0.0;
    const fk::CollectiveKernel ar(fk::CollectiveOp::kAllReduce, 512_MB,
                                  cfg);
    const auto work = ar.workAt(1.0);
    const double u = work.util.fabric_bw;
    ASSERT_GT(u, 0.55) << "512 MB all-reduce should be bandwidth-bound";
    const double stretch = 2.0 * u;  // two transfers at equal demand
    ASSERT_GT(stretch, 1.2);

    const auto t0 = fs::SimTime::fromNanos(1000);
    const auto limit = t0 + fs::Duration::seconds(10.0);

    // A window short enough that some window falls entirely inside the
    // collective (peak IOD then reads the transfer, not a partial mix),
    // and a post-drain advance so trailing windows flush.
    const auto window = fs::Duration::micros(250.0);

    // Back-to-back: the same two transfers, one after the other.
    double solo_iod_w = 0.0;
    fs::Duration solo;
    {
        sim::Simulation s(cfg, 77, 2);
        auto& logger = s.device(0).addLogger(window, 0.0);
        logger.start(fs::SimTime::fromNanos(0));
        auto first = work;
        first.fabric_group = s.fabric().allocGroup();
        solo = runTransfer(s, first, 0, t0);
        auto second = work;
        second.fabric_group = s.fabric().allocGroup();
        const auto solo2 =
            runTransfer(s, second, 1, s.device(0).localNow());
        // Fair share of an uncontended link is the whole link.
        EXPECT_NEAR(static_cast<double>(solo2.nanos()),
                    static_cast<double>(solo.nanos()),
                    0.02 * static_cast<double>(solo.nanos()));
        s.advanceAllTo(s.device(0).localNow() + fs::Duration::millis(1.0));
        ASSERT_FALSE(logger.samples().empty());
        for (const auto& sample : logger.samples())
            solo_iod_w = std::max(solo_iod_w, sample.iod_w);
    }

    // Contended: both transfers in flight at once on the shared fabric.
    double contended_iod_w = 0.0;
    std::pair<fs::Duration, fs::Duration> contended;
    {
        sim::Simulation s(cfg, 77, 2);
        auto& logger = s.device(0).addLogger(window, 0.0);
        logger.start(fs::SimTime::fromNanos(0));
        auto x = work;
        x.fabric_group = s.fabric().allocGroup();
        auto y = work;
        y.fabric_group = s.fabric().allocGroup();
        s.device(0).submit(x, t0);
        s.device(1).submit(y, t0);
        s.advanceAllUntilIdle(limit);
        ASSERT_EQ(s.device(0).executionLog().size(), 1u);
        ASSERT_EQ(s.device(1).executionLog().size(), 1u);
        const auto& e0 = s.device(0).executionLog().front();
        const auto& e1 = s.device(1).executionLog().front();
        contended = {e0.end - e0.start, e1.end - e1.start};
        s.advanceAllTo(s.device(0).localNow() + fs::Duration::millis(1.0));
        ASSERT_FALSE(logger.samples().empty());
        for (const auto& sample : logger.samples())
            contended_iod_w = std::max(contended_iod_w, sample.iod_w);
    }

    // Fair-share slowdown: both transfers stretch by the oversubscription
    // factor (equal demand, equal share).
    const double ratio0 = static_cast<double>(contended.first.nanos()) /
                          static_cast<double>(solo.nanos());
    const double ratio1 = static_cast<double>(contended.second.nanos()) /
                          static_cast<double>(solo.nanos());
    EXPECT_GT(ratio0, 1.25);
    EXPECT_NEAR(ratio0, stretch, 0.10 * stretch);
    EXPECT_NEAR(ratio1, stretch, 0.10 * stretch);

    // Conservation of transferred bytes: allocated bandwidth x time is
    // the same payload whether or not the transfer was contended.
    const double est_solo = u * solo.toSeconds();
    const double est_contended =
        (u / stretch) * contended.first.toSeconds();
    EXPECT_NEAR(est_contended / est_solo, 1.0, 0.08);

    // The contended phase saturates the links: higher IOD (SerDes) power.
    EXPECT_GT(contended_iod_w, solo_iod_w + 10.0);
}

TEST(NodeFabric, RetiredTransferReleasesItsShare)
{
    // Unequal transfers: when the short one retires, the long one must
    // finish its remainder uncontended — a retired transfer that kept
    // its committed demand would hold the survivor at full stretch.
    auto cfg = sim::mi300xConfig();
    cfg.node_gpus = 2;
    const fk::CollectiveKernel long_ar(fk::CollectiveOp::kAllReduce,
                                       512_MB, cfg);
    const fk::CollectiveKernel short_ar(fk::CollectiveOp::kAllReduce,
                                        128_MB, cfg);
    const auto long_work = long_ar.workAt(1.0);
    const auto short_work = short_ar.workAt(1.0);
    const double stretch =
        long_work.util.fabric_bw + short_work.util.fabric_bw;
    ASSERT_GT(stretch, 1.2);
    const auto t0 = fs::SimTime::fromNanos(1000);

    sim::Simulation solo(cfg, 55, 2);
    auto w = long_work;
    w.fabric_group = solo.fabric().allocGroup();
    const double d_solo =
        static_cast<double>(runTransfer(solo, w, 0, t0).nanos());

    sim::Simulation s(cfg, 55, 2);
    auto x = long_work;
    x.fabric_group = s.fabric().allocGroup();
    auto y = short_work;
    y.fabric_group = s.fabric().allocGroup();
    s.device(0).submit(x, t0);
    s.device(1).submit(y, t0);
    s.advanceAllUntilIdle(t0 + fs::Duration::seconds(10.0));
    ASSERT_EQ(s.device(0).executionLog().size(), 1u);
    const auto& e = s.device(0).executionLog().front();
    const double d_long = static_cast<double>((e.end - e.start).nanos());

    // Slower than solo (it was contended for a while), but clearly
    // faster than a full-duration stretch (the share came back).
    EXPECT_GT(d_long, 1.05 * d_solo);
    EXPECT_LT(d_long, 0.95 * stretch * d_solo);
    // The committed view is clean after the node drained and re-polled.
    s.advanceAllTo(s.device(0).localNow() + fs::Duration::micros(10.0));
    EXPECT_DOUBLE_EQ(s.fabric().nodeDemand(), 0.0);
}

TEST(NodeFabric, AlignedSiblingsCoupleDuringSingleDeviceDrain)
{
    // advanceDeviceUntilIdle with time-aligned siblings: the sibling's
    // transfer must ride along, retire, and release its share — a drain
    // that excludes time-aligned siblings would hold frozen demand.
    auto cfg = sim::mi300xConfig();
    cfg.node_gpus = 2;
    const fk::CollectiveKernel long_ar(fk::CollectiveOp::kAllReduce,
                                       512_MB, cfg);
    const fk::CollectiveKernel short_ar(fk::CollectiveOp::kAllReduce,
                                        128_MB, cfg);
    const auto long_work = long_ar.workAt(1.0);
    const auto short_work = short_ar.workAt(1.0);
    const double stretch =
        long_work.util.fabric_bw + short_work.util.fabric_bw;
    const auto t0 = fs::SimTime::fromNanos(1000);

    sim::Simulation solo(cfg, 63, 2);
    auto w = long_work;
    w.fabric_group = solo.fabric().allocGroup();
    const double d_solo =
        static_cast<double>(runTransfer(solo, w, 0, t0).nanos());

    sim::Simulation s(cfg, 63, 2);
    auto x = long_work;
    x.fabric_group = s.fabric().allocGroup();
    auto y = short_work;
    y.fabric_group = s.fabric().allocGroup();
    s.device(0).submit(x, t0);
    s.device(1).submit(y, t0);
    // Both devices sit at master time 0: exactly the aligned case.
    s.advanceDeviceUntilIdle(0, t0 + fs::Duration::seconds(10.0));
    ASSERT_TRUE(s.device(0).idle());
    const auto& e = s.device(0).executionLog().front();
    const double d_long = static_cast<double>((e.end - e.start).nanos());
    EXPECT_GT(d_long, 1.05 * d_solo);
    EXPECT_LT(d_long, 0.95 * stretch * d_solo);
}

TEST(NodeFabric, QueuedCollectiveBehindComputeTerminatesRemoteStretch)
{
    // Device 0 runs a non-fabric filler with a collective queued behind
    // it; device 1's collective is already in flight.  The epoch stepper
    // must cut at the filler's completion so device 1 gets re-priced for
    // the overlap — probing only queue fronts would let device 1 finish
    // at uncontended speed.
    auto cfg = sim::mi300xConfig();
    cfg.node_gpus = 2;
    const fk::CollectiveKernel ar(fk::CollectiveOp::kAllReduce, 512_MB,
                                  cfg);
    const auto work = ar.workAt(1.0);
    const auto t0 = fs::SimTime::fromNanos(1000);

    sim::Simulation solo(cfg, 81, 2);
    auto w = work;
    w.fabric_group = solo.fabric().allocGroup();
    const double d_solo =
        static_cast<double>(runTransfer(solo, w, 1, t0).nanos());

    sim::KernelWork filler;
    filler.nominal_duration = fs::Duration::micros(200.0);
    filler.freq_sensitivity = 0.0;
    filler.util.xcd_occupancy = 0.3;

    sim::Simulation s(cfg, 81, 2);
    auto x = work;
    x.fabric_group = s.fabric().allocGroup();
    auto y = work;
    y.fabric_group = s.fabric().allocGroup();
    s.device(0).submit(filler, t0);
    s.device(0).submit(x, t0);  // same queue: starts when filler drains
    s.device(1).submit(y, t0);
    s.advanceAllUntilIdle(t0 + fs::Duration::seconds(10.0));
    ASSERT_EQ(s.device(1).executionLog().size(), 1u);
    const auto& e = s.device(1).executionLog().front();
    const double d1 = static_cast<double>((e.end - e.start).nanos());
    // Contended from the filler's completion onward.
    EXPECT_GT(d1, 1.25 * d_solo);
}

TEST(NodeFabric, OneCollectiveDoesNotContendWithItself)
{
    auto cfg = sim::mi300xConfig();
    cfg.node_gpus = 2;
    const fk::CollectiveKernel ar(fk::CollectiveOp::kAllReduce, 512_MB,
                                  cfg);
    const auto work = ar.workAt(1.0);
    const auto t0 = fs::SimTime::fromNanos(1000);

    sim::Simulation solo(cfg, 91, 2);
    auto w_solo = work;
    w_solo.fabric_group = solo.fabric().allocGroup();
    const auto d_solo = runTransfer(solo, w_solo, 0, t0);

    // The same transfer id on both devices: one ring collective, the
    // copies are the same bytes on the same links — no self-contention,
    // bit-identical duration.
    sim::Simulation both(cfg, 91, 2);
    auto w_both = work;
    w_both.fabric_group = both.fabric().allocGroup();
    both.device(0).submit(w_both, t0);
    both.device(1).submit(w_both, t0);
    both.advanceAllUntilIdle(t0 + fs::Duration::seconds(10.0));
    ASSERT_EQ(both.device(0).executionLog().size(), 1u);
    const auto& e = both.device(0).executionLog().front();
    EXPECT_EQ((e.end - e.start).nanos(), d_solo.nanos());
}
