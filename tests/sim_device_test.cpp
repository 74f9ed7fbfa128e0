/**
 * @file
 * Tests for GpuDevice (execution engine + power integration) and
 * PowerLogger (windowed averaging), including the conservation property:
 * with zero measurement noise, each logger sample is the exact time-average
 * of instantaneous power over its window, and the remembered stretch cut
 * a logger imposes equals the cut computed from scratch.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "sim/gpu_device.hpp"
#include "sim/machine_config.hpp"
#include "sim/power_logger.hpp"
#include "sim/simulation.hpp"
#include "support/logging.hpp"
#include "support/rng.hpp"
#include "support/time_types.hpp"

namespace fs = fingrav::support;
namespace sim = fingrav::sim;
using namespace fingrav::support::literals;

namespace {

sim::MachineConfig
quietConfig()
{
    auto cfg = sim::mi300xConfig();
    cfg.logger_noise_w = 0.0;
    return cfg;
}

/** A memory-like kernel: frequency-insensitive, so durations are exact. */
sim::KernelWork
fixedKernel(fs::Duration d)
{
    sim::KernelWork w;
    w.label = "fixed";
    w.nominal_duration = d;
    w.freq_sensitivity = 0.0;
    w.util.xcd_occupancy = 0.2;
    w.util.xcd_issue = 0.1;
    w.util.llc_bw = 0.5;
    w.util.hbm_bw = 0.2;
    return w;
}

/** A compute-like kernel whose progress scales with the engine clock. */
sim::KernelWork
computeKernel(fs::Duration d)
{
    sim::KernelWork w;
    w.label = "compute";
    w.nominal_duration = d;
    w.freq_sensitivity = 0.95;
    w.util.xcd_occupancy = 0.95;
    w.util.xcd_issue = 0.82;
    w.util.llc_bw = 0.60;
    w.util.hbm_bw = 0.32;
    return w;
}

}  // namespace

TEST(GpuDevice, StartsIdle)
{
    sim::Simulation s(quietConfig(), 42, 1);
    EXPECT_TRUE(s.device(0).idle());
    EXPECT_EQ(s.device(0).executionLog().size(), 0u);
}

TEST(GpuDevice, ExecutesFixedKernelExactly)
{
    sim::Simulation s(quietConfig(), 42, 1);
    auto& dev = s.device(0);
    const auto id =
        dev.submit(fixedKernel(100_us), fs::SimTime::fromNanos(10'000));
    const auto done = dev.advanceUntilIdle(fs::SimTime::fromNanos(10'000'000));
    ASSERT_EQ(dev.executionLog().size(), 1u);
    const auto& rec = dev.executionLog().front();
    EXPECT_EQ(rec.id, id);
    EXPECT_EQ(rec.start.nanos(), 10'000);  // honours ready_at
    // Frequency-insensitive: duration is exact up to ns rounding.
    EXPECT_NEAR(static_cast<double>((rec.end - rec.start).nanos()), 100'000.0,
                16.0);
    EXPECT_EQ(done, rec.end);
    EXPECT_TRUE(dev.idle());
}

TEST(GpuDevice, QueueRunsInOrder)
{
    sim::Simulation s(quietConfig(), 42, 1);
    auto& dev = s.device(0);
    dev.submit(fixedKernel(50_us), fs::SimTime::fromNanos(0));
    dev.submit(fixedKernel(30_us), fs::SimTime::fromNanos(0));
    dev.advanceUntilIdle(fs::SimTime::fromNanos(50'000'000));
    ASSERT_EQ(dev.executionLog().size(), 2u);
    const auto& a = dev.executionLog()[0];
    const auto& b = dev.executionLog()[1];
    EXPECT_LE(a.end, b.start);  // strictly serialized
    EXPECT_NEAR(static_cast<double>((b.end - b.start).nanos()), 30'000.0, 16.0);
}

TEST(GpuDevice, ThrottledComputeKernelSettlesBelowBoost)
{
    // A compute kernel heavy enough to trigger the excursion response: the
    // first execution mostly enjoys boost clocks, the throttle bites during
    // the following executions, and the run settles at a sustained
    // operating point slower than nominal with stable execution times.
    sim::Simulation s(quietConfig(), 42, 1);
    auto& dev = s.device(0);
    constexpr int kExecs = 24;
    for (int i = 0; i < kExecs; ++i)
        dev.submit(computeKernel(1000_us), fs::SimTime::fromNanos(0));
    dev.advanceUntilIdle(fs::SimTime::fromNanos(100'000'000));
    ASSERT_EQ(dev.executionLog().size(),
              static_cast<std::size_t>(kExecs));
    const auto dur = [&](std::size_t i) {
        const auto& r = dev.executionLog()[i];
        return (r.end - r.start).toMicros();
    };
    EXPECT_GE(s.device(0).governor().excursionCount(), 1u);
    // Steady state runs below nominal frequency: longer than 1000 us.
    EXPECT_GT(dur(kExecs - 1), 1000.0);
    // The deep-throttle phase (shortly after the excursion) is slower than
    // the settled steady state.
    double peak_dur = 0.0;
    for (std::size_t i = 1; i < 6; ++i)
        peak_dur = std::max(peak_dur, dur(i));
    EXPECT_GT(peak_dur, dur(kExecs - 1));
    // Settled: consecutive late executions agree within 2 %.
    EXPECT_NEAR(dur(kExecs - 1), dur(kExecs - 2), dur(kExecs - 2) * 0.02);
}

TEST(GpuDevice, BoostMakesUnthrottledKernelFasterThanNominal)
{
    // A light compute kernel never throttles, so it runs at boost (1.05x)
    // and finishes ~5 % faster than its nominal (f == 1.0) duration.
    auto cfg = quietConfig();
    sim::Simulation s(cfg, 42, 1);
    auto& dev = s.device(0);
    sim::KernelWork w = computeKernel(100_us);
    w.util.xcd_occupancy = 0.4;  // light: stays below every power limit
    w.util.xcd_issue = 0.3;
    dev.submit(w, fs::SimTime::fromNanos(0));
    dev.advanceUntilIdle(fs::SimTime::fromNanos(10'000'000));
    ASSERT_EQ(dev.executionLog().size(), 1u);
    const auto& rec = dev.executionLog().front();
    const double us = (rec.end - rec.start).toMicros();
    const double expected = 100.0 / (0.05 + 0.95 * cfg.dvfs.boost_ratio);
    EXPECT_NEAR(us, expected, 1.0);
}

TEST(GpuDevice, ConcurrentQueuesOverlapAndContend)
{
    sim::Simulation s(quietConfig(), 42, 1);
    auto& dev = s.device(0);
    // Two memory streams each demanding 70 % of HBM bandwidth: together
    // they oversubscribe (1.4x), so each must slow down by ~1.4x.
    sim::KernelWork w = fixedKernel(100_us);
    w.util.hbm_bw = 0.7;
    w.util.llc_bw = 0.1;
    dev.submit(w, fs::SimTime::fromNanos(0), 0);
    dev.submit(w, fs::SimTime::fromNanos(0), 1);
    dev.advanceUntilIdle(fs::SimTime::fromNanos(100'000'000));
    ASSERT_EQ(dev.executionLog().size(), 2u);
    for (const auto& rec : dev.executionLog()) {
        EXPECT_NEAR((rec.end - rec.start).toMicros(), 140.0, 2.0)
            << rec.label;
    }
    // And they genuinely overlapped.
    const auto& a = dev.executionLog()[0];
    const auto& b = dev.executionLog()[1];
    EXPECT_LT(a.start, b.end);
    EXPECT_LT(b.start, a.end);
}

TEST(GpuDevice, SubmitValidation)
{
    sim::Simulation s(quietConfig(), 42, 1);
    sim::KernelWork w = fixedKernel(0_us);
    EXPECT_THROW(s.device(0).submit(w, fs::SimTime::fromNanos(0)),
                 fs::FatalError);
    EXPECT_THROW(
        s.device(0).submit(fixedKernel(1_us), fs::SimTime::fromNanos(0), 99),
        fs::FatalError);
}

TEST(PowerLogger, WindowAverageIsExactForConstantPower)
{
    // Stand-alone logger fed constant-power slices: every sample must be
    // exactly that power (conservation of the averaging semantics).
    sim::ClockDomain clk(fs::Duration::seconds(3.0), 4.0, 10_ns);
    sim::PowerLogger logger(1_ms, clk, /*noise_w=*/0.0, fs::Rng(1));
    logger.start(fs::SimTime::fromNanos(0));
    sim::RailPower rails{100.0, 50.0, 25.0, 10.0};
    auto t = fs::SimTime::fromNanos(0);
    for (int i = 0; i < 3000; ++i) {
        logger.addSlice(t, 2_us, rails);
        t += 2_us;
    }
    ASSERT_GE(logger.samples().size(), 4u);
    for (const auto& s : logger.samples()) {
        EXPECT_NEAR(s.xcd_w, 100.0, 1e-6);
        EXPECT_NEAR(s.iod_w, 50.0, 1e-6);
        EXPECT_NEAR(s.hbm_w, 25.0, 1e-6);
        EXPECT_NEAR(s.total_w, 185.0, 1e-6);
    }
}

TEST(PowerLogger, SamplesArriveOncePerWindow)
{
    sim::ClockDomain clk(fs::Duration::nanos(0), 0.0, 10_ns);
    sim::PowerLogger logger(1_ms, clk, 0.0, fs::Rng(1));
    logger.start(fs::SimTime::fromNanos(0));
    sim::RailPower rails{10.0, 10.0, 10.0, 10.0};
    auto t = fs::SimTime::fromNanos(0);
    for (int i = 0; i < 5500; ++i) {  // 11 ms of 2 us slices
        logger.addSlice(t, 2_us, rails);
        t += 2_us;
    }
    // Capture starts at the next 1 ms boundary, so 11 ms of feed yields 10
    // full windows.
    EXPECT_EQ(logger.samples().size(), 10u);
    // Timestamps are spaced exactly one window apart (in counter ticks).
    const auto& ss = logger.samples();
    for (std::size_t i = 1; i < ss.size(); ++i) {
        EXPECT_EQ((ss[i].gpu_timestamp - ss[i - 1].gpu_timestamp) *
                      clk.tick().nanos(),
                  1'000'000);
    }
}

TEST(PowerLogger, MixedWindowAveragesProportionally)
{
    // 0.25 ms of 400 W followed by 0.75 ms of 100 W inside one window
    // must read 175 W.
    sim::ClockDomain clk(fs::Duration::nanos(0), 0.0, 10_ns);
    sim::PowerLogger logger(1_ms, clk, 0.0, fs::Rng(1));
    logger.start(fs::SimTime::fromNanos(0));
    // Capture begins at gpu-ns 1'000'000.
    sim::RailPower high{400.0, 0.0, 0.0, 0.0};
    sim::RailPower low{100.0, 0.0, 0.0, 0.0};
    logger.addSlice(fs::SimTime::fromNanos(1'000'000), 250_us, high);
    logger.addSlice(fs::SimTime::fromNanos(1'250'000), 750_us, low);
    ASSERT_EQ(logger.samples().size(), 1u);
    EXPECT_NEAR(logger.samples()[0].xcd_w, 175.0, 1e-6);
}

TEST(PowerLogger, StopDiscardsPartialWindow)
{
    sim::ClockDomain clk(fs::Duration::nanos(0), 0.0, 10_ns);
    sim::PowerLogger logger(1_ms, clk, 0.0, fs::Rng(1));
    logger.start(fs::SimTime::fromNanos(0));
    sim::RailPower rails{10.0, 0.0, 0.0, 0.0};
    logger.addSlice(fs::SimTime::fromNanos(1'000'000), 500_us, rails);
    logger.stop();
    EXPECT_TRUE(logger.samples().empty());
    EXPECT_FALSE(logger.capturing());
}

TEST(PowerLogger, RejectsNonPositiveWindow)
{
    sim::ClockDomain clk(fs::Duration::nanos(0), 0.0, 10_ns);
    EXPECT_THROW(sim::PowerLogger(0_ms, clk, 0.0, fs::Rng(1)),
                 fs::FatalError);
}

namespace {

/**
 * The logger cut computed from scratch: the first master nanosecond at
 * which the GPU clock reaches the window-grid boundary after `now` (what
 * the device computed every stretch before the cut was remembered).
 */
fs::SimTime
uncachedCut(const sim::ClockDomain& clk, fs::Duration window, fs::SimTime now)
{
    const std::int64_t w = window.nanos();
    const std::int64_t boundary = (clk.domainTime(now).nanos() / w + 1) * w;
    auto cut = clk.masterTime(fs::SimTime::fromNanos(boundary));
    while (clk.domainTime(cut).nanos() < boundary)
        cut += fs::Duration::nanos(1);
    return cut;
}

}  // namespace

TEST(PowerLogger, RememberedCutMatchesUncachedComputation)
{
    // Random clock offsets (the device's boot-time range), drifts,
    // counter ticks and windows; the query time walks onto the cut, one
    // nanosecond short of it, by a little, by several windows, and now
    // and then back in time, while capture stops and restarts.
    fs::Rng rng(31337);
    for (int trial = 0; trial < 300; ++trial) {
        const sim::ClockDomain clk(
            fs::Duration::nanos(rng.uniformInt(1'000'000'000'000,
                                               90'000'000'000'000)),
            rng.uniform(-200.0, 200.0),
            fs::Duration::nanos(rng.uniformInt(1, 40)));
        const auto window = fs::Duration::nanos(rng.uniformInt(1, 20'000'000));
        sim::PowerLogger logger(window, clk, 0.0, fs::Rng(1));
        auto now = fs::SimTime::fromNanos(rng.uniformInt(0, 5'000'000'000));
        for (int step = 0; step < 200; ++step) {
            if (rng.bernoulli(0.05)) {
                if (logger.capturing())
                    logger.stop();
                else
                    logger.start(now);
            }
            const auto want = uncachedCut(clk, window, now);
            ASSERT_EQ(logger.nextWindowEndMaster(now), want)
                << "trial " << trial << " step " << step;
            switch (rng.uniformInt(0, 4)) {
              case 0:
                now = want;
                break;
              case 1:
                now = std::max(now, want - fs::Duration::nanos(1));
                break;
              case 2:
                now += fs::Duration::nanos(rng.uniformInt(0, 2'000));
                break;
              case 3:
                now += fs::Duration::nanos(
                    rng.uniformInt(0, 5 * window.nanos()));
                break;
              default: {
                const auto back =
                    now - fs::Duration::nanos(rng.uniformInt(1, 3'000));
                EXPECT_EQ(logger.nextWindowEndMaster(back),
                          uncachedCut(clk, window, back));
                break;
              }
            }
        }
    }
}

TEST(GpuDeviceLogger, DeviceSamplesMatchComputedPowerWhileIdle)
{
    auto cfg = quietConfig();
    sim::Simulation s(cfg, 7, 1);
    auto& dev = s.device(0);
    auto& logger = dev.addLogger(1_ms, 0.0);
    logger.start(dev.localNow());
    dev.advanceTo(fs::SimTime::fromNanos(10'000'000));
    ASSERT_GE(logger.samples().size(), 8u);
    // Idle power at the parked clock and ambient-ish temperature.
    const auto idle = dev.currentPower();
    for (const auto& smp : logger.samples())
        EXPECT_NEAR(smp.total_w, idle.total(), 1.5);
}

TEST(GpuDeviceLogger, EnergyConservationAcrossBusyAndIdle)
{
    // The sum of sample energies must equal the energy of the underlying
    // activity: run one fixed kernel inside an otherwise idle capture and
    // compare against idle-baseline + kernel-delta energy bounds.
    auto cfg = quietConfig();
    sim::Simulation s(cfg, 7, 1);
    auto& dev = s.device(0);
    auto& logger = dev.addLogger(1_ms, 0.0);
    logger.start(dev.localNow());
    dev.advanceTo(fs::SimTime::fromNanos(2'000'000));
    const double idle_total = dev.currentPower().total();

    dev.submit(fixedKernel(3000_us), fs::SimTime::fromNanos(2'000'000));
    dev.advanceUntilIdle(fs::SimTime::fromNanos(50'000'000));
    dev.advanceTo(fs::SimTime::fromNanos(10'000'000));

    ASSERT_EQ(dev.executionLog().size(), 1u);
    double sampled_j = 0.0;
    for (const auto& smp : logger.samples())
        sampled_j += smp.total_w * 1e-3;  // 1 ms windows

    // Busy power while running the fixed kernel:
    const double busy_total = 300.0;  // loose upper bound for this util
    const double span_s = 9e-3;       // ~9 windows captured
    EXPECT_GT(sampled_j, idle_total * span_s * 0.95);
    EXPECT_LT(sampled_j, (idle_total + busy_total) * span_s);
}
