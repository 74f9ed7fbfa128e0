/**
 * @file
 * Tests for ClockDomain: affine clocks, drift and counter quantization.
 */

#include <cstdint>

#include <gtest/gtest.h>

#include "sim/clock_domain.hpp"
#include "support/logging.hpp"
#include "support/time_types.hpp"

namespace fs = fingrav::support;
namespace sim = fingrav::sim;
using namespace fingrav::support::literals;

TEST(ClockDomain, IdentityWithoutOffsetOrDrift)
{
    sim::ClockDomain clk(fs::Duration::nanos(0), 0.0, 1_ns);
    const auto t = fs::SimTime::fromNanos(123456789);
    EXPECT_EQ(clk.domainTime(t), t);
    EXPECT_EQ(clk.masterTime(t), t);
    EXPECT_EQ(clk.readCounter(t), 123456789);
}

TEST(ClockDomain, OffsetShiftsEpoch)
{
    sim::ClockDomain clk(fs::Duration::micros(5.0), 0.0, 1_ns);
    const auto t = fs::SimTime::fromNanos(1000);
    EXPECT_EQ(clk.domainTime(t).nanos(), 6000);
    EXPECT_EQ(clk.masterTime(fs::SimTime::fromNanos(6000)).nanos(), 1000);
}

TEST(ClockDomain, DriftAccumulates)
{
    // 4 ppm over one second = 4 us of divergence.
    sim::ClockDomain clk(fs::Duration::nanos(0), 4.0, 1_ns);
    const auto one_s = fs::SimTime::fromNanos(1'000'000'000);
    EXPECT_NEAR(static_cast<double>(clk.domainTime(one_s).nanos() -
                                    one_s.nanos()),
                4000.0, 1.0);
}

TEST(ClockDomain, RoundTripWithinOneNanosecond)
{
    sim::ClockDomain clk(fs::Duration::seconds(7.5), -3.2, 10_ns);
    for (std::int64_t ns : {0LL, 999LL, 5'000'000LL, 3'600'000'000'000LL}) {
        const auto t = fs::SimTime::fromNanos(ns);
        const auto back = clk.masterTime(clk.domainTime(t));
        EXPECT_NEAR(static_cast<double>(back.nanos() - t.nanos()), 0.0, 1.0)
            << "ns=" << ns;
    }
}

TEST(ClockDomain, CounterQuantization)
{
    sim::ClockDomain clk(fs::Duration::nanos(0), 0.0, 10_ns);
    EXPECT_EQ(clk.readCounter(fs::SimTime::fromNanos(99)), 9);
    EXPECT_EQ(clk.readCounter(fs::SimTime::fromNanos(100)), 10);
    EXPECT_EQ(clk.counterToNanos(10), 100);
}

TEST(ClockDomain, RejectsNonPositiveTick)
{
    EXPECT_THROW(sim::ClockDomain(fs::Duration::nanos(0), 0.0, 0_ns),
                 fs::FatalError);
}
