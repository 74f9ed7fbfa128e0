/**
 * @file
 * Tests for the support core: logging severities, strong time types,
 * unit literals, the deterministic RNG and the exact exp memo.
 */

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "support/logging.hpp"
#include "support/memo_exp.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "support/time_types.hpp"
#include "support/units.hpp"

namespace fs = fingrav::support;
using namespace fingrav::support::literals;

namespace {

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/**
 * Arguments the memo must reproduce bit for bit: both zeros, subnormals
 * of both signs, the simulator's decay factors, the -700..0 range it
 * covers, and some repeats so every value is also served from a hit.
 */
std::vector<double>
memoExpProbe()
{
    using limits = std::numeric_limits<double>;
    std::vector<double> xs = {0.0,
                              -0.0,
                              limits::denorm_min(),
                              -limits::denorm_min(),
                              limits::min() / 4.0,
                              -limits::min() / 4.0,
                              limits::min(),
                              -limits::min(),
                              -1e-300,
                              -1.3333333333333333e-06,
                              -0.005,
                              -0.05,
                              -1.0,
                              -700.0};
    fs::Rng rng(77);
    for (int i = 0; i < 20000; ++i)
        xs.push_back(-rng.uniform(0.0, 700.0));
    for (int i = 0; i < 500; ++i)
        xs.push_back(xs[static_cast<std::size_t>(i) * 7]);
    return xs;
}

}  // namespace

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fs::fatal("bad config: ", 42), fs::FatalError);
}

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(fs::panic("broken invariant"), fs::PanicError);
}

TEST(Logging, AssertMacroFiresOnlyWhenFalse)
{
    EXPECT_NO_THROW(FINGRAV_ASSERT(1 + 1 == 2, "fine"));
    EXPECT_THROW(FINGRAV_ASSERT(1 + 1 == 3, "math broke"), fs::PanicError);
}

TEST(Logging, MessagesCarryPayload)
{
    try {
        fs::fatal("value=", 7, " name=", "x");
        FAIL() << "fatal did not throw";
    } catch (const fs::FatalError& e) {
        EXPECT_STREQ(e.what(), "value=7 name=x");
    }
}

TEST(TimeTypes, LiteralsAndConversions)
{
    EXPECT_EQ((1500_ns).nanos(), 1500);
    EXPECT_EQ((2_us).nanos(), 2000);
    EXPECT_EQ((1.5_us).nanos(), 1500);
    EXPECT_EQ((3_ms).nanos(), 3000000);
    EXPECT_EQ((1_sec).nanos(), 1000000000);
    EXPECT_DOUBLE_EQ((250_us).toMillis(), 0.25);
    EXPECT_DOUBLE_EQ((1_ms).toSeconds(), 1e-3);
}

TEST(TimeTypes, PointSpanAlgebra)
{
    const auto t0 = fs::SimTime::fromNanos(1000);
    const auto t1 = t0 + 5_us;
    EXPECT_EQ((t1 - t0).nanos(), 5000);
    EXPECT_EQ((t1 - 5_us), t0);
    EXPECT_LT(t0, t1);

    auto d = 10_us;
    d += 5_us;
    EXPECT_EQ(d.nanos(), 15000);
    d -= 5_us;
    EXPECT_EQ(d.nanos(), 10000);
    EXPECT_EQ((-d).nanos(), -10000);
    EXPECT_DOUBLE_EQ(d / 5_us, 2.0);
    EXPECT_EQ((d * 2.5).nanos(), 25000);
}

TEST(Units, ByteLiterals)
{
    using namespace fingrav::support::literals;
    EXPECT_EQ(64_KB, 64000);
    EXPECT_EQ(1_GB, 1000000000);
    EXPECT_EQ(256_MiB, 268435456);
    EXPECT_EQ(4_MiB, 4194304);
    EXPECT_EQ(192_GiB, 206158430208LL);
}

TEST(Rng, DeterministicAcrossInstances)
{
    fs::Rng a(99);
    fs::Rng b(99);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
}

TEST(Rng, ForkIndependence)
{
    fs::Rng parent(5);
    fs::Rng c1 = parent.fork(1);
    fs::Rng c2 = parent.fork(2);
    EXPECT_NE(c1.seed(), c2.seed());
    // Forking must be a pure function of (seed, id), not of draw state.
    fs::Rng parent2(5);
    EXPECT_EQ(parent2.fork(1).seed(), c1.seed());
}

TEST(Rng, LognormalJitterIsPositiveAndCentred)
{
    fs::Rng rng(2024);
    double acc = 0.0;
    for (int i = 0; i < 20000; ++i) {
        const double j = rng.lognormalJitter(0.02);
        EXPECT_GT(j, 0.0);
        acc += j;
    }
    EXPECT_NEAR(acc / 20000.0, 1.0, 0.01);
}

TEST(Rng, UniformIntBounds)
{
    fs::Rng rng(8);
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniformInt(3, 7);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 7);
    }
}

TEST(MemoExp, BitwiseEqualToStdExp)
{
    for (const double x : memoExpProbe()) {
        const double want = std::exp(x);
        EXPECT_TRUE(sameBits(fs::memoExp(x), want)) << x;
        EXPECT_TRUE(sameBits(fs::memoExp(x), want)) << x << " (repeat)";
    }
}

TEST(MemoExp, SlotCollisionsEvictExactly)
{
    // Arguments sharing one slot, called in turn, so every call evicts
    // the previous occupant: once around a governor decay argument, and
    // once in the slot of +0.0, the pair every slot starts out holding.
    for (const double anchor : {-0.05, 0.0}) {
        const std::size_t slot = fs::expMemoSlot(anchor);
        std::vector<double> same_slot = {anchor};
        for (double x = -1e-3; same_slot.size() < 8;
             x = std::nextafter(x, -1.0)) {
            if (fs::expMemoSlot(x) == slot)
                same_slot.push_back(x);
        }
        for (int round = 0; round < 4; ++round) {
            for (const double x : same_slot)
                EXPECT_TRUE(sameBits(fs::memoExp(x), std::exp(x))) << x;
        }
    }
}

TEST(MemoExp, ThreadsKeepPrivateExactTables)
{
    // Four threads walk the probe from different starting points, so
    // their tables hold different occupants at every moment; each must
    // still see exactly std::exp.
    const auto xs = memoExpProbe();
    std::vector<double> want;
    want.reserve(xs.size());
    for (const double x : xs)
        want.push_back(std::exp(x));
    constexpr std::size_t kThreads = 4;
    std::vector<std::size_t> mismatches(kThreads, 0);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int pass = 0; pass < 3; ++pass) {
                for (std::size_t k = 0; k < xs.size(); ++k) {
                    const std::size_t i =
                        (k + t * xs.size() / kThreads) % xs.size();
                    if (!sameBits(fs::memoExp(xs[i]), want[i]))
                        ++mismatches[t];
                }
            }
        });
    }
    for (auto& thread : threads)
        thread.join();
    for (std::size_t t = 0; t < kThreads; ++t)
        EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
}

TEST(TableWriter, AlignedOutputAndRowCheck)
{
    fs::TableWriter t({"kernel", "power"});
    t.addRow({"CB-8K-GEMM", fs::TableWriter::num(712.5, 1)});
    EXPECT_EQ(t.rowCount(), 1u);
    std::ostringstream oss;
    t.print(oss);
    const auto s = oss.str();
    EXPECT_NE(s.find("CB-8K-GEMM"), std::string::npos);
    EXPECT_NE(s.find("712.5"), std::string::npos);
    EXPECT_THROW(t.addRow({"only-one-cell"}), fs::FatalError);
}

TEST(CsvWriter, RowsAndNumericRows)
{
    fs::CsvWriter csv({"a", "b"});
    csv.addRow({"x", "y"});
    csv.addNumericRow({1.5, 2.25});
    std::ostringstream oss;
    csv.print(oss);
    EXPECT_EQ(oss.str(), "a,b\nx,y\n1.5,2.25\n");
    EXPECT_THROW(csv.addRow({"1", "2", "3"}), fs::FatalError);
}
