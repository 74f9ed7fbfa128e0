/**
 * @file
 * Tests for the support core: logging severities, strong time types,
 * unit literals, the deterministic RNG, the exact decay memo, the fault
 * plan grammar, the degradation journal and the thread pool.
 */

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "support/fault_injector.hpp"
#include "support/logging.hpp"
#include "support/memo_decay.hpp"
#include "support/rng.hpp"
#include "support/run_journal.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"
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

/** A decay key: stretch length and time constant, nanoseconds. */
using DecayKey = std::pair<std::int64_t, std::int64_t>;

/** The factor memoDecay must reproduce, computed without the memo. */
double
decayWant(const DecayKey& k)
{
    return std::exp(-(static_cast<double>(k.first) / 1e9) /
                    (static_cast<double>(k.second) / 1e9));
}

/**
 * Keys the memo must reproduce bit for bit: the entry every slot starts
 * out holding, the simulator's time constants (governor EMAs 40 and
 * 400 us, thermal RC 1.5 s) at the 2 us quantum and at random stretch
 * lengths, factors that round to 1 or underflow to 0, the extremes of
 * both counts, random pairs, and repeats so every key is also served
 * from a hit.
 */
std::vector<DecayKey>
memoDecayProbe()
{
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    const std::int64_t taus[] = {40'000, 400'000, 1'500'000'000};
    std::vector<DecayKey> keys = {
        {0, 1},       {1, 1},
        {1, kMax},    {kMax, 1},
        {kMax, kMax}, {1, 1'500'000'000},
        {700'000'000'000, 1'000'000'000},
        {746'000'000'000, 1'000'000'000}};
    for (const auto tau : taus) {
        keys.push_back({0, tau});
        keys.push_back({2'000, tau});
        keys.push_back({tau, tau});
    }
    fs::Rng rng(77);
    for (int i = 0; i < 20000; ++i) {
        const auto dt = rng.uniformInt(1, 10'000'000'000);
        const auto tau = i % 2 == 0 ? taus[i % 3]
                                    : rng.uniformInt(1, 10'000'000'000);
        keys.push_back({dt, tau});
    }
    for (int i = 0; i < 500; ++i)
        keys.push_back(keys[static_cast<std::size_t>(i) * 7]);
    return keys;
}

/** What `os << v` prints with default flags. */
std::string
streamGeneral(double v)
{
    std::ostringstream oss;
    oss << v;
    return oss.str();
}

/** What `os << std::fixed << std::setprecision(precision) << v` prints. */
std::string
streamFixed(double v, int precision)
{
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(precision) << v;
    return oss.str();
}

/**
 * Doubles the number formatters must print as a stream does: signed
 * zeros, the extremes, infinities and NaNs, round-half ties at one to
 * three decimals and at the units, then seeded random bit patterns
 * (every exponent, subnormals, NaN payloads) and seeded values in the
 * range reports print.
 */
std::vector<double>
formatProbe()
{
    using limits = std::numeric_limits<double>;
    std::vector<double> values = {
        0.0,          -0.0,           limits::max(),  -limits::max(),
        limits::min(), -limits::min(), limits::denorm_min(),
        limits::infinity(), -limits::infinity(), limits::quiet_NaN(),
        -limits::quiet_NaN(), 0.05,   0.15,           0.25,
        0.5,          1.5,            2.5,            712.45,
        999999.5,     9999995.0,      1e15,           1e16,
        123456789.0,  0.0001,         0.00001,        1e-5 / 3.0};
    fs::Rng rng(2028);
    for (int i = 0; i < 4000; ++i) {
        values.push_back(std::bit_cast<double>(static_cast<std::uint64_t>(
            rng.uniformInt(std::numeric_limits<std::int64_t>::min(),
                           std::numeric_limits<std::int64_t>::max()))));
    }
    for (int i = 0; i < 4000; ++i) {
        values.push_back(rng.uniform(-1e6, 1e6));
        values.push_back(static_cast<double>(rng.uniformInt(-20000, 20000)) /
                         20.0);
    }
    return values;
}

/**
 * The table TableWriter::print rendered through stream manipulators:
 * each cell left-aligned in its column's width plus two, and a dash
 * rule under the headers.
 */
std::string
streamTable(const std::vector<std::string>& headers,
            const std::vector<std::vector<std::string>>& rows)
{
    std::vector<std::size_t> widths(headers.size());
    for (std::size_t c = 0; c < headers.size(); ++c)
        widths[c] = headers[c].size();
    for (const auto& row : rows) {
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }
    std::ostringstream oss;
    const auto emit = [&](const std::vector<std::string>& row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            oss << std::left << std::setw(static_cast<int>(widths[c]) + 2)
                << row[c];
        }
        oss << "\n";
    };
    emit(headers);
    std::size_t total = 0;
    for (const std::size_t w : widths)
        total += w + 2;
    oss << std::string(total, '-') << "\n";
    for (const auto& row : rows)
        emit(row);
    return oss.str();
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

TEST(MemoDecay, BitwiseEqualToStdExp)
{
    for (const auto& k : memoDecayProbe()) {
        const double want = decayWant(k);
        EXPECT_TRUE(sameBits(fs::memoDecay(k.first, k.second), want))
            << k.first << "/" << k.second;
        EXPECT_TRUE(sameBits(fs::memoDecay(k.first, k.second), want))
            << k.first << "/" << k.second << " (repeat)";
    }
}

TEST(MemoDecay, SlotCollisionsEvictExactly)
{
    // Keys sharing one slot, called in turn, so every call evicts the
    // previous occupant: once around a governor quantum key, and once in
    // the slot of (0, 1), the entry every slot starts out holding.  The
    // colliders vary the length, the time constant, or both.
    for (const DecayKey anchor : {DecayKey{2'000, 40'000}, DecayKey{0, 1}}) {
        const std::size_t slot = fs::decayMemoSlot(anchor.first, anchor.second);
        std::vector<DecayKey> same_slot = {anchor};
        for (std::int64_t n = 1; same_slot.size() < 12; ++n) {
            for (const DecayKey k : {DecayKey{anchor.first + n, anchor.second},
                                     DecayKey{anchor.first, anchor.second + n},
                                     DecayKey{n, 400'000 + n}}) {
                if (fs::decayMemoSlot(k.first, k.second) == slot)
                    same_slot.push_back(k);
            }
        }
        for (int round = 0; round < 4; ++round) {
            for (const auto& k : same_slot) {
                EXPECT_TRUE(
                    sameBits(fs::memoDecay(k.first, k.second), decayWant(k)))
                    << k.first << "/" << k.second;
            }
        }
    }
}

TEST(MemoDecay, ThreadsKeepPrivateExactTables)
{
    // Four threads walk the probe from different starting points, so
    // their tables hold different occupants at every moment; each must
    // still see exactly the unmemoized factor.
    const auto keys = memoDecayProbe();
    std::vector<double> want;
    want.reserve(keys.size());
    for (const auto& k : keys)
        want.push_back(decayWant(k));
    constexpr std::size_t kThreads = 4;
    std::vector<std::size_t> mismatches(kThreads, 0);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int pass = 0; pass < 3; ++pass) {
                for (std::size_t j = 0; j < keys.size(); ++j) {
                    const std::size_t i =
                        (j + t * keys.size() / kThreads) % keys.size();
                    if (!sameBits(fs::memoDecay(keys[i].first, keys[i].second),
                                  want[i]))
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

TEST(TableWriter, NumberFormattersMatchTheStream)
{
    const int precisions[] = {-1, 0, 1, 2, 3, 6, 17, 30};
    std::size_t mismatches = 0;
    for (const double v : formatProbe()) {
        std::string general = "x";
        fs::appendGeneral(general, v);
        if (general != "x" + streamGeneral(v)) {
            ++mismatches;
            ADD_FAILURE() << "general " << streamGeneral(v) << " printed as "
                          << general.substr(1);
        }
        for (const int p : precisions) {
            const std::string want = streamFixed(v, p);
            std::string fixed = "x";
            fs::appendFixed(fixed, v, p);
            const std::string num = fs::TableWriter::num(v, p);
            if (fixed != "x" + want || num != want) {
                ++mismatches;
                ADD_FAILURE() << "fixed " << p << ": " << want
                              << " printed as " << fixed.substr(1) << " / "
                              << num;
            }
            if (mismatches > 10)
                return;
        }
    }
    // DBL_MAX at 30 decimals is 340 characters: nothing is truncated.
    EXPECT_EQ(fs::TableWriter::num(std::numeric_limits<double>::max(), 30)
                  .size(),
              309u + 1u + 30u);
}

TEST(TableWriter, PrintMatchesTheStreamRenderingOnRaggedColumns)
{
    const std::vector<std::string> headers = {"kernel", "p", "",
                                              "a long heading"};
    const std::vector<std::vector<std::string>> rows = {
        {"CB-8K-GEMM", "712.5", "x", ""},
        {"", "a cell wider than its heading", "", "1"},
        {"AR-512MB-under-demand", "", "yy", "22"},
    };
    fs::TableWriter table(headers);
    for (const auto& row : rows)
        table.addRow(row);
    std::ostringstream oss;
    table.print(oss);
    EXPECT_EQ(oss.str(), streamTable(headers, rows));

    fs::TableWriter empty({"only"});
    std::ostringstream none;
    empty.print(none);
    EXPECT_EQ(none.str(), streamTable({"only"}, {}));
}

TEST(TableWriter, PrintLeavesTheStreamFlagsAlone)
{
    // A table must not leave std::left behind: a field printed after it
    // keeps the stream's right alignment.
    fs::TableWriter table({"a", "bb"});
    table.addRow({"1", "2"});
    std::ostringstream oss;
    table.print(oss);
    const std::string rendered = oss.str();
    oss << std::setw(4) << 7;
    EXPECT_EQ(oss.str(), rendered + "   7");
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

TEST(FaultPlan, ParsesWildcardsAndRoundTrips)
{
    const auto plan = fs::FaultPlan::parse(
        "kill:shard=0,frame=1;spawn-fail:times=*;stall:frame=2,ms=250");
    ASSERT_EQ(plan.actions.size(), 3u);
    EXPECT_EQ(plan.actions[0].kind, fs::FaultKind::kKillWorker);
    EXPECT_EQ(plan.actions[0].shard, 0);
    EXPECT_EQ(plan.actions[0].frame, 1);
    EXPECT_EQ(plan.actions[1].kind, fs::FaultKind::kSpawnFail);
    EXPECT_EQ(plan.actions[1].times, fs::FaultAction::kAny);
    EXPECT_EQ(plan.actions[2].kind, fs::FaultKind::kStallPipe);
    EXPECT_EQ(plan.actions[2].stall_ms, 250);

    // toString must round-trip through parse to the same plan text.
    const auto text = plan.toString();
    EXPECT_EQ(fs::FaultPlan::parse(text).toString(), text);
}

TEST(FaultPlan, MalformedPlansAreFatal)
{
    EXPECT_THROW(fs::FaultPlan::parse("explode"), fs::FatalError);
    EXPECT_THROW(fs::FaultPlan::parse("kill:shard=abc"), fs::FatalError);
    EXPECT_THROW(fs::FaultPlan::parse("kill:wibble=1"), fs::FatalError);
}

TEST(FaultPlan, WorkerSubPlanStripsDriverCoordinates)
{
    // The driver hands each worker the sub-plan scripted for its
    // (seat, spawn generation); both are resolved at derivation time,
    // so the worker matches on frame index alone.
    const fs::FaultInjector injector(
        fs::FaultPlan::parse("kill:shard=1,frame=2;corrupt:shard=0"));
    EXPECT_EQ(injector.workerPlan(1, 0), "kill:frame=2");
    EXPECT_EQ(injector.workerPlan(0, 0), "corrupt");
    EXPECT_EQ(injector.workerPlan(2, 0), "");
    // Spawn failures are a driver-side site, never shipped to workers.
    const fs::FaultInjector spawn(fs::FaultPlan::parse("spawn-fail"));
    EXPECT_EQ(spawn.workerPlan(0, 0), "");
}

TEST(RunJournal, RecordsCountsAndReports)
{
    fs::RunJournal journal;
    EXPECT_TRUE(journal.empty());
    journal.record(fs::DegradeKind::kWorkerDeath, "seat ", 0, ": died");
    journal.record(fs::DegradeKind::kRetry, "slot 1");
    EXPECT_EQ(journal.size(), 2u);
    EXPECT_EQ(journal.count(fs::DegradeKind::kWorkerDeath), 1u);
    EXPECT_EQ(journal.count(fs::DegradeKind::kQuarantine), 0u);
    const auto report = journal.report();
    EXPECT_NE(report.find("worker-death"), std::string::npos);
    EXPECT_NE(report.find("seat 0: died"), std::string::npos);

    // Copies snapshot the events (the journal rides inside FleetStats).
    const fs::RunJournal copy = journal;
    EXPECT_EQ(copy.size(), 2u);
}

TEST(ThreadPool, RunsEveryItemExactlyOnce)
{
    fs::ThreadPool pool(4);
    EXPECT_EQ(pool.threads(), 4u);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(hits.size(),
                     [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossJobs)
{
    fs::ThreadPool pool(3);
    std::atomic<int> sum{0};
    for (int round = 0; round < 50; ++round)
        pool.parallelFor(10, [&](std::size_t) { sum.fetch_add(1); });
    EXPECT_EQ(sum.load(), 500);
}

TEST(ThreadPool, SerialFallbackAndEmptyJob)
{
    fs::ThreadPool pool(1);  // no workers: caller runs everything
    EXPECT_EQ(pool.threads(), 1u);
    int count = 0;
    pool.parallelFor(5, [&](std::size_t) { ++count; });
    EXPECT_EQ(count, 5);
    pool.parallelFor(0, [&](std::size_t) { ++count; });
    EXPECT_EQ(count, 5);
}

TEST(ThreadPool, PropagatesItemExceptions)
{
    fs::ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(64,
                                  [](std::size_t i) {
                                      if (i == 13)
                                          throw std::runtime_error("boom");
                                  }),
                 std::runtime_error);
    // The pool survives a throwing job.
    std::atomic<int> ok{0};
    pool.parallelFor(8, [&](std::size_t) { ok.fetch_add(1); });
    EXPECT_EQ(ok.load(), 8);
}
