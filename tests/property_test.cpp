/**
 * @file
 * Property-based parameterized suites over the simulator and methodology
 * invariants: clock-domain algebra under swept drift, logger conservation
 * under swept windows, sync accuracy under swept read delays, binning
 * monotonicity, roofline classification across the size spectrum, and
 * collective cost-model monotonicity.
 */

#include <cstdint>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "fingrav/binning.hpp"
#include "fingrav/time_sync.hpp"
#include "kernels/collective.hpp"
#include "kernels/gemm.hpp"
#include "kernels/workloads.hpp"
#include "runtime/host_runtime.hpp"
#include "sim/clock_domain.hpp"
#include "sim/machine_config.hpp"
#include "sim/power_logger.hpp"
#include "sim/simulation.hpp"
#include "support/rng.hpp"
#include "support/time_types.hpp"
#include "support/units.hpp"

namespace fc = fingrav::core;
namespace fk = fingrav::kernels;
namespace fs = fingrav::support;
namespace rt = fingrav::runtime;
namespace sim = fingrav::sim;
using namespace fingrav::support::literals;

// ---------------------------------------------------------------------------
// Clock domains: affine algebra holds for any drift/offset combination.
// ---------------------------------------------------------------------------

class ClockDriftSweep : public ::testing::TestWithParam<double> {};

TEST_P(ClockDriftSweep, RoundTripAndDriftAccumulation)
{
    const double ppm = GetParam();
    sim::ClockDomain clk(fs::Duration::seconds(123.0), ppm, 10_ns);
    for (std::int64_t ns : {0LL, 1'000'000LL, 3'600'000'000'000LL}) {
        const auto t = fs::SimTime::fromNanos(ns);
        const auto back = clk.masterTime(clk.domainTime(t));
        EXPECT_NEAR(static_cast<double>(back.nanos() - ns), 0.0, 1.0);
    }
    // One second of master time accumulates ppm nanoseconds of divergence
    // beyond the offset.
    const auto d0 = clk.domainTime(fs::SimTime::fromNanos(0));
    const auto d1 = clk.domainTime(fs::SimTime::fromNanos(1'000'000'000));
    EXPECT_NEAR(static_cast<double>((d1 - d0).nanos()) - 1e9, ppm * 1e3,
                2.0);
}

INSTANTIATE_TEST_SUITE_P(Drifts, ClockDriftSweep,
                         ::testing::Values(-50.0, -4.0, 0.0, 4.0, 50.0,
                                           400.0));

// ---------------------------------------------------------------------------
// Power logger: window averages are exact for any window length and drift.
// ---------------------------------------------------------------------------

class LoggerWindowSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(LoggerWindowSweep, ConservationUnderAlternatingLoad)
{
    const auto [window_us, drift_ppm] = GetParam();
    sim::ClockDomain clk(fs::Duration::seconds(9.0), drift_ppm, 10_ns);
    sim::PowerLogger logger(fs::Duration::micros(window_us), clk, 0.0,
                            fs::Rng(3));
    logger.start(fs::SimTime::fromNanos(0));

    // Alternate 100 W / 300 W every 10 us: any full window must average
    // to 200 W (window is a multiple of the period).
    sim::RailPower lo{100.0, 0.0, 0.0, 0.0};
    sim::RailPower hi{300.0, 0.0, 0.0, 0.0};
    auto t = fs::SimTime::fromNanos(0);
    for (int i = 0; i < 40000; ++i) {
        logger.addSlice(t, 10_us, (i % 2) ? hi : lo);
        t += 10_us;
    }
    ASSERT_GE(logger.samples().size(), 3u);
    // Skip the first sample: its window may start mid-period relative to
    // the GPU-grid alignment.
    for (std::size_t i = 1; i < logger.samples().size(); ++i) {
        EXPECT_NEAR(logger.samples()[i].xcd_w, 200.0, 0.5)
            << "window " << window_us << "us drift " << drift_ppm;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Windows, LoggerWindowSweep,
    ::testing::Combine(::testing::Values(100.0, 1000.0, 10000.0),
                       ::testing::Values(0.0, 4.0, 200.0)));

// ---------------------------------------------------------------------------
// Time sync: accuracy tracks the configured read delay.
// ---------------------------------------------------------------------------

class SyncDelaySweep : public ::testing::TestWithParam<double> {};

TEST_P(SyncDelaySweep, TranslationErrorBoundedByJitter)
{
    const double delay_us = GetParam();
    auto cfg = sim::mi300xConfig();
    cfg.timestamp_read_delay = fs::Duration::micros(delay_us);
    sim::Simulation node(cfg, 404, 1);
    rt::HostRuntime host(node, node.forkRng(7));
    auto sync = fc::TimeSync::calibrate(host);
    EXPECT_NEAR(sync.readDelay().toMicros(), delay_us, 0.3 * delay_us);

    const auto& gpu = node.device(0).gpuClock();
    const auto master = host.masterNow() + fs::Duration::millis(5.0);
    const auto counter = gpu.readCounter(master);
    const auto err =
        sync.gpuCounterToCpuNs(counter) - host.cpuClockAt(master);
    // Residual error: read jitter (fraction of the delay) + counter
    // quantization + drift over 5 ms.
    const double bound =
        0.6 * delay_us * 1000.0 + 10.0 + 4e-6 * 5e6 + 50.0;
    EXPECT_LT(std::abs(err), bound) << "delay " << delay_us;
}

INSTANTIATE_TEST_SUITE_P(Delays, SyncDelaySweep,
                         ::testing::Values(0.5, 1.5, 5.0, 20.0));

// ---------------------------------------------------------------------------
// Binning: golden count is monotone in the margin for a fixed sample.
// ---------------------------------------------------------------------------

class BinningMarginSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BinningMarginSweep, GoldenCountMonotoneInMargin)
{
    fs::Rng rng(GetParam());
    std::vector<fs::Duration> times;
    for (int i = 0; i < 300; ++i) {
        double t = 100.0 * rng.lognormalJitter(0.012);
        if (rng.bernoulli(0.08))
            t *= rng.uniform(1.1, 1.4);
        times.push_back(fs::Duration::micros(t));
    }
    std::size_t prev = 0;
    for (double margin : {0.005, 0.01, 0.02, 0.05, 0.10, 0.25}) {
        const auto result = fc::ExecutionBinner(margin).select(times);
        EXPECT_GE(result.golden_runs.size(), prev) << "margin " << margin;
        EXPECT_GE(result.golden_runs.size(), 1u);
        EXPECT_LE(result.golden_runs.size(), times.size());
        prev = result.golden_runs.size();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BinningMarginSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ---------------------------------------------------------------------------
// Roofline classification across the GEMM size spectrum.
// ---------------------------------------------------------------------------

class RooflineSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(RooflineSweep, ClassificationMatchesAnalyticOpByte)
{
    const auto edge = GetParam();
    const auto cfg = sim::mi300xConfig();
    const fk::GemmKernel gemm({edge, edge, edge, 2}, cfg);
    // Analytic op:byte for square fp16 GEMM is edge/3.
    const bool analytic_cb =
        static_cast<double>(edge) / 3.0 > cfg.machineOpsPerByte();
    EXPECT_EQ(gemm.boundedness() == fk::Boundedness::kComputeBound,
              analytic_cb)
        << edge;
    // GEMV on the same matrix is always memory-bound on this machine.
    const fk::GemmKernel gemv({edge, 1, edge, 2}, cfg);
    EXPECT_EQ(gemv.boundedness(), fk::Boundedness::kMemoryBound);
    // Durations are positive and increase with size within a family.
    EXPECT_GT(gemm.nominalDuration().nanos(), 0);
}

INSTANTIATE_TEST_SUITE_P(Edges, RooflineSweep,
                         ::testing::Values(256, 512, 735, 736, 1024, 2048,
                                           4096, 8192, 16384));

// ---------------------------------------------------------------------------
// Collective cost model: monotone latency, decaying alpha share.
// ---------------------------------------------------------------------------

class CollectiveOpSweep
    : public ::testing::TestWithParam<fk::CollectiveOp> {};

TEST_P(CollectiveOpSweep, LatencyMonotoneAlphaDecays)
{
    const auto op = GetParam();
    const auto cfg = sim::mi300xConfig();
    double prev_latency = 0.0;
    double prev_alpha = 1.1;
    for (fs::Bytes bytes = 16_KB; bytes <= 2_GB; bytes *= 4) {
        const fk::CollectiveKernel k(op, bytes, cfg);
        const double latency = k.nominalDuration().toSeconds();
        EXPECT_GT(latency, prev_latency) << bytes;
        EXPECT_LT(k.alphaShare(), prev_alpha) << bytes;
        EXPECT_GT(k.alphaShare(), 0.0);
        prev_latency = latency;
        prev_alpha = k.alphaShare();
        // Utilization stays within physical bounds at every size.
        const auto w = k.workAt(1.0);
        EXPECT_GE(w.util.fabric_bw, 0.0);
        EXPECT_LE(w.util.fabric_bw, 1.0);
        EXPECT_LE(w.util.hbm_bw, 0.6001);
    }
}

INSTANTIATE_TEST_SUITE_P(Ops, CollectiveOpSweep,
                         ::testing::Values(fk::CollectiveOp::kAllGather,
                                           fk::CollectiveOp::kAllReduce));

// ---------------------------------------------------------------------------
// Device determinism: identical seeds produce identical telemetry.
// ---------------------------------------------------------------------------

TEST(Determinism, IdenticalSeedsIdenticalSamples)
{
    auto make_samples = [](std::uint64_t seed) {
        auto cfg = sim::mi300xConfig();
        sim::Simulation node(cfg, seed, 1);
        rt::HostRuntime host(node, node.forkRng(7));
        host.startPowerLog();
        const auto k = fk::makeSquareGemm(4096, cfg);
        for (int i = 0; i < 6; ++i)
            host.launch(k->workAt(std::min(1.0, i / 3.0)));
        host.synchronize();
        host.sleep(1.2_ms);
        return host.stopPowerLog();
    };
    const auto a = make_samples(777);
    const auto b = make_samples(777);
    const auto c = make_samples(778);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].gpu_timestamp, b[i].gpu_timestamp);
        EXPECT_DOUBLE_EQ(a[i].total_w, b[i].total_w);
    }
    // A different seed must differ somewhere (clock offsets if nothing
    // else).
    bool differs = a.size() != c.size();
    for (std::size_t i = 0; !differs && i < a.size(); ++i)
        differs = a[i].gpu_timestamp != c[i].gpu_timestamp;
    EXPECT_TRUE(differs);
}

// ---------------------------------------------------------------------------
// Codec v2 payload fuzz: single-byte corruption is rejected or canonical.
//
// The campaign cache trusts the codec's canonical-form contract twice
// over: content addresses are hashes of canonical ScenarioSpec +
// MachineConfig bytes, and "corruption is a miss" only holds if a
// damaged payload can never decode to a value that would re-encode
// differently (an aliasing decode would poison the store silently).
// The sweep below enforces the payload-level half of that contract:
// for EVERY byte position and two mutation patterns, decoding either
// throws support::FatalError or yields a value whose re-encoding
// reproduces the mutated bytes exactly.  Prefix truncation must always
// reject — a strict prefix can never satisfy a complete decode.
// ---------------------------------------------------------------------------

#include "fingrav/campaign_runner.hpp"
#include "fingrav/codec.hpp"
#include "fingrav/scenario.hpp"
#include "support/logging.hpp"
#include "tests/test_fixtures.hpp"

namespace {

using Bytes = std::vector<std::uint8_t>;

/** A spec touching every encoded field class: strings, u64s, optional
 *  options, enums, durations, doubles, and a two-load background list. */
fc::ScenarioSpec
richScenarioSpec()
{
    fc::ScenarioSpec spec;
    spec.label = "AG-1GB";
    spec.seed = 424242;
    spec.opts.runs_override = 7;
    spec.opts.collect_extra_runs = false;
    spec.devices = 4;
    fc::BackgroundLoad kernel_load;
    kernel_load.kind = fc::BackgroundKind::kKernel;
    kernel_load.kernel = "CB-8K-GEMM";
    kernel_load.device = 2;
    kernel_load.queue = 3;
    kernel_load.offset = 2_ms;
    kernel_load.period = 10_ms;
    kernel_load.duty_cycle = 0.4;
    kernel_load.cycles = 5;
    kernel_load.jitter_sigma = 0.25;
    fc::BackgroundLoad demand_load;
    demand_load.kind = fc::BackgroundKind::kFabricDemand;
    demand_load.demand = 0.6;
    spec.background = {kernel_load, demand_load};
    return spec;
}

/** A real contended ProfileSet so the columnar layout carries a
 *  nontrivial contention bitmap (the trailing-bits canonicality path). */
fc::ProfileSet
fuzzProfileSet()
{
    const auto specs = fingrav::testing::fig10Specs(3, true);
    return fc::CampaignRunner::runOne(specs.back(), sim::mi300xConfig());
}

/**
 * Sweep every byte position with two mutation patterns (full-byte
 * invert and low-bit flip); `round_trip` decodes the mutated bytes and
 * re-encodes the result, throwing support::FatalError on rejection.
 */
template <typename RoundTrip>
void
fuzzEveryByte(const Bytes& canonical, RoundTrip round_trip,
              const char* what, bool expect_rejections = true)
{
    ASSERT_FALSE(canonical.empty()) << what;
    std::size_t rejected = 0;
    std::size_t reinterpreted = 0;
    for (std::size_t pos = 0; pos < canonical.size(); ++pos) {
        for (const std::uint8_t delta :
             {std::uint8_t{0xFF}, std::uint8_t{0x01}}) {
            Bytes mutated = canonical;
            mutated[pos] = static_cast<std::uint8_t>(mutated[pos] ^ delta);
            try {
                const Bytes round = round_trip(mutated);
                ASSERT_EQ(round, mutated)
                    << what << ": mutating byte " << pos << " (xor 0x"
                    << std::hex << int(delta) << std::dec
                    << ") decoded to a value that re-encodes differently "
                       "— non-canonical decode would poison the cache";
                ++reinterpreted;
            } catch (const fs::FatalError&) {
                ++rejected;
            }
        }
    }
    // Sanity that the sweep has teeth: value bytes (seeds, doubles,
    // string content) always reinterpret canonically, and any type with
    // structural bytes (counts, kinds, lengths, booleans) must see
    // rejections too.  Flat scalar records (MachineConfig) legitimately
    // reject nothing — every byte is a fixed-width value.
    if (expect_rejections)
        EXPECT_GT(rejected, 0u) << what;
    EXPECT_GT(reinterpreted, 0u) << what;
}

/** Every strict prefix of a canonical encoding must be rejected. */
template <typename RoundTrip>
void
rejectEveryPrefix(const Bytes& canonical, RoundTrip round_trip,
                  const char* what)
{
    for (std::size_t len = 0; len < canonical.size(); ++len) {
        const Bytes prefix(canonical.begin(),
                           canonical.begin() +
                               static_cast<std::ptrdiff_t>(len));
        EXPECT_THROW((void)round_trip(prefix), fs::FatalError)
            << what << ": " << len << "-byte prefix of "
            << canonical.size() << " canonical bytes decoded";
    }
}

Bytes
roundTripSpec(const Bytes& bytes)
{
    return fc::codec::encode(fc::codec::decode<fc::ScenarioSpec>(bytes));
}

Bytes
roundTripProfileSet(const Bytes& bytes)
{
    return fc::codec::encode(fc::codec::decodeProfileSet(bytes));
}

Bytes
roundTripMachineConfig(const Bytes& bytes)
{
    return fc::codec::encode(fc::codec::decode<sim::MachineConfig>(bytes));
}

}  // namespace

TEST(CodecFuzz, ScenarioSpecSingleByteMutationsRejectedOrCanonical)
{
    const Bytes canonical = fc::codec::encode(richScenarioSpec());
    fuzzEveryByte(canonical, roundTripSpec, "ScenarioSpec");
    rejectEveryPrefix(canonical, roundTripSpec, "ScenarioSpec");
}

TEST(CodecFuzz, ProfileSetSingleByteMutationsRejectedOrCanonical)
{
    const Bytes canonical = fc::codec::encode(fuzzProfileSet());
    fuzzEveryByte(canonical, roundTripProfileSet, "ProfileSet");
    rejectEveryPrefix(canonical, roundTripProfileSet, "ProfileSet");
}

TEST(CodecFuzz, MachineConfigSingleByteMutationsRejectedOrCanonical)
{
    const Bytes canonical = fc::codec::encode(sim::mi300xConfig());
    // MachineConfig is a flat fixed-width scalar record: every mutation
    // reinterprets canonically and only truncation can reject.
    fuzzEveryByte(canonical, roundTripMachineConfig, "MachineConfig",
                  /*expect_rejections=*/false);
    rejectEveryPrefix(canonical, roundTripMachineConfig, "MachineConfig");
}
