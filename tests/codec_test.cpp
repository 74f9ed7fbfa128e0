/**
 * @file
 * Wire-codec contract: exact round trips, canonical form, clean
 * rejection of anything that is not a well-formed current-version frame.
 *
 * Distributed sharding is only admissible because decode(encode(x))
 * reproduces x bit-for-bit — these tests drive randomized ScenarioSpecs
 * and ProfileSets (including IEEE-754 edge values: -0.0, denormals,
 * infinities) through the codec and require exact equality, then attack
 * the framing with truncation, corruption and a foreign version, all of
 * which must fail with support::FatalError rather than decode garbage.
 * The frame checksum, CRC-32C, is held to known answers and its SSE4.2
 * instruction path to the table path it must equal bit for bit; encode's
 * size pass is held to the bytes it writes, and the borrowed cache entry
 * to the owning one.
 */

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fingrav/campaign_runner.hpp"
#include "fingrav/codec.hpp"
#include "fingrav/scenario.hpp"
#include "sim/machine_config.hpp"
#include "support/crc32c.hpp"
#include "support/logging.hpp"
#include "support/rng.hpp"
#include "support/time_types.hpp"

namespace fc = fingrav::core;
namespace codec = fingrav::core::codec;
namespace fs = fingrav::support;

namespace {

/** A few IEEE-754 edge values a canonical codec must preserve. */
double
edgeDouble(fs::Rng& rng)
{
    switch (rng.uniformInt(0, 5)) {
      case 0:
        return -0.0;
      case 1:
        return std::numeric_limits<double>::denorm_min();
      case 2:
        return std::numeric_limits<double>::infinity();
      case 3:
        return -std::numeric_limits<double>::max();
      case 4:
        return 1.0 + std::numeric_limits<double>::epsilon();
      default:
        return rng.uniform(-1e12, 1e12);
    }
}

fs::Duration
randomDuration(fs::Rng& rng)
{
    return fs::Duration::nanos(rng.uniformInt(-5'000'000, 5'000'000'000LL));
}

fc::BackgroundLoad
randomLoad(fs::Rng& rng)
{
    fc::BackgroundLoad load;
    load.kind = rng.uniformInt(0, 1) == 0 ? fc::BackgroundKind::kKernel
                                          : fc::BackgroundKind::kFabricDemand;
    load.kernel = rng.uniformInt(0, 1) == 0 ? "AR-512MB" : "MB-4K-GEMV";
    load.demand = rng.uniform(0.0, 1.5);
    load.device = static_cast<std::size_t>(rng.uniformInt(0, 7));
    load.queue = static_cast<std::size_t>(rng.uniformInt(0, 3));
    load.offset = randomDuration(rng);
    load.period = randomDuration(rng);
    load.duty_cycle = rng.uniform(0.01, 1.0);
    load.cycles = static_cast<std::size_t>(rng.uniformInt(0, 12));
    load.jitter_sigma = rng.uniformInt(0, 1) == 0 ? -1.0 : rng.uniform(0, 1);
    return load;
}

fc::ScenarioSpec
randomSpec(fs::Rng& rng)
{
    fc::ScenarioSpec spec;
    spec.label = rng.uniformInt(0, 1) == 0 ? "CB-8K-GEMM" : "AG-1GB";
    spec.seed = static_cast<std::uint64_t>(rng.uniformInt(0, 1 << 30));
    spec.devices = static_cast<std::size_t>(rng.uniformInt(0, 8));
    auto& opts = spec.opts;
    opts.device = static_cast<std::size_t>(rng.uniformInt(0, 7));
    if (rng.uniformInt(0, 1))
        opts.runs_override = static_cast<std::size_t>(rng.uniformInt(1, 200));
    if (rng.uniformInt(0, 1))
        opts.margin_override = rng.uniform(0.0, 0.3);
    opts.sse_executions = static_cast<std::size_t>(rng.uniformInt(1, 8));
    opts.timing_reps = static_cast<std::size_t>(rng.uniformInt(1, 9));
    opts.min_delay = randomDuration(rng);
    opts.max_delay = randomDuration(rng);
    opts.sync_mode = static_cast<fc::SyncMode>(rng.uniformInt(0, 3));
    opts.binning = rng.uniformInt(0, 1) == 1;
    opts.collect_extra_runs = rng.uniformInt(0, 1) == 1;
    opts.max_extra_run_factor = edgeDouble(rng);
    opts.stability_eps = rng.uniform(0.001, 0.2);
    opts.logger_window = randomDuration(rng);
    if (rng.uniformInt(0, 1))
        opts.target_bin = randomDuration(rng);
    const std::size_t loads = static_cast<std::size_t>(rng.uniformInt(0, 4));
    for (std::size_t i = 0; i < loads; ++i)
        spec.background.push_back(randomLoad(rng));
    return spec;
}

fc::PowerProfile
randomProfile(fs::Rng& rng, const std::string& label, fc::ProfileKind kind)
{
    fc::PowerProfile profile(label, kind);
    const std::size_t points = static_cast<std::size_t>(rng.uniformInt(0, 40));
    for (std::size_t i = 0; i < points; ++i) {
        fc::ProfilePoint p;
        p.toi_us = edgeDouble(rng);
        p.toi_frac = rng.uniform(0.0, 1.0);
        p.run_time_us = edgeDouble(rng);
        p.sample.gpu_timestamp = rng.uniformInt(-1, 1LL << 60);
        p.sample.total_w = edgeDouble(rng);
        p.sample.xcd_w = edgeDouble(rng);
        p.sample.iod_w = edgeDouble(rng);
        p.sample.hbm_w = edgeDouble(rng);
        p.run_index = static_cast<std::size_t>(rng.uniformInt(0, 300));
        p.exec_index = static_cast<std::size_t>(rng.uniformInt(0, 300));
        p.contended = rng.uniformInt(0, 1) == 1;
        profile.add(p);
    }
    return profile;
}

fc::ProfileSet
randomSet(fs::Rng& rng)
{
    fc::ProfileSet set;
    set.label = "AR-128KB";
    set.measured_exec_time = randomDuration(rng);
    set.guidance.exec_lo = randomDuration(rng);
    set.guidance.exec_hi = randomDuration(rng);
    set.guidance.runs = static_cast<std::size_t>(rng.uniformInt(1, 500));
    set.guidance.loi_per = randomDuration(rng);
    set.guidance.binning_margin = rng.uniform(0.0, 0.3);
    set.runs_executed = static_cast<std::size_t>(rng.uniformInt(0, 500));
    set.binning.bin_center = randomDuration(rng);
    const std::size_t golden = static_cast<std::size_t>(rng.uniformInt(0, 20));
    for (std::size_t i = 0; i < golden; ++i)
        set.binning.golden_runs.push_back(
            static_cast<std::size_t>(rng.uniformInt(0, 500)));
    set.binning.total_runs = static_cast<std::size_t>(rng.uniformInt(0, 500));
    set.sse_exec_index = static_cast<std::size_t>(rng.uniformInt(0, 20));
    set.ssp_exec_index = static_cast<std::size_t>(rng.uniformInt(0, 400));
    set.execs_per_run = static_cast<std::size_t>(rng.uniformInt(1, 400));
    set.ssp_exec_time = randomDuration(rng);
    set.loi_target = static_cast<std::size_t>(rng.uniformInt(0, 100));
    set.read_delay_us = edgeDouble(rng);
    set.drift_ppm = edgeDouble(rng);
    set.sse = randomProfile(rng, set.label, fc::ProfileKind::kSse);
    set.ssp = randomProfile(rng, set.label, fc::ProfileKind::kSsp);
    set.timeline = randomProfile(rng, set.label, fc::ProfileKind::kTimeline);
    return set;
}

void
expectSpecsEqual(const fc::ScenarioSpec& a, const fc::ScenarioSpec& b)
{
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.devices, b.devices);
    EXPECT_EQ(a.opts.device, b.opts.device);
    EXPECT_EQ(a.opts.runs_override, b.opts.runs_override);
    EXPECT_EQ(a.opts.margin_override, b.opts.margin_override);
    EXPECT_EQ(a.opts.sse_executions, b.opts.sse_executions);
    EXPECT_EQ(a.opts.timing_reps, b.opts.timing_reps);
    EXPECT_EQ(a.opts.min_delay, b.opts.min_delay);
    EXPECT_EQ(a.opts.max_delay, b.opts.max_delay);
    EXPECT_EQ(a.opts.sync_mode, b.opts.sync_mode);
    EXPECT_EQ(a.opts.binning, b.opts.binning);
    EXPECT_EQ(a.opts.collect_extra_runs, b.opts.collect_extra_runs);
    // Bit-pattern compare so -0.0 / inf round trips count as exact.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.opts.max_extra_run_factor),
              std::bit_cast<std::uint64_t>(b.opts.max_extra_run_factor));
    EXPECT_EQ(a.opts.stability_eps, b.opts.stability_eps);
    EXPECT_EQ(a.opts.logger_window, b.opts.logger_window);
    EXPECT_EQ(a.opts.target_bin, b.opts.target_bin);
    ASSERT_EQ(a.background.size(), b.background.size());
    for (std::size_t i = 0; i < a.background.size(); ++i) {
        const auto& la = a.background[i];
        const auto& lb = b.background[i];
        EXPECT_EQ(la.kind, lb.kind);
        EXPECT_EQ(la.kernel, lb.kernel);
        EXPECT_EQ(la.demand, lb.demand);
        EXPECT_EQ(la.device, lb.device);
        EXPECT_EQ(la.queue, lb.queue);
        EXPECT_EQ(la.offset, lb.offset);
        EXPECT_EQ(la.period, lb.period);
        EXPECT_EQ(la.duty_cycle, lb.duty_cycle);
        EXPECT_EQ(la.cycles, lb.cycles);
        EXPECT_EQ(la.jitter_sigma, lb.jitter_sigma);
    }
}

}  // namespace

TEST(Codec, ScenarioSpecRoundTripExact)
{
    fs::Rng rng(20250731);
    for (int i = 0; i < 25; ++i) {
        const auto spec = randomSpec(rng);
        const auto bytes = codec::encode(spec);
        const auto decoded = codec::decode<fc::ScenarioSpec>(bytes);
        expectSpecsEqual(spec, decoded);
        // Canonical: re-encoding the decoded value reproduces the bytes.
        EXPECT_EQ(bytes, codec::encode(decoded));
    }
}

TEST(Codec, ProfileSetRoundTripExact)
{
    fs::Rng rng(777);
    for (int i = 0; i < 15; ++i) {
        const auto set = randomSet(rng);
        const auto bytes = codec::encode(set);
        const auto decoded = codec::decodeProfileSet(bytes);
        // identicalProfileSets is the same bitwise gate the shard
        // backends are held to.
        EXPECT_TRUE(fc::identicalProfileSets(set, decoded));
        EXPECT_EQ(bytes, codec::encode(decoded));
    }
}

TEST(Codec, IdenticalProfileSetsIsBitwiseOverEveryField)
{
    fs::Rng rng(48);
    const auto set = randomSet(rng);
    ASSERT_TRUE(fc::identicalProfileSets(set, set));

    // Guidance fields count like any other encoded field.
    for (const auto member : {&fc::GuidanceEntry::exec_lo,
                              &fc::GuidanceEntry::exec_hi,
                              &fc::GuidanceEntry::loi_per}) {
        auto other = set;
        other.guidance.*member =
            other.guidance.*member + fs::Duration::nanos(1);
        EXPECT_FALSE(fc::identicalProfileSets(set, other));
    }

    // Doubles compare as their encodings do: by bit pattern.
    auto positive = set;
    auto negative = set;
    positive.read_delay_us = 0.0;
    negative.read_delay_us = -0.0;
    EXPECT_FALSE(fc::identicalProfileSets(positive, negative));

    auto nan_a = set;
    nan_a.drift_ppm = std::numeric_limits<double>::quiet_NaN();
    fc::ProfilePoint nan_point;
    nan_point.sample.total_w = std::numeric_limits<double>::quiet_NaN();
    nan_a.ssp.add(nan_point);
    const auto nan_b = nan_a;
    EXPECT_TRUE(fc::identicalProfileSets(nan_a, nan_b));

    // Any single-byte change that still decodes is a detected change.
    const auto bytes = codec::encode(set);
    std::size_t decoded_changes = 0;
    for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
        auto mutated = bytes;
        mutated[pos] ^= 0x01;
        try {
            const auto decoded = codec::decodeProfileSet(mutated);
            ++decoded_changes;
            EXPECT_FALSE(fc::identicalProfileSets(set, decoded))
                << "byte " << pos;
        } catch (const fs::FatalError&) {
        }
    }
    EXPECT_GT(decoded_changes, bytes.size() / 2);
}

TEST(Codec, MachineConfigRoundTripExact)
{
    auto cfg = fingrav::sim::mi300xConfig();
    cfg.node_gpus = 3;
    cfg.logger_noise_w = -0.0;  // sign bit must survive
    cfg.dvfs.boost_budget = fs::Duration::micros(1234.5);
    cfg.thermal.ambient_c = 17.25;
    const auto bytes = codec::encode(cfg);
    const auto decoded = codec::decode<fingrav::sim::MachineConfig>(bytes);
    EXPECT_EQ(bytes, codec::encode(decoded));
    EXPECT_EQ(decoded.node_gpus, 3u);
    EXPECT_EQ(std::signbit(decoded.logger_noise_w), true);
    EXPECT_EQ(decoded.dvfs.boost_budget, fs::Duration::micros(1234.5));
    EXPECT_EQ(decoded.thermal.ambient_c, 17.25);
}

TEST(Codec, TrailingBytesRejected)
{
    fs::Rng rng(42);
    auto bytes = codec::encode(randomSpec(rng));
    bytes.push_back(0xab);
    EXPECT_THROW(codec::decode<fc::ScenarioSpec>(bytes), fs::FatalError);
}

TEST(Codec, TruncatedPayloadFailsCleanly)
{
    fs::Rng rng(43);
    const auto bytes = codec::encode(randomSet(rng));
    // Every proper prefix must fail; probe a spread of cut points.
    for (std::size_t cut : {std::size_t{0}, std::size_t{1},
                            bytes.size() / 3, bytes.size() - 1}) {
        std::vector<std::uint8_t> short_bytes(bytes.begin(),
                                              bytes.begin() + cut);
        EXPECT_THROW(codec::decodeProfileSet(short_bytes), fs::FatalError)
            << "cut at " << cut;
    }
}

TEST(Codec, FrameRoundTripAndCleanEof)
{
    fs::Rng rng(44);
    const auto payload = codec::encode(
        codec::SpecRequest{fingrav::sim::mi300xConfig(), randomSpec(rng)});
    std::stringstream stream;
    ASSERT_TRUE(codec::writeFrame(
        stream, codec::FrameType::kSpecRequest, payload));
    ASSERT_TRUE(codec::writeFrame(stream, codec::FrameType::kShutdown, {}));

    const auto first = codec::readFrame(stream);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->type, codec::FrameType::kSpecRequest);
    EXPECT_EQ(first->payload, payload);
    const auto second = codec::readFrame(stream);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->type, codec::FrameType::kShutdown);
    // Clean EOF on the frame boundary is not an error.
    EXPECT_FALSE(codec::readFrame(stream).has_value());
}

TEST(Codec, TruncatedFrameFailsCleanly)
{
    fs::Rng rng(45);
    const auto wire = codec::encodeFrame(
        codec::FrameType::kSpecRequest,
        codec::encode(codec::SpecRequest{fingrav::sim::mi300xConfig(),
                                         randomSpec(rng)}));
    // Header cut short.
    {
        std::stringstream stream;
        stream.write(reinterpret_cast<const char*>(wire.data()),
                     static_cast<std::streamsize>(codec::kFrameHeaderBytes -
                                                  3));
        EXPECT_THROW(codec::readFrame(stream), fs::FatalError);
    }
    // Payload cut short.
    {
        std::stringstream stream;
        stream.write(reinterpret_cast<const char*>(wire.data()),
                     static_cast<std::streamsize>(wire.size() - 5));
        EXPECT_THROW(codec::readFrame(stream), fs::FatalError);
    }
    EXPECT_THROW(codec::parseFrame({wire.begin(), wire.end() - 5}),
                 fs::FatalError);
}

TEST(Codec, CorruptedPayloadFailsCleanly)
{
    fs::Rng rng(46);
    auto wire = codec::encodeFrame(codec::FrameType::kProfileSet,
                                   codec::encode(randomSet(rng)));
    wire[codec::kFrameHeaderBytes +
         (wire.size() - codec::kFrameHeaderBytes) / 2] ^= 0x40;
    EXPECT_THROW(codec::parseFrame(wire), fs::FatalError);
}

TEST(Codec, BadMagicRejected)
{
    auto wire = codec::encodeFrame(codec::FrameType::kPing, {});
    wire[0] ^= 0xff;
    EXPECT_THROW(codec::parseFrame(wire), fs::FatalError);
}

TEST(Codec, VersionMismatchRejected)
{
    auto wire = codec::encodeFrame(codec::FrameType::kPing, {});
    // The version field sits right after the 4-byte magic.
    wire[4] = static_cast<std::uint8_t>(codec::kVersion + 1);
    try {
        codec::parseFrame(wire);
        FAIL() << "foreign version must be rejected";
    } catch (const fs::FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
    }
}

TEST(Codec, ImplausiblePayloadLengthRejectedBeforeAllocation)
{
    // A corrupt header must be rejected at the length field — the
    // reader (driver or worker) must never trust it with a
    // multi-gigabyte allocation before the checksum can fire.
    auto wire = codec::encodeFrame(codec::FrameType::kPing, {});
    for (std::size_t i = 8; i < 16; ++i)  // payload_len, past magic+ver+type
        wire[i] = 0xff;
    std::stringstream stream;
    stream.write(reinterpret_cast<const char*>(wire.data()),
                 static_cast<std::streamsize>(wire.size()));
    EXPECT_THROW(codec::readFrame(stream), fs::FatalError);
    EXPECT_THROW(codec::decodeFrameHeader(wire.data()), fs::FatalError);
}

TEST(Codec, UnknownFrameTypeRejected)
{
    // The types are contiguous: both ends of the one range check hold.
    const auto past_last =
        static_cast<std::uint8_t>(codec::FrameType::kShutdown) + 1;
    for (const int type : {0, past_last, 0x7f}) {
        auto wire = codec::encodeFrame(codec::FrameType::kPing, {});
        wire[6] = static_cast<std::uint8_t>(type);  // past magic + version
        EXPECT_THROW(codec::parseFrame(wire), fs::FatalError) << type;
    }
}

// ---- v2 columnar profile layout ------------------------------------------

namespace {

/** A ProfileSet whose only points sit in the timeline profile, so its
 *  columns are the trailing bytes of the encoded payload. */
fc::ProfileSet
timelineOnlySet(std::size_t points)
{
    fc::ProfileSet set;
    set.label = "v2";
    set.sse = fc::PowerProfile("v2", fc::ProfileKind::kSse);
    set.ssp = fc::PowerProfile("v2", fc::ProfileKind::kSsp);
    set.timeline = fc::PowerProfile("v2", fc::ProfileKind::kTimeline);
    for (std::size_t i = 0; i < points; ++i) {
        fc::ProfilePoint p;
        p.run_time_us = static_cast<double>(i);
        p.sample.total_w = 100.0 + static_cast<double>(i);
        p.run_index = i;
        p.contended = i % 2 == 0;
        set.timeline.add(p);
    }
    return set;
}

}  // namespace

TEST(Codec, ContentionBitmapTrailingGarbageRejected)
{
    // The packed contention bitmap is the final column of a profile; its
    // bits past the point count must be zero (canonical form).  The
    // timeline is the last profile of a ProfileSet, so its bitmap word is
    // the payload's last 8 bytes — set a bit past n and decode must
    // reject the frame instead of quietly dropping the garbage (which
    // would break re-encode equality).
    auto bytes = codec::encode(timelineOnlySet(3));
    ASSERT_GE(bytes.size(), 8u);
    bytes[bytes.size() - 8] |= 0x08;  // bit 3: first bit past n=3
    EXPECT_THROW(codec::decodeProfileSet(bytes), fs::FatalError);
}

TEST(Codec, ColumnarTruncationInsideEveryColumnRejected)
{
    // v2 reads whole columns with one bounds check each; a cut anywhere
    // inside the column region must still fail cleanly.  131 points spans
    // three bitmap words and makes each f64 column 1048 bytes, so the
    // probed cuts land inside different columns.
    const auto bytes = codec::encode(timelineOnlySet(131));
    for (const double frac : {0.35, 0.55, 0.75, 0.95, 0.999}) {
        const auto cut =
            static_cast<std::size_t>(static_cast<double>(bytes.size()) *
                                     frac);
        std::vector<std::uint8_t> short_bytes(bytes.begin(),
                                              bytes.begin() + cut);
        EXPECT_THROW(codec::decodeProfileSet(short_bytes), fs::FatalError)
            << "cut at " << cut;
    }
}

TEST(Codec, ColumnarRoundTripPreservesBitmapAcrossWordBoundaries)
{
    for (const std::size_t n : {std::size_t{63}, std::size_t{64},
                                std::size_t{65}, std::size_t{130}}) {
        const auto set = timelineOnlySet(n);
        const auto bytes = codec::encode(set);
        const auto decoded = codec::decodeProfileSet(bytes);
        EXPECT_TRUE(fc::identicalProfileSets(set, decoded)) << n;
        EXPECT_EQ(bytes, codec::encode(decoded)) << n;
        EXPECT_EQ(decoded.timeline.contendedCount(),
                  set.timeline.contendedCount());
    }
}

// ---- one-allocation encode: the size pass and the borrowed entry ----------

namespace {

/** The size pass counts exactly the bytes encode writes. */
template <typename T>
void
expectSizePassExact(const T& value, const char* what)
{
    EXPECT_EQ(codec::encodedSize(value), codec::encode(value).size())
        << what;
}

}  // namespace

TEST(Codec, SizePassAndBorrowedEntryMatchEncode)
{
    fs::Rng rng(64);
    const auto cfg = fingrav::sim::mi300xConfig();
    auto every_optional = randomSpec(rng);
    every_optional.opts.runs_override = 12;
    every_optional.opts.margin_override = 0.1;
    every_optional.opts.target_bin = fs::Duration::micros(140);
    expectSizePassExact(every_optional, "spec with every optional set");
    expectSizePassExact(fc::ProfileSet{}, "empty set");
    expectSizePassExact(cfg, "machine config");
    expectSizePassExact(std::string("worker diagnostic"), "worker error");
    // Every payload the wire goldens pin, over randomized contents; the
    // borrowed cache entry encodes exactly as the owning one.
    for (int i = 0; i < 20; ++i) {
        const auto spec = randomSpec(rng);
        const auto set = i == 0 ? fc::ProfileSet{} : randomSet(rng);
        const std::string key = codec::cacheKey(spec, cfg);
        expectSizePassExact(spec, "spec");
        expectSizePassExact(set, "set");
        expectSizePassExact(codec::SpecRequest{cfg, spec}, "spec request");
        expectSizePassExact(codec::CacheEntry{key, set}, "cache entry");
        expectSizePassExact(codec::CacheEntryView{key, set},
                            "borrowed cache entry");
        EXPECT_EQ(codec::encode(codec::CacheEntryView{key, set}),
                  codec::encode(codec::CacheEntry{key, set}));
    }
}

// ---- v4 frame checksum: CRC-32C ------------------------------------------

namespace {

/** A CRC-32C known answer: the input bytes and their checksum. */
struct Crc32cVector {
    std::vector<std::uint8_t> bytes;
    std::uint32_t crc;
};

/** "123456789", the empty input, and the four 32-byte iSCSI vectors
 *  (RFC 3720, B.4), which run the eight-byte loops of both paths. */
std::vector<Crc32cVector>
crc32cKnownAnswers()
{
    std::vector<Crc32cVector> out;
    const std::string check = "123456789";
    out.push_back({{check.begin(), check.end()}, 0xE3069283u});
    out.push_back({{}, 0u});
    out.push_back({std::vector<std::uint8_t>(32, 0x00), 0x8A9136AAu});
    out.push_back({std::vector<std::uint8_t>(32, 0xFF), 0x62A8AB43u});
    Crc32cVector up{{}, 0x46DD794Eu};
    Crc32cVector down{{}, 0x113FDB5Cu};
    for (int i = 0; i < 32; ++i) {
        up.bytes.push_back(static_cast<std::uint8_t>(i));
        down.bytes.push_back(static_cast<std::uint8_t>(31 - i));
    }
    out.push_back(up);
    out.push_back(down);
    return out;
}

std::vector<std::uint8_t>
randomBytes(fs::Rng& rng, std::size_t n)
{
    std::vector<std::uint8_t> bytes(n);
    for (auto& b : bytes)
        b = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
    return bytes;
}

}  // namespace

TEST(Crc32c, TableKnownAnswers)
{
    for (const auto& v : crc32cKnownAnswers()) {
        EXPECT_EQ(fs::crc32cTable(v.bytes.data(), v.bytes.size()), v.crc)
            << v.bytes.size() << " bytes";
        // The dispatching entry point agrees, whichever path it takes.
        EXPECT_EQ(fs::crc32c(v.bytes.data(), v.bytes.size()), v.crc);
    }
}

TEST(Crc32c, HardwareKnownAnswers)
{
    if (!fs::crc32cHardwareAvailable())
        GTEST_SKIP() << "no SSE4.2 crc32 instruction on this build or CPU";
    for (const auto& v : crc32cKnownAnswers()) {
        EXPECT_EQ(fs::crc32cHardware(v.bytes.data(), v.bytes.size()), v.crc)
            << v.bytes.size() << " bytes";
    }
}

TEST(Crc32c, HardwareMatchesTableAtEveryLengthAndOffset)
{
    if (!fs::crc32cHardwareAvailable())
        GTEST_SKIP() << "no SSE4.2 crc32 instruction on this build or CPU";
    fs::Rng rng(61);
    // Offsets 0-7 from an allocation's start cover every alignment of the
    // first word load; lengths 0-1024 every head, word and tail split.
    const auto buf = randomBytes(rng, 1024 + 8);
    for (std::size_t offset = 0; offset < 8; ++offset) {
        for (std::size_t len = 0; len <= 1024; ++len) {
            const std::uint8_t* p = buf.data() + offset;
            ASSERT_EQ(fs::crc32cHardware(p, len), fs::crc32cTable(p, len))
                << "offset " << offset << ", length " << len;
        }
    }
    // The three-chain chunk edges (3 x 256 B and 3 x 8 KiB), alone, one
    // after the other and twice over, each +- one word at every offset.
    constexpr std::size_t kShort = 3 * 256;
    constexpr std::size_t kLong = 3 * 8192;
    std::vector<std::size_t> edges;
    for (const std::size_t edge : {kShort, kLong, kLong + kShort}) {
        for (std::size_t len = edge - 8; len <= edge + 8; ++len)
            edges.push_back(len);
    }
    edges.push_back(2 * kLong + 5);
    const auto chunked = randomBytes(rng, 2 * kLong + 5 + 8);
    for (std::size_t offset = 0; offset < 8; ++offset) {
        for (const std::size_t len : edges) {
            const std::uint8_t* p = chunked.data() + offset;
            const std::uint32_t want = fs::crc32cTable(p, len);
            ASSERT_EQ(fs::crc32cHardware(p, len), want)
                << "offset " << offset << ", length " << len;
            ASSERT_EQ(fs::crc32c(p, len), want)
                << "offset " << offset << ", length " << len;
        }
    }
    for (const std::size_t len :
         {std::size_t{1} << 20, (std::size_t{3} << 20) + 13}) {
        const auto big = randomBytes(rng, len);
        const std::uint32_t want = fs::crc32cTable(big.data(), big.size());
        EXPECT_EQ(fs::crc32cHardware(big.data(), big.size()), want) << len;
        EXPECT_EQ(fs::crc32c(big.data(), big.size()), want) << len;
    }
}

TEST(Codec, FrameChecksumIsZeroExtendedCrc32c)
{
    fs::Rng rng(62);
    const auto payload = randomBytes(rng, 100);
    const auto wire =
        codec::encodeFrame(codec::FrameType::kProfileSet, payload);
    auto header = codec::decodeFrameHeader(wire.data());
    EXPECT_EQ(header.checksum,
              std::uint64_t{fs::crc32cTable(payload.data(), payload.size())});
    // A set bit in the field's unused high half is corruption too.
    header.checksum |= std::uint64_t{1} << 40;
    EXPECT_THROW(codec::verifyFramePayload(header, payload.data()),
                 fs::FatalError);
}

TEST(Codec, FrameChecksumRejectsEveryBitFlipAndAlignedBurst)
{
    // CRC-32C detects every single-bit error and every burst of up to 32
    // bits; hold the frame check to both on a ~256-byte payload.
    fs::Rng rng(63);
    const auto payload = randomBytes(rng, 257);
    const auto wire =
        codec::encodeFrame(codec::FrameType::kProfileSet, payload);
    const auto header = codec::decodeFrameHeader(wire.data());
    EXPECT_NO_THROW(codec::verifyFramePayload(header, payload.data()));
    for (std::size_t bit = 0; bit < payload.size() * 8; ++bit) {
        auto mutated = payload;
        mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        EXPECT_THROW(codec::verifyFramePayload(header, mutated.data()),
                     fs::FatalError)
            << "bit " << bit;
    }
    for (std::size_t pos = 0; pos + 4 <= payload.size(); pos += 4) {
        auto mutated = payload;
        for (std::size_t i = pos; i < pos + 4; ++i)
            mutated[i] ^= 0xFF;
        EXPECT_THROW(codec::verifyFramePayload(header, mutated.data()),
                     fs::FatalError)
            << "burst at byte " << pos;
    }
}
