#ifndef FINGRAV_FINGRAV_CODEC_HPP_
#define FINGRAV_FINGRAV_CODEC_HPP_

/**
 * @file
 * Versioned canonical binary encoding for the campaign wire contract.
 *
 * Multi-process placement (fingrav/worker_fleet.hpp) ships one hermetic
 * scenario per request to a worker process and one ProfileSet back; the
 * encoding defined here is the wire contract both sides speak.
 * Three properties it must hold, in order of importance:
 *
 *  - *Round-trip exactness.*  decode(encode(x)) reproduces every field
 *    of x bit-for-bit — doubles travel as their IEEE-754 bit patterns,
 *    simulated time as raw nanosecond counts — so a ProfileSet computed
 *    in a worker and reassembled by the driver is indistinguishable from
 *    one computed in-process (the FleetBackend bit-identity gate).
 *
 *  - *Canonical form.*  Equal values encode to equal bytes: fixed-width
 *    little-endian integers, length-prefixed strings and vectors, fields
 *    in declaration order, no padding, no optional representations.
 *
 *  - *Versioned framing.*  Every frame carries the codec version and a
 *    CRC-32C payload checksum (support/crc32c.hpp: the SSE4.2
 *    instruction where the CPU has it, a table elsewhere); a reader
 *    confronted with a foreign version, a corrupt header or a
 *    truncated/mangled payload fails cleanly (support::FatalError)
 *    instead of decoding garbage.  Any change to any encoded layout or
 *    to the framing MUST bump kVersion — there is deliberately no
 *    per-field tagging; the version is the schema.
 *
 * FNV-1a-64 (fnv1a64) checks no frame: it names the on-disk cache blobs
 * (CampaignCache::keyHash) and is the digest the golden tables pin, so
 * its bits never change.
 *
 * One field list per serialized type (codec.cpp) drives encode, decode
 * and the bitwise equality gate core::identicalProfileSets alike.
 * encode walks it twice: a size pass counts the payload's bytes, so the
 * buffer is allocated once at its exact size, then the write fills it.
 * Each field's wire form follows from its C++ type (fixed-width integers,
 * doubles as bit patterns, Durations as nanoseconds, enums as one byte,
 * bool as 0/1, optionals as a presence byte, strings and vectors with a
 * u32 count).  What crosses the wire: ScenarioSpec (foreground kernel
 * reference, BackgroundLoad schedules, seeds, profiler options),
 * MachineConfig (so a worker rebuilds the exact node the driver would
 * have), ProfileSet (SSE/SSP/timeline points including contention
 * flags, guidance/LOI-yield fields, sync calibration outputs) and the
 * frame payloads below.  A ScenarioSpec is plain data, so every spec
 * has a wire form and a cache key.
 */

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "fingrav/profiler.hpp"
#include "fingrav/scenario.hpp"
#include "sim/machine_config.hpp"
#include "support/time_types.hpp"

namespace fingrav::core::codec {

/** "FGRV" in little-endian byte order. */
inline constexpr std::uint32_t kMagic = 0x56524746u;

/**
 * Schema version; bump on ANY layout change (docs/ARCHITECTURE.md).
 * v2: PowerProfile payloads are columnar — one contiguous little-endian
 * block per point field plus a packed contention bitmap, instead of
 * field-interleaved per-point records.
 * v3: control frames for persistent workers — kPing/kPong keepalive and
 * kShutdown — extend the frame-type range a v2 reader would reject.
 * v4: the frame payload checksum is CRC-32C, zero-extended into the
 * header's 8-byte field, instead of FNV-1a-64.  Payload layouts are
 * unchanged; a v3 peer is refused at the version check, and v3 cache
 * blobs live at other addresses (the cache key embeds kVersion).
 * v5: MachineConfig loses its node-stepping thread budget (a node now
 * steps serially), so every encoded config is eight bytes shorter.
 * Other payload layouts are unchanged.
 * v6: one request, one reply.  A kSpecRequest (config + one spec)
 * replaces the slot-addressed shard request, the worker answers with
 * one kProfileSet frame, and the shard-result, shard-done and
 * scenario-spec frame types are gone; the remaining types are
 * renumbered contiguously.  Other payload layouts are unchanged.
 */
inline constexpr std::uint16_t kVersion = 6;

/** Frame payload types. */
enum class FrameType : std::uint16_t {
    kSpecRequest = 1,  ///< SpecRequest: one campaign for a fleet worker
    kProfileSet = 2,   ///< ProfileSet: the worker's reply
    kWorkerError = 3,  ///< std::string: worker-side fatal diagnostic
    kCacheEntry = 4,   ///< CacheEntry (on-disk campaign cache)
    kPing = 5,         ///< empty: driver keepalive probe to an idle worker
    kPong = 6,         ///< empty: worker liveness reply to kPing
    kShutdown = 7,     ///< empty: clean fleet-worker shutdown request
};

/** Printable frame-type name. */
const char* toString(FrameType type);

/**
 * Append-only canonical byte builder.  All integers little-endian,
 * doubles as IEEE-754 bit patterns, strings/vectors length-prefixed.
 */
class Encoder {
  public:
    /** Capacity for `bytes` more bytes (encode reserves its exact size). */
    void reserve(std::size_t bytes) { bytes_.reserve(bytes_.size() + bytes); }

    void u8(std::uint8_t v);
    void u16(std::uint16_t v);
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i64(std::int64_t v);
    void f64(double v);
    void boolean(bool v);
    void str(const std::string& v);
    void duration(support::Duration v);

    /**
     * Bulk column writers (v2 profile frames): the whole vector as one
     * contiguous little-endian element block — on little-endian hosts a
     * single byte append, no per-element shifting.  The element count is
     * NOT written; the enclosing layout carries it once.
     */
    void column(const std::vector<double>& v);
    void column(const std::vector<std::int64_t>& v);
    void column(const std::vector<std::uint64_t>& v);

    const std::vector<std::uint8_t>& bytes() const& { return bytes_; }
    std::vector<std::uint8_t> bytes() && { return std::move(bytes_); }

  private:
    template <typename U>
    void appendLittleEndian(U v);

    std::vector<std::uint8_t> bytes_;
};

/**
 * Bounds-checked reader over an encoded payload.  Every read that would
 * cross the end of the buffer throws support::FatalError ("truncated"),
 * as does any enum/length field outside its valid range — a corrupted
 * or foreign payload can never silently decode.
 */
class Decoder {
  public:
    Decoder(const std::uint8_t* data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    explicit Decoder(const std::vector<std::uint8_t>& buffer)
        : Decoder(buffer.data(), buffer.size())
    {
    }

    std::uint8_t u8();
    std::uint16_t u16();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int64_t i64();
    double f64();
    bool boolean();
    std::string str();
    support::Duration duration();

    /**
     * Bulk column readers (v2 profile frames): `n` little-endian
     * elements in one bounds check + block copy.  `n` must already have
     * passed checkedCount; truncation is fatal as usual.
     */
    std::vector<double> f64Column(std::size_t n);
    std::vector<std::int64_t> i64Column(std::size_t n);
    std::vector<std::uint64_t> u64Column(std::size_t n);

    /** Bytes not yet consumed. */
    std::size_t remaining() const { return size_ - pos_; }

    /** True once the payload is fully consumed. */
    bool atEnd() const { return pos_ == size_; }

    /** Fail unless the payload was consumed exactly. */
    void expectEnd(const char* what) const;

  private:
    const std::uint8_t* need(std::size_t n);

    const std::uint8_t* data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Payloads
// ---------------------------------------------------------------------------

/** kSpecRequest payload: one campaign and the node it runs on. */
struct SpecRequest {
    sim::MachineConfig cfg;
    ScenarioSpec spec;
};

/** kCacheEntry payload: the full content key (CampaignCache::key) and
 *  the result it addresses. */
struct CacheEntry {
    std::string key;
    ProfileSet set;
};

/** A CacheEntry that borrows its key and set: it walks CacheEntry's
 *  field list, so it encodes to the same bytes without copying the set
 *  (CampaignCache::store). */
struct CacheEntryView {
    const std::string& key;
    const ProfileSet& set;
};

/**
 * Canonical payload bytes of one value.  Defined for ScenarioSpec,
 * ProfileSet, sim::MachineConfig, SpecRequest, CacheEntry,
 * CacheEntryView and std::string (kWorkerError).  A size pass over the same field list runs first, so
 * the buffer is allocated once at its exact size; a write that differs
 * from the count is a panic.
 */
template <typename T>
std::vector<std::uint8_t> encode(const T& value);

/** encode(value).size(), counted without writing a byte (same types). */
template <typename T>
std::size_t encodedSize(const T& value);

/**
 * Decode one whole payload of the same types; fatal on any out-of-range
 * count, enum or boolean, non-canonical bitmap, truncation or trailing
 * byte.
 */
template <typename T>
T decode(std::span<const std::uint8_t> payload);

/** Shorthand for decode<ProfileSet>. */
inline ProfileSet
decodeProfileSet(std::span<const std::uint8_t> bytes)
{
    return decode<ProfileSet>(bytes);
}

/**
 * Content-key bytes of one campaign: kVersion, then the spec and config
 * payloads.  The version makes any layout change expire every cached
 * result.
 */
std::string cacheKey(const ScenarioSpec& spec, const sim::MachineConfig& cfg);

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/** magic(4) + version(2) + type(2) + payload_len(8) + checksum(8). */
inline constexpr std::size_t kFrameHeaderBytes = 24;

/** Parsed frame header (payload follows on the wire). */
struct FrameHeader {
    FrameType type = FrameType::kSpecRequest;
    std::uint64_t payload_len = 0;
    std::uint64_t checksum = 0;
};

/** FNV-1a 64-bit hash: the cache blob address and the golden digest. */
std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t size);

/**
 * Guard for wire-derived lengths/counts: fatal when `n` is implausibly
 * large (a corrupted field must never be trusted with an allocation).
 * Every count the codec decodes passes through it.
 */
std::uint64_t checkedCount(std::uint64_t n, const char* what);

/** The header of a frame carrying `payload`, whose CRC-32C it holds. */
std::array<std::uint8_t, kFrameHeaderBytes> encodeFrameHeader(
    FrameType type, std::span<const std::uint8_t> payload);

/** Serialize header + payload into one wire buffer. */
std::vector<std::uint8_t> encodeFrame(
    FrameType type, const std::vector<std::uint8_t>& payload);

/**
 * Parse and validate a frame header; fatal on bad magic or a version
 * other than kVersion (the version-mismatch rejection contract).
 * `data` must hold kFrameHeaderBytes.
 */
FrameHeader decodeFrameHeader(const std::uint8_t* data);

/** Fatal unless the payload matches the header's checksum. */
void verifyFramePayload(const FrameHeader& header,
                        const std::uint8_t* payload);

/** One frame read off a stream. */
struct Frame {
    FrameType type = FrameType::kSpecRequest;
    std::vector<std::uint8_t> payload;
};

/** A frame validated in place: its payload views the parsed buffer and
 *  is valid only while that buffer lives. */
struct FrameView {
    FrameType type = FrameType::kSpecRequest;
    std::span<const std::uint8_t> payload;
};

/** Write header and payload (no concatenated copy); returns false on
 *  stream failure. */
bool writeFrame(std::ostream& out, FrameType type,
                const std::vector<std::uint8_t>& payload);

/**
 * Read one frame.  Clean EOF on the frame boundary returns nullopt;
 * EOF inside a frame, bad magic, foreign version or checksum mismatch
 * is fatal.
 */
std::optional<Frame> readFrame(std::istream& in);

/**
 * Validate a whole in-memory frame (header + payload, exact size) in
 * place: magic, version, type, length and checksum, copying no byte.
 * Fatal on any mismatch, like readFrame.
 */
FrameView parseFrame(std::span<const std::uint8_t> bytes);

}  // namespace fingrav::core::codec

#endif  // FINGRAV_FINGRAV_CODEC_HPP_
