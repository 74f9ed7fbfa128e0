#include "fingrav/codec.hpp"

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>
#include <type_traits>
#include <utility>

#include "support/crc32c.hpp"
#include "support/logging.hpp"

namespace fingrav::core::codec {

namespace {

using fingrav::support::Duration;

/** Hard cap on string/vector lengths: a corrupted length field must not
 *  turn into a multi-gigabyte allocation before the checksum/bounds
 *  checks have a chance to fire. */
constexpr std::uint64_t kMaxElementCount = 1ULL << 28;

}  // namespace

std::uint64_t
checkedCount(std::uint64_t n, const char* what)
{
    if (n > kMaxElementCount)
        support::fatal("codec: implausible ", what, " count ", n);
    return n;
}

const char*
toString(FrameType type)
{
    switch (type) {
      case FrameType::kSpecRequest:
        return "spec-request";
      case FrameType::kProfileSet:
        return "profile-set";
      case FrameType::kWorkerError:
        return "worker-error";
      case FrameType::kCacheEntry:
        return "cache-entry";
      case FrameType::kPing:
        return "ping";
      case FrameType::kPong:
        return "pong";
      case FrameType::kShutdown:
        return "shutdown";
    }
    return "unknown";
}

// ---------------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------------

/** The bytes of `v`, least significant first, in one append. */
template <typename U>
void
Encoder::appendLittleEndian(U v)
{
    const std::size_t at = bytes_.size();
    bytes_.resize(at + sizeof(U));
    for (std::size_t i = 0; i < sizeof(U); ++i)
        bytes_[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void
Encoder::u8(std::uint8_t v)
{
    bytes_.push_back(v);
}

void
Encoder::u16(std::uint16_t v)
{
    appendLittleEndian(v);
}

void
Encoder::u32(std::uint32_t v)
{
    appendLittleEndian(v);
}

void
Encoder::u64(std::uint64_t v)
{
    appendLittleEndian(v);
}

void
Encoder::i64(std::int64_t v)
{
    u64(static_cast<std::uint64_t>(v));
}

void
Encoder::f64(double v)
{
    u64(std::bit_cast<std::uint64_t>(v));
}

void
Encoder::boolean(bool v)
{
    u8(v ? 1 : 0);
}

void
Encoder::str(const std::string& v)
{
    u32(static_cast<std::uint32_t>(v.size()));
    bytes_.insert(bytes_.end(), v.begin(), v.end());
}

void
Encoder::duration(Duration v)
{
    i64(v.nanos());
}

namespace {

/** One contiguous little-endian element block (canonical bytes match the
 *  per-element writers exactly — the fast path is pure layout). */
template <typename T>
void
appendColumnBytes(std::vector<std::uint8_t>& bytes, const std::vector<T>& v)
{
    if constexpr (std::endian::native == std::endian::little) {
        const auto* raw = reinterpret_cast<const std::uint8_t*>(v.data());
        bytes.insert(bytes.end(), raw, raw + v.size() * sizeof(T));
    } else {
        for (const T x : v) {
            std::uint64_t u;
            if constexpr (std::is_same_v<T, double>)
                u = std::bit_cast<std::uint64_t>(x);
            else
                u = static_cast<std::uint64_t>(x);
            for (int shift = 0; shift < 64; shift += 8)
                bytes.push_back(static_cast<std::uint8_t>(u >> shift));
        }
    }
}

}  // namespace

void
Encoder::column(const std::vector<double>& v)
{
    appendColumnBytes(bytes_, v);
}

void
Encoder::column(const std::vector<std::int64_t>& v)
{
    appendColumnBytes(bytes_, v);
}

void
Encoder::column(const std::vector<std::uint64_t>& v)
{
    appendColumnBytes(bytes_, v);
}

// ---------------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------------

const std::uint8_t*
Decoder::need(std::size_t n)
{
    if (size_ - pos_ < n) {
        support::fatal("codec: truncated payload (need ", n, " bytes, ",
                       size_ - pos_, " left)");
    }
    const std::uint8_t* at = data_ + pos_;
    pos_ += n;
    return at;
}

std::uint8_t
Decoder::u8()
{
    return *need(1);
}

std::uint16_t
Decoder::u16()
{
    const std::uint8_t* p = need(2);
    return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t
Decoder::u32()
{
    const std::uint8_t* p = need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

std::uint64_t
Decoder::u64()
{
    const std::uint8_t* p = need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

std::int64_t
Decoder::i64()
{
    return static_cast<std::int64_t>(u64());
}

double
Decoder::f64()
{
    return std::bit_cast<double>(u64());
}

bool
Decoder::boolean()
{
    const std::uint8_t v = u8();
    if (v > 1)
        support::fatal("codec: corrupt boolean value ", int(v));
    return v == 1;
}

std::string
Decoder::str()
{
    const std::uint64_t n = checkedCount(u32(), "string");
    const std::uint8_t* p = need(n);
    return std::string(reinterpret_cast<const char*>(p), n);
}

Duration
Decoder::duration()
{
    return Duration::nanos(i64());
}

namespace {

/** Block-read `n` little-endian elements: one bounds check, one memcpy on
 *  little-endian hosts (zero-copy of the v2 column layout). */
template <typename T>
std::vector<T>
readColumn(const std::uint8_t* p, std::size_t n)
{
    std::vector<T> out(n);
    if constexpr (std::endian::native == std::endian::little) {
        if (n > 0)
            std::memcpy(out.data(), p, n * sizeof(T));
    } else {
        for (std::size_t i = 0; i < n; ++i) {
            std::uint64_t u = 0;
            for (int b = 0; b < 8; ++b)
                u |= static_cast<std::uint64_t>(p[i * 8 + b]) << (8 * b);
            if constexpr (std::is_same_v<T, double>)
                out[i] = std::bit_cast<double>(u);
            else
                out[i] = static_cast<T>(u);
        }
    }
    return out;
}

}  // namespace

std::vector<double>
Decoder::f64Column(std::size_t n)
{
    return readColumn<double>(need(n * sizeof(double)), n);
}

std::vector<std::int64_t>
Decoder::i64Column(std::size_t n)
{
    return readColumn<std::int64_t>(need(n * sizeof(std::int64_t)), n);
}

std::vector<std::uint64_t>
Decoder::u64Column(std::size_t n)
{
    return readColumn<std::uint64_t>(need(n * sizeof(std::uint64_t)), n);
}

void
Decoder::expectEnd(const char* what) const
{
    if (!atEnd()) {
        support::fatal("codec: ", remaining(), " trailing bytes after ",
                       what);
    }
}

// ---------------------------------------------------------------------------
// Field lists
//
// One list per serialized type, in wire order; put (over an Encoder or
// a SizeCounter), get and same walk it and derive each field's wire form
// from its C++ type.  A new field is one entry in its type's list plus a
// kVersion bump.
// ---------------------------------------------------------------------------

namespace {

/** T is one of U..., possibly const: one list serves encode (const) and
 *  decode. */
template <typename T, typename... U>
concept Is = (std::same_as<std::remove_const_t<T>, U> || ...);

decltype(auto)
fields(Is<ProfilerOptions> auto& o, auto&& f)
{
    return f(o.device, o.runs_override, o.margin_override, o.sse_executions,
             o.timing_reps, o.min_delay, o.max_delay, o.sync_mode, o.binning,
             o.collect_extra_runs, o.max_extra_run_factor, o.stability_eps,
             o.logger_window, o.target_bin);
}

decltype(auto)
fields(Is<BackgroundLoad> auto& l, auto&& f)
{
    return f(l.kind, l.kernel, l.demand, l.device, l.queue, l.offset,
             l.period, l.duty_cycle, l.cycles, l.jitter_sigma);
}

decltype(auto)
fields(Is<ScenarioSpec> auto& s, auto&& f)
{
    return f(s.label, s.seed, s.opts, s.devices, s.background);
}

decltype(auto)
fields(Is<GuidanceEntry> auto& g, auto&& f)
{
    return f(g.exec_lo, g.exec_hi, g.runs, g.loi_per, g.binning_margin);
}

decltype(auto)
fields(Is<BinningResult> auto& b, auto&& f)
{
    return f(b.bin_center, b.golden_runs, b.total_runs);
}

decltype(auto)
fields(Is<ProfileSet> auto& s, auto&& f)
{
    return f(s.label, s.measured_exec_time, s.guidance, s.runs_executed,
             s.binning, s.sse_exec_index, s.ssp_exec_index, s.execs_per_run,
             s.ssp_exec_time, s.loi_target, s.read_delay_us, s.drift_ppm,
             s.sse, s.ssp, s.timeline);
}

decltype(auto)
fields(Is<sim::PowerModelParams> auto& p, auto&& f)
{
    return f(p.xcd_idle_w, p.iod_idle_w, p.hbm_idle_w, p.misc_w, p.xcd_dyn_w,
             p.xcd_residency_weight, p.xcd_issue_weight, p.iod_llc_w,
             p.iod_hbmphy_w, p.iod_fabric_w, p.hbm_dyn_w, p.leakage_fraction,
             p.leakage_temp_coeff, p.t_ref_c, p.voltage_floor);
}

decltype(auto)
fields(Is<sim::DvfsGovernorParams> auto& d, auto&& f)
{
    return f(d.boost_ratio, d.min_ratio, d.idle_ratio, d.sustained_limit_w,
             d.peak_limit_w, d.fast_tau, d.slow_tau, d.excursion_cut,
             d.excursion_hold, d.kp_per_us, d.recovery_per_us,
             d.idle_park_delay, d.boost_budget, d.nominal_ratio,
             d.recovery_guard);
}

decltype(auto)
fields(Is<sim::ThermalParams> auto& t, auto&& f)
{
    return f(t.ambient_c, t.resistance_c_per_w, t.time_constant);
}

/** Declaration order; the nested parameter blocks come last. */
decltype(auto)
fields(Is<sim::MachineConfig> auto& c, auto&& f)
{
    return f(c.num_xcds, c.cus_per_xcd, c.num_iods, c.num_hbm_stacks,
             c.peak_matrix_flops, c.peak_vector_flops, c.hbm_bandwidth,
             c.llc_bandwidth, c.llc_capacity, c.l2_capacity_per_xcd,
             c.hbm_capacity, c.node_gpus, c.fabric_links,
             c.fabric_link_bandwidth, c.boost_frequency_hz,
             c.nominal_frequency_hz, c.idle_frequency_hz, c.timestamp_tick,
             c.gpu_clock_drift_ppm, c.power_step, c.idle_step,
             c.logger_window, c.logger_noise_w, c.launch_overhead,
             c.sync_overhead, c.timestamp_read_delay,
             c.timestamp_read_jitter, c.exec_time_sigma,
             c.outlier_run_probability, c.outlier_slowdown_min,
             c.outlier_slowdown_max, c.power, c.dvfs, c.thermal);
}

decltype(auto)
fields(Is<SpecRequest> auto& r, auto&& f)
{
    return f(r.cfg, r.spec);
}

/** The borrowed view walks the owning entry's list: same bytes. */
decltype(auto)
fields(Is<CacheEntry, CacheEntryView> auto& e, auto&& f)
{
    return f(e.key, e.set);
}

/** Types with a field list above. */
template <typename T>
concept Listed = requires(const T& v) { fields(v, [](const auto&...) {}); };

/**
 * The v2 columnar profile block after label, kind and point count n: one
 * contiguous block per column in this order, the last being the packed
 * contention bitmap — (n + 63) / 64 u64 words whose bits past n MUST be
 * zero (canonical form; decode rejects trailing garbage).  No column
 * carries its own count.
 */
decltype(auto)
columns(const PowerProfile& p, auto&& f)
{
    return f(p.toiUs(), p.toiFrac(), p.runTimeUs(), p.gpuTimestamps(),
             p.railColumn(Rail::kTotal), p.railColumn(Rail::kXcd),
             p.railColumn(Rail::kIod), p.railColumn(Rail::kHbm),
             p.runIndices(), p.execIndices(), p.contendedWords());
}

/** Largest valid value and printable name of each encoded enum. */
constexpr std::pair<SyncMode, const char*>
enumRange(SyncMode)
{
    return {SyncMode::kCoarseAlign, "sync mode"};
}

constexpr std::pair<BackgroundKind, const char*>
enumRange(BackgroundKind)
{
    return {BackgroundKind::kFabricDemand, "background kind"};
}

constexpr std::pair<ProfileKind, const char*>
enumRange(ProfileKind)
{
    return {ProfileKind::kTimeline, "profile kind"};
}

template <typename T>
constexpr bool kIsOptional = false;
template <typename T>
constexpr bool kIsOptional<std::optional<T>> = true;

template <typename T>
constexpr bool kIsVector = false;
template <typename T>
constexpr bool kIsVector<std::vector<T>> = true;

// ---------------------------------------------------------------------------
// put / get / same
// ---------------------------------------------------------------------------

/**
 * Encoder's writers, counting instead of writing: put(counter, v) walks
 * the same field list as put(encoder, v) and adds up the bytes it would
 * append, so encode can allocate its buffer once.
 */
class SizeCounter {
  public:
    void u8(std::uint8_t v) { size_ += sizeof v; }
    void u16(std::uint16_t v) { size_ += sizeof v; }
    void u32(std::uint32_t v) { size_ += sizeof v; }
    void u64(std::uint64_t v) { size_ += sizeof v; }
    void f64(double v) { size_ += sizeof v; }
    void boolean(bool) { size_ += 1; }
    void str(const std::string& v) { size_ += 4 + v.size(); }
    void duration(Duration) { size_ += 8; }

    template <typename T>
    void column(const std::vector<T>& v) { size_ += sizeof(T) * v.size(); }

    std::size_t size() const { return size_; }

  private:
    std::size_t size_ = 0;
};

/** W is an Encoder or a SizeCounter. */
template <typename W, typename T>
void
put(W& enc, const T& v)
{
    if constexpr (std::is_same_v<T, bool>) {
        enc.boolean(v);
    } else if constexpr (std::is_enum_v<T>) {
        enc.u8(static_cast<std::uint8_t>(v));
    } else if constexpr (std::is_same_v<T, double>) {
        enc.f64(v);
    } else if constexpr (std::is_integral_v<T> && sizeof(T) == 8) {
        enc.u64(static_cast<std::uint64_t>(v));
    } else if constexpr (std::is_same_v<T, std::uint16_t>) {
        enc.u16(v);
    } else if constexpr (std::is_same_v<T, std::string>) {
        enc.str(v);
    } else if constexpr (std::is_same_v<T, Duration>) {
        enc.duration(v);
    } else if constexpr (kIsOptional<T>) {
        enc.boolean(v.has_value());
        if (v.has_value())
            put(enc, *v);
    } else if constexpr (kIsVector<T>) {
        enc.u32(static_cast<std::uint32_t>(v.size()));
        for (const auto& x : v)
            put(enc, x);
    } else if constexpr (std::is_same_v<T, PowerProfile>) {
        enc.str(v.label());
        put(enc, v.kind());
        enc.u32(static_cast<std::uint32_t>(v.size()));
        columns(v, [&](const auto&... c) { (enc.column(c), ...); });
    } else {
        fields(v, [&](const auto&... x) { (put(enc, x), ...); });
    }
}

template <typename T>
void get(Decoder& dec, T& v);

PowerProfile
getProfile(Decoder& dec)
{
    const std::string label = dec.str();
    ProfileKind kind{};
    get(dec, kind);
    PowerProfile profile(label, kind);
    const auto n = static_cast<std::size_t>(
        checkedCount(dec.u32(), "profile-point"));
    auto toi_us = dec.f64Column(n);
    auto toi_frac = dec.f64Column(n);
    auto run_time_us = dec.f64Column(n);
    auto gpu_timestamp = dec.i64Column(n);
    auto total_w = dec.f64Column(n);
    auto xcd_w = dec.f64Column(n);
    auto iod_w = dec.f64Column(n);
    auto hbm_w = dec.f64Column(n);
    auto run_index = dec.u64Column(n);
    auto exec_index = dec.u64Column(n);
    auto contended_words = dec.u64Column((n + 63) / 64);
    if (n % 64 != 0 && !contended_words.empty()) {
        const std::uint64_t tail_mask = ~std::uint64_t{0} << (n % 64);
        if ((contended_words.back() & tail_mask) != 0) {
            support::fatal("codec: profile contention bitmap has set bits "
                           "past the point count (non-canonical frame)");
        }
    }
    profile.adoptColumns(n, std::move(toi_us), std::move(toi_frac),
                         std::move(run_time_us), std::move(gpu_timestamp),
                         std::move(total_w), std::move(xcd_w),
                         std::move(iod_w), std::move(hbm_w),
                         std::move(run_index), std::move(exec_index),
                         std::move(contended_words));
    return profile;
}

template <typename T>
void
get(Decoder& dec, T& v)
{
    if constexpr (std::is_same_v<T, bool>) {
        v = dec.boolean();
    } else if constexpr (std::is_enum_v<T>) {
        const std::uint8_t raw = dec.u8();
        const auto [last, name] = enumRange(T{});
        if (raw > static_cast<std::uint8_t>(last))
            support::fatal("codec: invalid ", name, " ", int(raw));
        v = static_cast<T>(raw);
    } else if constexpr (std::is_same_v<T, double>) {
        v = dec.f64();
    } else if constexpr (std::is_integral_v<T> && sizeof(T) == 8) {
        v = static_cast<T>(dec.u64());
    } else if constexpr (std::is_same_v<T, std::string>) {
        v = dec.str();
    } else if constexpr (std::is_same_v<T, Duration>) {
        v = dec.duration();
    } else if constexpr (kIsOptional<T>) {
        if (dec.boolean())
            get(dec, v.emplace());
    } else if constexpr (kIsVector<T>) {
        // No reserve: a corrupt count below the cap must fail on
        // truncation, not first allocate for every element it claims.
        const std::uint64_t n = checkedCount(dec.u32(), "list-element");
        for (std::uint64_t i = 0; i < n; ++i)
            get(dec, v.emplace_back());
    } else if constexpr (std::is_same_v<T, PowerProfile>) {
        v = getProfile(dec);
    } else {
        fields(v, [&](auto&... x) { (get(dec, x), ...); });
    }
}

/** Bitwise equality: doubles compare as bit patterns (-0.0 differs from
 *  +0.0, equal NaN bits are equal), exactly as their encodings would. */
template <typename T>
bool
same(const T& a, const T& b)
{
    if constexpr (std::is_same_v<T, double>) {
        return std::bit_cast<std::uint64_t>(a) ==
               std::bit_cast<std::uint64_t>(b);
    } else if constexpr (kIsOptional<T>) {
        return a.has_value() == b.has_value() &&
               (!a.has_value() || same(*a, *b));
    } else if constexpr (kIsVector<T>) {
        using E = typename T::value_type;
        if constexpr (std::is_arithmetic_v<E>) {
            // Element bytes: bit patterns for doubles, exact for integers.
            return a.size() == b.size() &&
                   (a.empty() || std::memcmp(a.data(), b.data(),
                                             a.size() * sizeof(E)) == 0);
        } else {
            const auto same_element = [](const E& x, const E& y) {
                return same(x, y);
            };
            return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                              same_element);
        }
    } else if constexpr (std::is_same_v<T, PowerProfile>) {
        const auto pairwise = [&](const auto&... x) {
            return columns(b, [&](const auto&... y) {
                return (same(x, y) && ...);
            });
        };
        return a.label() == b.label() && a.kind() == b.kind() &&
               a.size() == b.size() && columns(a, pairwise);
    } else if constexpr (Listed<T>) {
        return fields(a, [&](const auto&... x) {
            return fields(b, [&](const auto&... y) {
                return (same(x, y) && ...);
            });
        });
    } else {
        return a == b;
    }
}

/**
 * `walk(w)` puts a payload's values to w: run it over a SizeCounter,
 * then over an Encoder reserved to that count.  The two walks must
 * agree byte for byte, or a field list and a writer drifted apart.
 */
std::vector<std::uint8_t>
encodeSized(const auto& walk)
{
    SizeCounter counter;
    walk(counter);
    Encoder enc;
    enc.reserve(counter.size());
    walk(enc);
    if (enc.bytes().size() != counter.size()) {
        support::panic("codec: encoded ", enc.bytes().size(),
                       " bytes where the size pass counted ",
                       counter.size());
    }
    return std::move(enc).bytes();
}

}  // namespace

template <typename T>
std::vector<std::uint8_t>
encode(const T& value)
{
    return encodeSized([&](auto& w) { put(w, value); });
}

template <typename T>
std::size_t
encodedSize(const T& value)
{
    SizeCounter counter;
    put(counter, value);
    return counter.size();
}

template <typename T>
T
decode(std::span<const std::uint8_t> payload)
{
    Decoder dec(payload.data(), payload.size());
    T value{};
    get(dec, value);
    dec.expectEnd("payload");
    return value;
}

template std::vector<std::uint8_t> encode(const ScenarioSpec&);
template std::vector<std::uint8_t> encode(const ProfileSet&);
template std::vector<std::uint8_t> encode(const sim::MachineConfig&);
template std::vector<std::uint8_t> encode(const SpecRequest&);
template std::vector<std::uint8_t> encode(const CacheEntry&);
template std::vector<std::uint8_t> encode(const CacheEntryView&);
template std::vector<std::uint8_t> encode(const std::string&);
template std::size_t encodedSize(const ScenarioSpec&);
template std::size_t encodedSize(const ProfileSet&);
template std::size_t encodedSize(const sim::MachineConfig&);
template std::size_t encodedSize(const SpecRequest&);
template std::size_t encodedSize(const CacheEntry&);
template std::size_t encodedSize(const CacheEntryView&);
template std::size_t encodedSize(const std::string&);
template ScenarioSpec decode(std::span<const std::uint8_t>);
template ProfileSet decode(std::span<const std::uint8_t>);
template sim::MachineConfig decode(std::span<const std::uint8_t>);
template SpecRequest decode(std::span<const std::uint8_t>);
template CacheEntry decode(std::span<const std::uint8_t>);
template std::string decode(std::span<const std::uint8_t>);

std::string
cacheKey(const ScenarioSpec& spec, const sim::MachineConfig& cfg)
{
    const auto bytes = encodeSized([&](auto& w) {
        put(w, kVersion);
        put(w, spec);
        put(w, cfg);
    });
    return std::string(bytes.begin(), bytes.end());
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

std::uint64_t
fnv1a64(const std::uint8_t* data, std::size_t size)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= data[i];
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

std::array<std::uint8_t, kFrameHeaderBytes>
encodeFrameHeader(FrameType type, std::span<const std::uint8_t> payload)
{
    Encoder enc;
    enc.reserve(kFrameHeaderBytes);
    enc.u32(kMagic);
    enc.u16(kVersion);
    enc.u16(static_cast<std::uint16_t>(type));
    enc.u64(payload.size());
    enc.u64(support::crc32c(payload.data(), payload.size()));
    std::array<std::uint8_t, kFrameHeaderBytes> header;
    std::copy(enc.bytes().begin(), enc.bytes().end(), header.begin());
    return header;
}

std::vector<std::uint8_t>
encodeFrame(FrameType type, const std::vector<std::uint8_t>& payload)
{
    const auto header = encodeFrameHeader(type, payload);
    std::vector<std::uint8_t> out;
    out.reserve(header.size() + payload.size());
    out.insert(out.end(), header.begin(), header.end());
    out.insert(out.end(), payload.begin(), payload.end());
    return out;
}

FrameHeader
decodeFrameHeader(const std::uint8_t* data)
{
    Decoder dec(data, kFrameHeaderBytes);
    const std::uint32_t magic = dec.u32();
    if (magic != kMagic)
        support::fatal("codec: bad frame magic 0x", std::hex, magic);
    const std::uint16_t version = dec.u16();
    if (version != kVersion) {
        support::fatal("codec: frame version ", version,
                       " does not match this build's version ", kVersion,
                       "; driver and worker binaries must match");
    }
    FrameHeader header;
    const std::uint16_t type = dec.u16();
    if (type < static_cast<std::uint16_t>(FrameType::kSpecRequest) ||
        type > static_cast<std::uint16_t>(FrameType::kShutdown))
        support::fatal("codec: unknown frame type ", type);
    header.type = static_cast<FrameType>(type);
    // Validated here so every reader — stream- or fd-based — rejects a
    // corrupt length before trusting it with an allocation.
    header.payload_len = checkedCount(dec.u64(), "frame-payload byte");
    header.checksum = dec.u64();
    return header;
}

void
verifyFramePayload(const FrameHeader& header, const std::uint8_t* payload)
{
    // The stored field is 8 bytes wide: a set high half is corruption too.
    const std::uint64_t sum =
        support::crc32c(payload, static_cast<std::size_t>(header.payload_len));
    if (sum != header.checksum) {
        support::fatal("codec: ", toString(header.type),
                       " frame payload checksum mismatch (corrupt or "
                       "truncated stream)");
    }
}

bool
writeFrame(std::ostream& out, FrameType type,
           const std::vector<std::uint8_t>& payload)
{
    const auto header = encodeFrameHeader(type, payload);
    out.write(reinterpret_cast<const char*>(header.data()),
              static_cast<std::streamsize>(header.size()));
    out.write(reinterpret_cast<const char*>(payload.data()),
              static_cast<std::streamsize>(payload.size()));
    out.flush();
    return static_cast<bool>(out);
}

std::optional<Frame>
readFrame(std::istream& in)
{
    std::uint8_t header_bytes[kFrameHeaderBytes];
    in.read(reinterpret_cast<char*>(header_bytes), kFrameHeaderBytes);
    if (in.gcount() == 0 && in.eof())
        return std::nullopt;  // clean EOF on the frame boundary
    if (static_cast<std::size_t>(in.gcount()) != kFrameHeaderBytes)
        support::fatal("codec: truncated frame header (", in.gcount(),
                       " of ", kFrameHeaderBytes, " bytes)");
    const auto header = decodeFrameHeader(header_bytes);
    Frame frame;
    frame.type = header.type;
    frame.payload.resize(static_cast<std::size_t>(header.payload_len));
    if (header.payload_len > 0) {
        in.read(reinterpret_cast<char*>(frame.payload.data()),
                static_cast<std::streamsize>(header.payload_len));
        if (static_cast<std::uint64_t>(in.gcount()) != header.payload_len)
            support::fatal("codec: truncated ", toString(header.type),
                           " frame payload");
    }
    verifyFramePayload(header, frame.payload.data());
    return frame;
}

FrameView
parseFrame(std::span<const std::uint8_t> bytes)
{
    if (bytes.size() < kFrameHeaderBytes)
        support::fatal("codec: frame shorter than its header");
    const auto header = decodeFrameHeader(bytes.data());
    const auto payload = bytes.subspan(kFrameHeaderBytes);
    if (payload.size() != header.payload_len)
        support::fatal("codec: frame length mismatch (header claims ",
                       header.payload_len, " payload bytes, buffer has ",
                       payload.size(), ")");
    verifyFramePayload(header, payload.data());
    return {header.type, payload};
}

}  // namespace fingrav::core::codec

namespace fingrav::core {

bool
identicalProfileSets(const ProfileSet& a, const ProfileSet& b)
{
    return codec::same(a, b);
}

}  // namespace fingrav::core
