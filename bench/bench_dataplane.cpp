/**
 * @file
 * Data-plane benchmark: the columnar (SoA) profile kernels against
 * in-bench scalar baselines that replicate the retired AoS layout, with
 * bitwise-equality verification on every scenario.
 *
 * Four scenarios cover the profile data plane end to end:
 *
 *  1. rail_reduction — the full reduction suite (mean/min/max on all
 *     four rails plus the contended/uncontended split means) through
 *     PowerProfile::railStats, against the seed's per-accessor loops
 *     over a materialized std::vector<ProfilePoint>.
 *
 *  2. percentile — the order-statistics battery (seven percentiles)
 *     through support::percentile (copy + nth_element selection),
 *     against the seed's copy + full std::sort + interpolation.
 *
 *  3. codec — ProfileSet encode/decode through the v2 columnar codec
 *     (one contiguous block per column, decode adopting columns
 *     wholesale), against an in-bench replica of the v1 field-wise
 *     per-point layout built from the same Encoder/Decoder primitives.
 *     Reports MB/s both ways and the heap allocations one v2 decode
 *     performs (counted by a bench-local global operator new): the
 *     column decode should stay at a handful of vector allocations, not
 *     one per point.
 *
 *  4. stitch_append — bulk timeline assembly through
 *     PowerProfile::appendTimelineRun (one resize, tight per-column
 *     loops), against the seed's per-sample ProfilePoint temporaries
 *     fed through add().
 *
 * Two more cover the SIMD-explicit kernels and the capture-time SoA
 * (support/simd.hpp; sim::SampleColumns):
 *
 *  5. filtered_reduction — the contention-filtered railStats path
 *     (word-skipping bitmap kernel) against the pre-PR per-point
 *     branchy loop, on a blocky contention pattern like the one real
 *     background-active intervals produce.  Floor: >= 1.5x.
 *
 *  6. capture_to_stitch — end to end from window emission to stitched
 *     ProfileSet: columnar capture + translateColumn + 4-wide boundary
 *     scans + bulk column appends (the production ProfileStitcher)
 *     against an in-bench replica of the pre-PR path (row capture,
 *     per-sample translation calls, branchy scans, transposing
 *     appendTimelineRun).  Floor: >= 1.3x.
 *
 * Every scenario hard-fails on any bitwise divergence between baseline
 * and columnar results, smoke or not — including in forced-scalar
 * (FINGRAV_FORCE_SCALAR_SIMD) builds, where the shim routes through its
 * scalar fallbacks and the speedup floors are reported but not enforced.
 * In full SIMD-enabled mode at least two of the four original kernels
 * must clear 2x, filtered_reduction must clear 1.5x and
 * capture_to_stitch 1.3x (floors tracked by tools/bench_regression.py);
 * results go to BENCH_dataplane.json.
 *
 * Usage: bench_dataplane [--smoke] [--out PATH]
 *   --smoke   reduced problem sizes, thresholds reported but not enforced
 *   --out     output JSON path (default BENCH_dataplane.json)
 */

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <new>
#include <string>
#include <vector>

#include "fingrav/campaign_runner.hpp"
#include "fingrav/codec.hpp"
#include "fingrav/profile.hpp"
#include "fingrav/profiler.hpp"
#include "fingrav/run_executor.hpp"
#include "fingrav/stitcher.hpp"
#include "fingrav/time_sync.hpp"
#include "runtime/host_runtime.hpp"
#include "sim/machine_config.hpp"
#include "sim/power_logger.hpp"
#include "sim/simulation.hpp"
#include "support/simd.hpp"
#include "support/statistics.hpp"
#include "tools/bench_json.hpp"

namespace fc = fingrav::core;
namespace fs = fingrav::support;
namespace sim = fingrav::sim;
namespace tools = fingrav::tools;

namespace {

/** Heap-allocation counter behind the replaced global operator new. */
std::atomic<std::uint64_t> g_alloc_count{0};

}  // namespace

// Bench-local allocation accounting: the minimal replaceable pair.  The
// aligned overloads fall through to the default implementation, which is
// fine — the codec's column vectors use the plain form.
void*
operator new(std::size_t size)
{
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete[](void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

double
wallMs(const std::chrono::steady_clock::time_point& t0)
{
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/** Bit-pattern equality: distinguishes -0.0 from +0.0 and survives any
 *  future NaN in the pipeline, unlike operator==. */
bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/** Deterministic xorshift64* stream (the bench needs repeatable data,
 *  not statistical quality). */
struct Xorshift {
    std::uint64_t state;

    explicit Xorshift(std::uint64_t seed) : state(seed | 1) {}

    std::uint64_t
    next()
    {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        return state * 0x2545F4914F6CDD1DULL;
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        const double u =
            static_cast<double>(next() >> 11) * 0x1.0p-53;
        return lo + u * (hi - lo);
    }
};

/** Synthetic profile with every column exercised (mixed contention,
 *  spread rails, multiple runs/execs). */
fc::PowerProfile
makeProfile(std::size_t n, fc::ProfileKind kind, std::uint64_t seed)
{
    Xorshift rng(seed);
    fc::PowerProfile prof("bench", kind);
    prof.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        sim::PowerSample s;
        s.gpu_timestamp = static_cast<std::int64_t>(i * 97 + (rng.next() & 7));
        s.total_w = rng.uniform(80.0, 760.0);
        s.xcd_w = rng.uniform(30.0, 500.0);
        s.iod_w = rng.uniform(10.0, 120.0);
        s.hbm_w = rng.uniform(20.0, 140.0);
        prof.addRow(rng.uniform(0.0, 900.0), rng.uniform(0.0, 1.0),
                    rng.uniform(0.0, 50'000.0), s, i % 60, i % 24,
                    (rng.next() & 3) == 0);
    }
    return prof;
}

bool
profilesBitIdentical(const fc::PowerProfile& a, const fc::PowerProfile& b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (!(a.point(i) == b.point(i)))
            return false;
    }
    return a.contendedWords() == b.contendedWords();
}

/** Best wall time of `reps` runs of `fn` (first run warms caches). */
template <typename Fn>
double
bestMs(int reps, Fn&& fn)
{
    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        const double ms = wallMs(t0);
        if (r == 0 || ms < best)
            best = ms;
    }
    return best;
}

// ---------------------------------------------------------------------------
// Scenario 1: rail reductions — per-accessor AoS loops vs railStats
// ---------------------------------------------------------------------------

constexpr fc::Rail kRails[] = {fc::Rail::kTotal, fc::Rail::kXcd,
                               fc::Rail::kIod, fc::Rail::kHbm};

/** The seed's reduction suite over the materialized AoS vector: one
 *  loop per accessor, per-point railValue dispatch — 14 results (mean,
 *  min, max per rail; contended/uncontended total-rail means). */
std::vector<double>
reductionSuiteAos(const std::vector<fc::ProfilePoint>& pts)
{
    std::vector<double> out;
    out.reserve(14);
    for (const fc::Rail rail : kRails) {
        double acc = 0.0;
        for (const auto& p : pts)
            acc += fc::railValue(p.sample, rail);
        out.push_back(pts.empty()
                          ? 0.0
                          : acc / static_cast<double>(pts.size()));
        double mn = pts.empty() ? 0.0 : fc::railValue(pts[0].sample, rail);
        for (const auto& p : pts)
            mn = std::min(mn, fc::railValue(p.sample, rail));
        out.push_back(mn);
        double mx = pts.empty() ? 0.0 : fc::railValue(pts[0].sample, rail);
        for (const auto& p : pts)
            mx = std::max(mx, fc::railValue(p.sample, rail));
        out.push_back(mx);
    }
    for (const bool contended : {false, true}) {
        double acc = 0.0;
        std::size_t count = 0;
        for (const auto& p : pts) {
            if (p.contended != contended)
                continue;
            acc += p.sample.total_w;
            ++count;
        }
        out.push_back(count ? acc / static_cast<double>(count) : 0.0);
    }
    return out;
}

/** The same 14 results through the columnar kernel. */
std::vector<double>
reductionSuiteSoa(const fc::PowerProfile& prof)
{
    std::vector<double> out;
    out.reserve(14);
    for (const fc::Rail rail : kRails) {
        const auto st = prof.railStats(rail);
        out.push_back(st.mean());
        out.push_back(st.min);
        out.push_back(st.max);
    }
    out.push_back(prof.meanPowerWhere(false));
    out.push_back(prof.meanPowerWhere(true));
    return out;
}

bool
runRailReduction(tools::BenchReport& report, bool smoke, double& speedup_out)
{
    const std::size_t n = smoke ? 50'000 : 1'000'000;
    const int reps = smoke ? 3 : 5;
    const auto prof = makeProfile(n, fc::ProfileKind::kSsp, 11);

    // The AoS baseline gets its vector materialized up front — only the
    // reduction loops are timed, not the layout conversion.
    std::vector<fc::ProfilePoint> pts;
    pts.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        pts.push_back(prof.point(i));

    std::vector<double> aos;
    const double aos_ms = bestMs(reps, [&] { aos = reductionSuiteAos(pts); });
    std::vector<double> soa;
    const double soa_ms = bestMs(reps, [&] { soa = reductionSuiteSoa(prof); });

    bool identical = aos.size() == soa.size();
    for (std::size_t i = 0; identical && i < aos.size(); ++i)
        identical = sameBits(aos[i], soa[i]);
    const double speedup = soa_ms > 0.0 ? aos_ms / soa_ms : 0.0;
    speedup_out = speedup;

    auto& s = report.scenario("rail_reduction");
    s.note("description",
           "mean/min/max x 4 rails + contention-split means: AoS "
           "per-accessor loops vs columnar railStats");
    s.metric("points", static_cast<std::uint64_t>(n));
    s.metric("aos_wall_ms", aos_ms);
    s.metric("soa_wall_ms", soa_ms);
    s.metric("speedup", speedup);
    s.note("bit_identical", identical ? "yes" : "NO");

    std::cout << "rail_reduction: AoS " << aos_ms << " ms, SoA " << soa_ms
              << " ms, speedup " << speedup << "x, bit-identical: "
              << (identical ? "yes" : "NO") << "\n";
    if (!identical)
        std::cerr << "FAIL: railStats diverged from the AoS reference\n";
    return identical;
}

// ---------------------------------------------------------------------------
// Scenario 2: percentiles — copy+sort vs copy+nth_element
// ---------------------------------------------------------------------------

constexpr double kPercentiles[] = {1.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9};

/** The seed's percentile: copy, full sort, interpolate. */
double
percentileSorted(std::vector<double> xs, double p)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const double rank =
        p / 100.0 * static_cast<double>(xs.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const auto hi = std::min(lo + 1, xs.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

bool
runPercentile(tools::BenchReport& report, bool smoke, double& speedup_out)
{
    const std::size_t n = smoke ? 50'000 : 1'000'000;
    const int reps = smoke ? 3 : 5;
    Xorshift rng(23);
    std::vector<double> xs;
    xs.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        xs.push_back(rng.uniform(50.0, 5'000.0));

    std::vector<double> sorted_vals(std::size(kPercentiles));
    const double sort_ms = bestMs(reps, [&] {
        for (std::size_t i = 0; i < std::size(kPercentiles); ++i)
            sorted_vals[i] = percentileSorted(xs, kPercentiles[i]);
    });
    std::vector<double> select_vals(std::size(kPercentiles));
    const double select_ms = bestMs(reps, [&] {
        for (std::size_t i = 0; i < std::size(kPercentiles); ++i)
            select_vals[i] = fs::percentile(xs, kPercentiles[i]);
    });

    bool identical = true;
    for (std::size_t i = 0; i < std::size(kPercentiles); ++i)
        identical = identical && sameBits(sorted_vals[i], select_vals[i]);
    const double speedup = select_ms > 0.0 ? sort_ms / select_ms : 0.0;
    speedup_out = speedup;

    auto& s = report.scenario("percentile");
    s.note("description",
           "seven percentiles over one sample: full sort vs nth_element "
           "selection");
    s.metric("points", static_cast<std::uint64_t>(n));
    s.metric("sort_wall_ms", sort_ms);
    s.metric("select_wall_ms", select_ms);
    s.metric("speedup", speedup);
    s.note("bit_identical", identical ? "yes" : "NO");

    std::cout << "percentile: sort " << sort_ms << " ms, select "
              << select_ms << " ms, speedup " << speedup
              << "x, bit-identical: " << (identical ? "yes" : "NO") << "\n";
    if (!identical)
        std::cerr << "FAIL: nth_element percentile diverged from the sort "
                     "reference\n";
    return identical;
}

// ---------------------------------------------------------------------------
// Scenario 3: codec — v1 field-wise point replica vs v2 columnar
// ---------------------------------------------------------------------------

/** Replica of the v1 per-point profile layout (field-interleaved
 *  records), built from the same Encoder primitives the v1 codec used. */
void
encodeProfileV1(fc::codec::Encoder& enc, const fc::PowerProfile& prof)
{
    enc.str(prof.label());
    enc.u8(static_cast<std::uint8_t>(prof.kind()));
    enc.u32(static_cast<std::uint32_t>(prof.size()));
    for (const auto& p : prof.points()) {
        enc.f64(p.toi_us);
        enc.f64(p.toi_frac);
        enc.f64(p.run_time_us);
        enc.i64(p.sample.gpu_timestamp);
        enc.f64(p.sample.total_w);
        enc.f64(p.sample.xcd_w);
        enc.f64(p.sample.iod_w);
        enc.f64(p.sample.hbm_w);
        enc.u64(p.run_index);
        enc.u64(p.exec_index);
        enc.boolean(p.contended);
    }
}

fc::PowerProfile
decodeProfileV1(fc::codec::Decoder& dec)
{
    const std::string label = dec.str();
    const auto kind = static_cast<fc::ProfileKind>(dec.u8());
    const auto n = static_cast<std::size_t>(
        fc::codec::checkedCount(dec.u32(), "v1 bench profile points"));
    fc::PowerProfile prof(label, kind);
    prof.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        fc::ProfilePoint p;
        p.toi_us = dec.f64();
        p.toi_frac = dec.f64();
        p.run_time_us = dec.f64();
        p.sample.gpu_timestamp = dec.i64();
        p.sample.total_w = dec.f64();
        p.sample.xcd_w = dec.f64();
        p.sample.iod_w = dec.f64();
        p.sample.hbm_w = dec.f64();
        p.run_index = dec.u64();
        p.exec_index = dec.u64();
        p.contended = dec.boolean();
        prof.add(p);
    }
    return prof;
}

bool
runCodec(tools::BenchReport& report, bool smoke, double& speedup_out)
{
    const std::size_t n = smoke ? 40'000 : 400'000;
    const int reps = smoke ? 3 : 5;
    fc::ProfileSet set;
    set.label = "bench";
    set.sse = makeProfile(n / 8, fc::ProfileKind::kSse, 31);
    set.ssp = makeProfile(n / 2, fc::ProfileKind::kSsp, 37);
    set.timeline = makeProfile(n, fc::ProfileKind::kTimeline, 41);

    // v1 replica: the three profiles as field-interleaved point records.
    std::vector<std::uint8_t> v1_bytes;
    const double v1_enc_ms = bestMs(reps, [&] {
        fc::codec::Encoder enc;
        encodeProfileV1(enc, set.sse);
        encodeProfileV1(enc, set.ssp);
        encodeProfileV1(enc, set.timeline);
        v1_bytes = enc.bytes();
    });
    fc::PowerProfile v1_sse, v1_ssp, v1_timeline;
    const double v1_dec_ms = bestMs(reps, [&] {
        fc::codec::Decoder dec(v1_bytes);
        v1_sse = decodeProfileV1(dec);
        v1_ssp = decodeProfileV1(dec);
        v1_timeline = decodeProfileV1(dec);
        dec.expectEnd("v1 bench payload");
    });

    // v2: the real columnar ProfileSet codec (whole set, so the v2 side
    // carries the extra scalar fields the replica skips — conservative).
    std::vector<std::uint8_t> v2_bytes;
    const double v2_enc_ms =
        bestMs(reps, [&] { v2_bytes = fc::codec::encode(set); });
    fc::ProfileSet v2_set;
    const double v2_dec_ms =
        bestMs(reps, [&] { v2_set = fc::codec::decodeProfileSet(v2_bytes); });
    // Allocations of one decode, counted outside the timed reps.
    const std::uint64_t allocs_before =
        g_alloc_count.load(std::memory_order_relaxed);
    v2_set = fc::codec::decodeProfileSet(v2_bytes);
    const std::uint64_t dec_allocs =
        g_alloc_count.load(std::memory_order_relaxed) - allocs_before;

    const bool identical = profilesBitIdentical(v1_sse, set.sse) &&
                           profilesBitIdentical(v1_ssp, set.ssp) &&
                           profilesBitIdentical(v1_timeline, set.timeline) &&
                           fc::identicalProfileSets(v2_set, set);
    const double enc_speedup = v2_enc_ms > 0.0 ? v1_enc_ms / v2_enc_ms : 0.0;
    const double dec_speedup = v2_dec_ms > 0.0 ? v1_dec_ms / v2_dec_ms : 0.0;
    speedup_out = dec_speedup;
    const double mb = static_cast<double>(v2_bytes.size()) / 1.0e6;
    const std::uint64_t points =
        set.sse.size() + set.ssp.size() + set.timeline.size();
    const double allocs_per_kpoint =
        points > 0 ? static_cast<double>(dec_allocs) * 1.0e3 /
                         static_cast<double>(points)
                   : 0.0;

    auto& s = report.scenario("codec");
    s.note("description",
           "ProfileSet wire codec: v1 field-wise point replica vs v2 "
           "columnar encode/decode, and heap allocations per v2 decode");
    s.metric("points", points);
    s.metric("v1_payload_bytes", static_cast<std::uint64_t>(v1_bytes.size()));
    s.metric("v2_payload_bytes", static_cast<std::uint64_t>(v2_bytes.size()));
    s.metric("v1_encode_wall_ms", v1_enc_ms);
    s.metric("v2_encode_wall_ms", v2_enc_ms);
    s.metric("v1_decode_wall_ms", v1_dec_ms);
    s.metric("v2_decode_wall_ms", v2_dec_ms);
    s.metric("encode_speedup", enc_speedup);
    s.metric("decode_speedup", dec_speedup);
    s.metric("v2_encode_mb_per_s",
             v2_enc_ms > 0.0 ? mb / (v2_enc_ms / 1.0e3) : 0.0);
    s.metric("v2_decode_mb_per_s",
             v2_dec_ms > 0.0 ? mb / (v2_dec_ms / 1.0e3) : 0.0);
    s.metric("decode_allocs", dec_allocs);
    s.metric("decode_allocs_per_1k_points", allocs_per_kpoint);
    s.note("bit_identical", identical ? "yes" : "NO");

    std::cout << "codec: v1 encode " << v1_enc_ms << " ms / decode "
              << v1_dec_ms << " ms, v2 encode " << v2_enc_ms
              << " ms / decode " << v2_dec_ms << " ms, speedups "
              << enc_speedup << "x / " << dec_speedup << "x, "
              << dec_allocs << " allocations per decode ("
              << allocs_per_kpoint << " per 1k points), bit-identical: "
              << (identical ? "yes" : "NO") << "\n";
    if (!identical)
        std::cerr << "FAIL: codec round trips diverged from the source "
                     "set\n";
    return identical;
}

// ---------------------------------------------------------------------------
// Scenario 4: timeline assembly — per-point add() vs appendTimelineRun
// ---------------------------------------------------------------------------

bool
runStitchAppend(tools::BenchReport& report, bool smoke, double& speedup_out)
{
    const std::size_t runs = 64;
    const std::size_t per_run = smoke ? 1'000 : 12'000;
    const int reps = smoke ? 3 : 5;

    Xorshift rng(53);
    std::vector<sim::PowerSample> samples(per_run);
    std::vector<std::int64_t> cpu_ns(per_run);
    std::vector<std::uint8_t> contended(per_run);
    for (std::size_t k = 0; k < per_run; ++k) {
        samples[k].gpu_timestamp = static_cast<std::int64_t>(k * 131);
        samples[k].total_w = rng.uniform(80.0, 760.0);
        samples[k].xcd_w = rng.uniform(30.0, 500.0);
        samples[k].iod_w = rng.uniform(10.0, 120.0);
        samples[k].hbm_w = rng.uniform(20.0, 140.0);
        cpu_ns[k] = 5'000'000 + static_cast<std::int64_t>(k) * 200'000;
        contended[k] = (rng.next() & 3) == 0 ? 1 : 0;
    }
    const std::int64_t run_start = 4'000'000;

    // Baseline: the seed stitcher's inner loop — one ProfilePoint
    // temporary per sample through add().
    fc::PowerProfile aos;
    const double aos_ms = bestMs(reps, [&] {
        aos = fc::PowerProfile("bench", fc::ProfileKind::kTimeline);
        for (std::size_t r = 0; r < runs; ++r) {
            for (std::size_t k = 0; k < per_run; ++k) {
                fc::ProfilePoint p;
                p.run_time_us =
                    static_cast<double>(cpu_ns[k] - run_start) / 1.0e3;
                p.sample = samples[k];
                p.run_index = r;
                p.contended = contended[k] != 0;
                aos.add(p);
            }
        }
    });

    // Columnar: one bulk append per run.
    fc::PowerProfile soa;
    const double soa_ms = bestMs(reps, [&] {
        soa = fc::PowerProfile("bench", fc::ProfileKind::kTimeline);
        for (std::size_t r = 0; r < runs; ++r) {
            soa.appendTimelineRun(samples.data(), cpu_ns.data(),
                                  contended.data(), per_run, run_start, r);
        }
    });

    const bool identical = profilesBitIdentical(aos, soa);
    const double speedup = soa_ms > 0.0 ? aos_ms / soa_ms : 0.0;
    speedup_out = speedup;

    auto& s = report.scenario("stitch_append");
    s.note("description",
           "64-run timeline assembly: per-sample ProfilePoint add() vs "
           "bulk appendTimelineRun");
    s.metric("points", static_cast<std::uint64_t>(runs * per_run));
    s.metric("pointwise_wall_ms", aos_ms);
    s.metric("bulk_wall_ms", soa_ms);
    s.metric("speedup", speedup);
    s.note("bit_identical", identical ? "yes" : "NO");

    std::cout << "stitch_append: point-wise " << aos_ms << " ms, bulk "
              << soa_ms << " ms, speedup " << speedup
              << "x, bit-identical: " << (identical ? "yes" : "NO") << "\n";
    if (!identical)
        std::cerr << "FAIL: appendTimelineRun diverged from the point-wise "
                     "reference\n";
    return identical;
}

// ---------------------------------------------------------------------------
// Scenario 5: filtered reduction — branchy per-point loop vs word-skipping
// ---------------------------------------------------------------------------

/** Profile with *blocky* contention: background-active intervals cover
 *  stretches of consecutive samples (plus scattered single flips so
 *  mixed bitmap words are exercised), the shape real scenario runs
 *  produce — and the shape the word-level kernel exploits. */
fc::PowerProfile
makeBlockyProfile(std::size_t n, std::uint64_t seed)
{
    Xorshift rng(seed);
    fc::PowerProfile prof("bench", fc::ProfileKind::kSsp);
    prof.reserve(n);
    bool contended = false;
    std::size_t left = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (left == 0) {
            contended = !contended;
            left = contended ? 200 + (rng.next() % 300)
                             : 400 + (rng.next() % 900);
        }
        --left;
        // ~1% scattered flips keep some words mixed.
        const bool flag =
            (rng.next() % 128) == 0 ? !contended : contended;
        sim::PowerSample s;
        s.gpu_timestamp = static_cast<std::int64_t>(i * 97);
        s.total_w = rng.uniform(80.0, 760.0);
        s.xcd_w = rng.uniform(30.0, 500.0);
        s.iod_w = rng.uniform(10.0, 120.0);
        s.hbm_w = rng.uniform(20.0, 140.0);
        prof.addRow(rng.uniform(0.0, 900.0), rng.uniform(0.0, 1.0),
                    rng.uniform(0.0, 50'000.0), s, i % 60, i % 24, flag);
    }
    return prof;
}

/** The pre-PR railStats filtered path, verbatim: one bitmap test and
 *  one branch per point, over the same profile columns. */
fc::RailStats
filteredStatsBranchy(const fc::PowerProfile& prof, fc::Rail rail, bool want)
{
    fc::RailStats st;
    const std::vector<double>& col = prof.railColumn(rail);
    const double* v = col.data();
    double acc = 0.0;
    double mn = 0.0;
    double mx = 0.0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < prof.size(); ++i) {
        if (prof.contendedBit(i) != want)
            continue;
        const double x = v[i];
        if (n == 0) {
            mn = x;
            mx = x;
        } else {
            mn = std::min(mn, x);
            mx = std::max(mx, x);
        }
        acc += x;
        ++n;
    }
    st.count = n;
    st.sum = acc;
    st.min = mn;
    st.max = mx;
    return st;
}

bool
runFilteredReduction(tools::BenchReport& report, bool smoke,
                     double& speedup_out)
{
    const std::size_t n = smoke ? 50'000 : 1'000'000;
    const int reps = smoke ? 3 : 7;
    const auto prof = makeBlockyProfile(n, 67);

    // 8 reductions: {contended, uncontended} x 4 rails.
    std::vector<fc::RailStats> branchy(8);
    const double branchy_ms = bestMs(reps, [&] {
        std::size_t out = 0;
        for (const bool want : {false, true}) {
            for (const fc::Rail rail : kRails)
                branchy[out++] = filteredStatsBranchy(prof, rail, want);
        }
    });
    std::vector<fc::RailStats> simd(8);
    const double simd_ms = bestMs(reps, [&] {
        std::size_t out = 0;
        for (const bool want : {false, true}) {
            const auto filter = want ? fc::ContentionFilter::kContended
                                     : fc::ContentionFilter::kUncontended;
            for (const fc::Rail rail : kRails)
                simd[out++] = prof.railStats(rail, filter);
        }
    });

    bool identical = true;
    for (std::size_t i = 0; i < 8; ++i) {
        identical = identical && branchy[i].count == simd[i].count &&
                    sameBits(branchy[i].sum, simd[i].sum) &&
                    sameBits(branchy[i].min, simd[i].min) &&
                    sameBits(branchy[i].max, simd[i].max);
    }
    const double speedup = simd_ms > 0.0 ? branchy_ms / simd_ms : 0.0;
    speedup_out = speedup;

    auto& s = report.scenario("filtered_reduction");
    s.note("description",
           "contention-filtered railStats x 4 rails x 2 filters: per-point "
           "branchy loop vs word-skipping bitmap kernel");
    s.metric("points", static_cast<std::uint64_t>(n));
    s.metric("branchy_wall_ms", branchy_ms);
    s.metric("simd_wall_ms", simd_ms);
    s.metric("speedup", speedup);
    s.note("bit_identical", identical ? "yes" : "NO");
    s.note("simd_enabled", fs::simd::kSimdEnabled ? "yes" : "no");

    std::cout << "filtered_reduction: branchy " << branchy_ms << " ms, simd "
              << simd_ms << " ms, speedup " << speedup
              << "x, bit-identical: " << (identical ? "yes" : "NO") << "\n";
    if (!identical)
        std::cerr << "FAIL: filtered railStats diverged from the branchy "
                     "reference\n";
    return identical;
}

// ---------------------------------------------------------------------------
// Scenario 6: capture to stitch — pre-PR row pipeline vs SoA end to end
// ---------------------------------------------------------------------------

/** One run's synthetic window-emission stream (what the logger's window
 *  closes would produce), in raw field arrays so both capture layouts
 *  fill their storage from the same source. */
struct EmissionStream {
    std::vector<std::int64_t> gpu_ts;  ///< ascending counter values
    std::vector<double> total_w;
    std::vector<double> xcd_w;
    std::vector<double> iod_w;
    std::vector<double> hbm_w;
};

bool
runCaptureToStitch(tools::BenchReport& report, bool smoke,
                   double& speedup_out)
{
    const std::size_t runs = smoke ? 6 : 12;
    const std::size_t per_run = smoke ? 4'000 : 20'000;
    const std::size_t execs = 8;
    const int reps = smoke ? 3 : 9;

    // A real simulated device only to calibrate TimeSync (the bench's
    // translation must run the production sync math, division included).
    sim::Simulation simulation(sim::mi300xConfig(), 71, 1);
    fingrav::runtime::HostRuntime host(simulation, simulation.forkRng(7));
    const auto sync = fc::TimeSync::calibrate(host);
    const auto tick = host.timestampTick();

    fc::ProfilerOptions opts;
    opts.binning = false;  // every run golden: stitch = pure data plane
    const std::size_t sse_idx = 3;
    const std::size_t ssp_idx = 4;

    // Synthetic runs: emission streams plus RunRecord skeletons whose
    // exec windows and contention intervals land inside the sample span.
    Xorshift rng(73);
    std::vector<EmissionStream> streams(runs);
    std::vector<fc::RunRecord> records(runs);
    for (std::size_t r = 0; r < runs; ++r) {
        auto& st = streams[r];
        st.gpu_ts.resize(per_run);
        st.total_w.resize(per_run);
        st.xcd_w.resize(per_run);
        st.iod_w.resize(per_run);
        st.hbm_w.resize(per_run);
        const std::int64_t base =
            sync.anchorGpuNs() / tick.nanos() +
            static_cast<std::int64_t>(r) * 40'000'000;
        for (std::size_t k = 0; k < per_run; ++k) {
            st.gpu_ts[k] = base + static_cast<std::int64_t>(k) * 131;
            st.total_w[k] = rng.uniform(80.0, 760.0);
            st.xcd_w[k] = rng.uniform(30.0, 500.0);
            st.iod_w[k] = rng.uniform(10.0, 120.0);
            st.hbm_w[k] = rng.uniform(20.0, 140.0);
        }

        auto& rec = records[r];
        rec.run_index = r;
        const std::int64_t cpu0 = sync.gpuCounterToCpuNs(st.gpu_ts.front());
        const std::int64_t cpu1 = sync.gpuCounterToCpuNs(st.gpu_ts.back());
        const std::int64_t span = cpu1 - cpu0;
        rec.run_start_cpu_ns = cpu0 - 1'000;
        rec.log_start_cpu_ns = cpu0 - 5'000;
        // Executions are short relative to the log span (the paper's
        // sparse-LOI geometry: delays and idle dominate a run's log, so
        // only a few windows land inside any one execution) — each of
        // the 8 windows covers 1/64 of the span.
        for (std::size_t j = 0; j < execs; ++j) {
            fc::ExecObservation ob;
            ob.is_main = true;
            ob.timing.cpu_start_ns =
                cpu0 + span * static_cast<std::int64_t>(j) /
                           static_cast<std::int64_t>(execs);
            ob.timing.cpu_end_ns =
                ob.timing.cpu_start_ns +
                span / (8 * static_cast<std::int64_t>(execs));
            rec.main_exec_indices.push_back(rec.execs.size());
            rec.execs.push_back(ob);
        }
        // Two background-active intervals covering ~30% of the span.
        rec.contended_cpu_ns.push_back(
            {cpu0 + span / 10, cpu0 + span / 4});
        rec.contended_cpu_ns.push_back(
            {cpu0 + span / 2, cpu0 + span / 2 + span / 6});
    }

    auto skeletonSet = [&] {
        fc::ProfileSet out;
        out.label = "bench";
        out.sse_exec_index = sse_idx;
        out.ssp_exec_index = ssp_idx;
        return out;
    };

    // Baseline: the pre-PR pipeline, replicated in its real two-phase
    // shape — capture happens during the campaign (RunExecutor fills
    // every record's rows as its windows close), stitching afterwards
    // walks the cold records: one translation call per sample, branchy
    // advance-while-less scans, transposing AoS appendTimelineRun
    // growing the profile columns run by run.  Storage is per run (each
    // RunRecord owned its row vector and each RunCache its alignment
    // vectors pre-PR), warm after the first rep — the same discipline
    // as the refilled capture columns opposite.
    fc::ProfileSet base_set;
    std::vector<std::vector<sim::PowerSample>> rows_per_run(runs);
    std::vector<std::vector<std::int64_t>> cpu_per_run(runs);
    std::vector<std::vector<std::uint8_t>> contended_per_run(runs);
    const double base_ms = bestMs(reps, [&] {
        // Phase 1: capture — one struct push per closed window.
        for (std::size_t r = 0; r < runs; ++r) {
            const auto& st = streams[r];
            auto& rows = rows_per_run[r];
            rows.clear();
            rows.reserve(per_run);
            for (std::size_t k = 0; k < per_run; ++k) {
                sim::PowerSample s;
                s.gpu_timestamp = st.gpu_ts[k];
                s.total_w = st.total_w[k];
                s.xcd_w = st.xcd_w[k];
                s.iod_w = st.iod_w[k];
                s.hbm_w = st.hbm_w[k];
                rows.push_back(s);
            }
        }
        // Phase 2: stitch every record.
        base_set = skeletonSet();
        for (std::size_t r = 0; r < runs; ++r) {
            const auto& run = records[r];
            const auto& rows = rows_per_run[r];
            auto& cpu = cpu_per_run[r];
            auto& contended = contended_per_run[r];
            // Align: one translation call per sample.
            cpu.resize(per_run);
            for (std::size_t k = 0; k < per_run; ++k)
                cpu[k] = sync.gpuCounterToCpuNs(rows[k].gpu_timestamp);
            contended.assign(per_run, 0);
            const auto& ivs = run.contended_cpu_ns;
            std::size_t ii = 0;
            for (std::size_t k = 0; k < per_run; ++k) {
                const std::int64_t t = cpu[k];
                while (ii < ivs.size() && t >= ivs[ii].second)
                    ++ii;
                contended[k] =
                    (ii < ivs.size() && t >= ivs[ii].first) ? 1 : 0;
            }
            // Scalar two-pointer sweep + per-point addRow.
            std::size_t si = 0;
            const std::size_t n = per_run;
            for (std::size_t j = 0; j < run.main_exec_indices.size();
                 ++j) {
                const auto& timing =
                    run.execs[run.main_exec_indices[j]].timing;
                const double dur_ns = static_cast<double>(
                    timing.cpu_end_ns - timing.cpu_start_ns);
                if (dur_ns <= 0.0)
                    continue;
                while (si < n && cpu[si] < timing.cpu_start_ns)
                    ++si;
                const bool is_sse = j == base_set.sse_exec_index;
                const bool is_ssp = j >= base_set.ssp_exec_index;
                if (!is_sse && !is_ssp)
                    continue;
                for (std::size_t k = si;
                     k < n && cpu[k] <= timing.cpu_end_ns; ++k) {
                    const double toi_ns = static_cast<double>(
                        cpu[k] - timing.cpu_start_ns);
                    const double toi_us = toi_ns / 1e3;
                    const double toi_frac = toi_ns / dur_ns;
                    const double run_time_us =
                        static_cast<double>(cpu[k] -
                                            run.run_start_cpu_ns) /
                        1e3;
                    const bool flag = contended[k] != 0;
                    if (is_sse)
                        base_set.sse.addRow(toi_us, toi_frac, run_time_us,
                                            rows[k], run.run_index, j,
                                            flag);
                    if (is_ssp)
                        base_set.ssp.addRow(toi_us, toi_frac, run_time_us,
                                            rows[k], run.run_index, j,
                                            flag);
                }
            }
            base_set.timeline.appendTimelineRun(
                rows.data(), cpu.data(), contended.data(), n,
                run.run_start_cpu_ns, run.run_index);
        }
    });

    // SoA end to end: columnar capture into the RunRecords, then the
    // production ProfileStitcher (translateColumn, 4-wide scans, bulk
    // column appends into pre-reserved profile columns).
    fc::ProfileSet soa_set;
    const double soa_ms = bestMs(reps, [&] {
        for (std::size_t r = 0; r < runs; ++r) {
            const auto& st = streams[r];
            auto& cols = records[r].samples;
            cols.clear();
            cols.reserve(per_run);
            for (std::size_t k = 0; k < per_run; ++k)
                cols.push(st.gpu_ts[k], st.total_w[k], st.xcd_w[k],
                          st.iod_w[k], st.hbm_w[k]);
        }
        soa_set = skeletonSet();
        fc::ProfileStitcher stitcher(opts, sync, tick);
        stitcher.restitch(records, soa_set);
    });

    const bool identical = profilesBitIdentical(base_set.sse, soa_set.sse) &&
                           profilesBitIdentical(base_set.ssp, soa_set.ssp) &&
                           profilesBitIdentical(base_set.timeline,
                                                soa_set.timeline);
    const double speedup = soa_ms > 0.0 ? base_ms / soa_ms : 0.0;
    speedup_out = speedup;

    auto& s = report.scenario("capture_to_stitch");
    s.note("description",
           "window emission to stitched ProfileSet: pre-PR row pipeline "
           "(struct capture, per-sample translation, branchy scans, "
           "transposing append) vs SoA capture + SIMD stitcher");
    s.metric("points", static_cast<std::uint64_t>(runs * per_run));
    s.metric("row_wall_ms", base_ms);
    s.metric("soa_wall_ms", soa_ms);
    s.metric("speedup", speedup);
    s.note("bit_identical", identical ? "yes" : "NO");
    s.note("simd_enabled", fs::simd::kSimdEnabled ? "yes" : "no");

    std::cout << "capture_to_stitch: rows " << base_ms << " ms, soa "
              << soa_ms << " ms, speedup " << speedup
              << "x, bit-identical: " << (identical ? "yes" : "NO") << "\n";
    if (!identical)
        std::cerr << "FAIL: SoA capture-to-stitch diverged from the row "
                     "reference\n";
    return identical;
}

}  // namespace

int
main(int argc, char** argv)
{
    bool smoke = false;
    std::string out_path = "BENCH_dataplane.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::cerr << "usage: bench_dataplane [--smoke] [--out PATH]\n";
            return 2;
        }
    }

    tools::BenchReport report("dataplane");
    bool ok = true;
    double speedups[6] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
    ok = runRailReduction(report, smoke, speedups[0]) && ok;
    ok = runPercentile(report, smoke, speedups[1]) && ok;
    ok = runCodec(report, smoke, speedups[2]) && ok;
    ok = runStitchAppend(report, smoke, speedups[3]) && ok;
    ok = runFilteredReduction(report, smoke, speedups[4]) && ok;
    ok = runCaptureToStitch(report, smoke, speedups[5]) && ok;

    // The tentpole floor: at least two data-plane kernels >= 2x over
    // their scalar baselines (rail_reduction, percentile, codec decode,
    // stitch_append).
    if (!smoke) {
        int cleared = 0;
        for (std::size_t i = 0; i < 4; ++i) {
            if (speedups[i] >= 2.0)
                ++cleared;
        }
        if (cleared < 2) {
            std::cerr << "FAIL: only " << cleared
                      << " data-plane kernels cleared the 2x floor (need "
                         ">= 2)\n";
            ok = false;
        }
    }
    // SIMD-kernel floors — enforced only when the shim is live (the
    // forced-scalar leg runs the same comparisons for bit-identity but
    // measures the fallbacks against themselves).
    if (!smoke && fs::simd::kSimdEnabled) {
        if (speedups[4] < 1.5) {
            std::cerr << "FAIL: filtered_reduction speedup " << speedups[4]
                      << "x below the 1.5x floor\n";
            ok = false;
        }
        if (speedups[5] < 1.3) {
            std::cerr << "FAIL: capture_to_stitch speedup " << speedups[5]
                      << "x below the 1.3x floor\n";
            ok = false;
        }
    }

    if (!report.write(out_path)) {
        std::cerr << "FAIL: cannot write " << out_path << "\n";
        return 1;
    }
    std::cout << "wrote " << out_path << "\n";
    return ok ? 0 : 1;
}
