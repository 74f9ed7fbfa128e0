/**
 * @file
 * Cross-build determinism lock: golden digests of the paper campaign set.
 *
 * A ProfileSet is a pure, bit-reproducible function of its result-shaping
 * inputs.  The in-binary identity suites check that contract across
 * thread counts, backends and processes; this suite checks it across
 * *builds*.  It pins the FNV-1a-64 digest of the canonical codec bytes of
 * every ProfileSet of the paper campaign set (the fourteen paper kernels
 * plus AR-512MB under injected fabric demand, bench_fig10's seeds 10001
 * on), of one multi-window RecordedCampaign restitch, and of grids of
 * restitch points and budget autotunes over two isolated recordings and
 * one contended recording, plus the text a sweep study prints at every
 * point of the contended grid (summaries and contention reports: a
 * formatting change that claims to be exact must leave it untouched).
 * The Release, forced-scalar SIMD and sanitizer builds must all
 * reproduce the same digests, and a simulator optimisation that claims
 * to be exact must leave every one of them untouched.
 *
 * A second table pins the wire and cache-key bytes themselves: the
 * encodings of a config, a spec touching every field, its cache key,
 * each frame payload that carries them, and one whole frame (header and
 * payload of the on-disk cache entry), which pins the header layout and
 * the checksum algorithm.  A codec refactor that claims to keep the
 * format must leave those untouched too; a deliberate layout or framing
 * change bumps codec::kVersion and re-records them.
 *
 * The digests are products of long double-precision chains and are
 * pinned to the reference toolchain (g++/libstdc++, x86-64, no
 * -ffast-math or forced FMA contraction).  Set FINGRAV_PRINT_GOLDEN=1 to
 * print the current digests in the table format below, and regenerate
 * only when a change to the outputs is deliberate.
 */

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/report.hpp"
#include "fingrav/campaign_cache.hpp"
#include "fingrav/campaign_runner.hpp"
#include "fingrav/codec.hpp"
#include "fingrav/concurrency.hpp"
#include "fingrav/profiler.hpp"
#include "fingrav/recorded_campaign.hpp"
#include "fingrav/scenario.hpp"
#include "kernels/workloads.hpp"
#include "sim/machine_config.hpp"
#include "support/time_types.hpp"
#include "tests/test_fixtures.hpp"

namespace an = fingrav::analysis;
namespace fc = fingrav::core;
namespace fk = fingrav::kernels;
namespace sim = fingrav::sim;
using namespace fingrav::support::literals;

namespace {

/** Base run budget of every pinned campaign (the top-up may add more). */
constexpr std::size_t kRuns = 10;

struct GoldenDigest {
    const char* label;
    std::uint64_t digest;
    /** Work of the campaign, each summed over the node's devices: a
     *  change here is a change in work, even when the bits hold. */
    std::uint64_t stretches;
    std::uint64_t executions;
};

/** The paper campaign set, in spec order. */
const GoldenDigest kPaperGolden[] = {
    {"CB-8K-GEMM", 0xce98d2ff6ea86395ull, 106099, 449},
    {"CB-4K-GEMM", 0xef01fd2bc3b51a33ull, 1467, 340},
    {"CB-2K-GEMM", 0x8342fc950927c100ull, 3231, 1482},
    {"MB-8K-GEMV", 0xf09c8967686998beull, 3155, 1492},
    {"MB-4K-GEMV", 0xa63c41d1176a1425ull, 6262, 3070},
    {"MB-2K-GEMV", 0x211b596d27eb3401ull, 8749, 4313},
    {"AG-64KB", 0x89fec26110f212e7ull, 25998, 12624},
    {"AG-128KB", 0x005183e41c868aa8ull, 32095, 15696},
    {"AG-512MB", 0xc8861c7d48a13517ull, 14873, 3592},
    {"AG-1GB", 0x299907441fe74127ull, 17619, 3592},
    {"AR-64KB", 0x53c5ae4a04253b2aull, 19977, 9632},
    {"AR-128KB", 0xb9b8f87c5215bb6cull, 19834, 9552},
    {"AR-512MB", 0x3d7f48db9cfc2cd8ull, 18292, 3592},
    {"AR-1GB", 0x7013ead3cb42c122ull, 20508, 3592},
    // AR-512MB under 0.6 injected demand:
    {"AR-512MB", 0x627c124c3944b860ull, 21618, 3592},
};

/**
 * The simulator paths the paper set never reaches (scenarioPaths(), in
 * order), with the same work counts.
 */
const GoldenDigest kScenarioGolden[] = {
    {"queue1-burst", 0x218efd98572d090dull, 6510, 3275},
    {"remote-transfer", 0xd94e347ec85f641full, 15680, 3595},
    {"interleaved", 0x551c6b913f5fb7efull, 83614, 609},
    {"coschedule", 0xacf5dbff210521cbull, 1449, 168},
};

/** recordSpec() recorded at 1/2/10 ms, restitched at the 2 ms window. */
constexpr std::uint64_t kRestitchGolden = 0x68a13d05937b1ad2ull;

/** restitchGridDigest() over recordSpec() at 1/2/10 ms and
 *  longWindowSpec() at 1/10 ms. */
constexpr std::uint64_t kRestitchGridGolden = 0x42c8f5eab8d0f1e1ull;

/** restitchGridDigest() over contendedSpec() at 1/2 ms. */
constexpr std::uint64_t kContendedRestitchGridGolden = 0xcfe43b8b4a712f7dull;

/** reportGridDigest() over contendedSpec() at 1/2 ms against the same
 *  spec profiled without its background. */
constexpr std::uint64_t kSweepReportGolden = 0x5c410d52c8ed87f4ull;

struct WireDigest {
    const char* name;
    std::uint64_t digest;
};

/** Codec bytes of pinnedSpec()/pinnedSet() on the default config. */
const WireDigest kWireGolden[] = {
    {"machine-config", 0xed1f90000f5aa6c2ull},
    {"scenario-spec", 0x8c61fb7bddf323d8ull},
    {"cache-key", 0x616d0c108d1b4a95ull},
    {"spec-request", 0xf410f1dedbb49e03ull},
    {"cache-entry", 0x3b5ff750e50d6390ull},
    {"cache-entry-frame", 0xd114c0e5d8df0d61ull},
    {"profile-set", 0x4a92ba7787f7b68full},
};

/** A kernel profiled on its own at the pinned run budget. */
fc::ScenarioSpec
campaignSpec(const char* label, std::uint64_t seed)
{
    fc::ScenarioSpec spec;
    spec.label = label;
    spec.seed = seed;
    spec.opts.runs_override = kRuns;
    return spec;
}

/**
 * The paper campaign set: every paper kernel on its own, then AR-512MB
 * under 60 % injected fabric demand, seeds 10001 on.
 */
std::vector<fc::ScenarioSpec>
paperSpecs()
{
    std::vector<fc::ScenarioSpec> specs;
    for (const auto& golden : kPaperGolden)
        specs.push_back(campaignSpec(golden.label, 10001 + specs.size()));
    fc::BackgroundLoad demand;
    demand.kind = fc::BackgroundKind::kFabricDemand;
    demand.demand = 0.6;
    specs.back().background.push_back(demand);
    return specs;
}

/** A spec with both background-load kinds and every optional set. */
fc::ScenarioSpec
pinnedSpec()
{
    fc::ScenarioSpec spec;
    spec.label = "AR-512MB";
    spec.seed = 77;
    spec.devices = 8;
    auto& opts = spec.opts;
    opts.device = 1;
    opts.runs_override = 9;
    opts.margin_override = 0.07;
    opts.sse_executions = 5;
    opts.timing_reps = 3;
    opts.min_delay = 150_us;
    opts.max_delay = 3_ms;
    opts.sync_mode = fc::SyncMode::kFinGraVDrift;
    opts.binning = false;
    opts.collect_extra_runs = false;
    opts.max_extra_run_factor = 0.75;
    opts.stability_eps = 0.02;
    opts.logger_window = 2_ms;
    opts.target_bin = 140_us;
    fc::BackgroundLoad kernel;
    kernel.kernel = "CB-8K-GEMM";
    kernel.device = 2;
    kernel.queue = 3;
    kernel.offset = 1_ms;
    kernel.period = 5_ms;
    kernel.duty_cycle = 0.5;
    kernel.cycles = 4;
    kernel.jitter_sigma = 0.2;
    fc::BackgroundLoad demand;
    demand.kind = fc::BackgroundKind::kFabricDemand;
    demand.demand = 0.6;
    spec.background = {kernel, demand};
    return spec;
}

fc::PowerProfile
pinnedProfile(fc::ProfileKind kind, std::size_t points)
{
    fc::PowerProfile profile("AR-512MB", kind);
    for (std::size_t i = 0; i < points; ++i) {
        const double x = static_cast<double>(i);
        fc::ProfilePoint p;
        p.toi_us = 0.5 * x;
        p.toi_frac = x / static_cast<double>(points);
        p.run_time_us = 10.0 + x;
        p.sample.gpu_timestamp = 1000 + 7 * static_cast<std::int64_t>(i);
        p.sample.total_w = 600.0 + x;
        p.sample.xcd_w = 300.0 - x;
        p.sample.iod_w = 150.0 + 0.25 * x;
        p.sample.hbm_w = 90.0 - 0.125 * x;
        p.run_index = i / 4;
        p.exec_index = i % 4;
        p.contended = i % 3 == 0;
        profile.add(p);
    }
    return profile;
}

/** A hand-built set touching every ProfileSet field; the timeline
 *  crosses a contention-bitmap word boundary. */
fc::ProfileSet
pinnedSet()
{
    fc::ProfileSet set;
    set.label = "AR-512MB";
    set.measured_exec_time = 420_us;
    set.guidance.exec_lo = 250_us;
    set.guidance.exec_hi = 500_us;
    set.guidance.runs = 40;
    set.guidance.loi_per = 5_us;
    set.guidance.binning_margin = 0.05;
    set.runs_executed = 11;
    set.binning.bin_center = 418_us;
    set.binning.golden_runs = {0, 2, 3, 7, 10};
    set.binning.total_runs = 11;
    set.sse_exec_index = 3;
    set.ssp_exec_index = 12;
    set.execs_per_run = 20;
    set.ssp_exec_time = 421_us;
    set.loi_target = 84;
    set.read_delay_us = -0.0;
    set.drift_ppm = 3.5;
    set.sse = pinnedProfile(fc::ProfileKind::kSse, 5);
    set.ssp = pinnedProfile(fc::ProfileKind::kSsp, 0);
    set.timeline = pinnedProfile(fc::ProfileKind::kTimeline, 70);
    return set;
}

std::uint64_t
digest(const std::vector<std::uint8_t>& bytes)
{
    return fc::codec::fnv1a64(bytes.data(), bytes.size());
}

std::uint64_t
digest(const fc::ProfileSet& set)
{
    return digest(fc::codec::encode(set));
}

using fingrav::testing::nodeWork;
using fingrav::testing::Work;

/** One pinned run: the digest of its output and the work it took. */
struct Pinned {
    std::uint64_t digest = 0;
    Work work;
};

/** Profile `spec` on a fresh node and pin the result. */
Pinned
pinnedOnNode(const fc::ScenarioSpec& spec, const sim::MachineConfig& cfg)
{
    const auto run = fingrav::testing::profileOnNode(spec, cfg);
    return {digest(run.set), run.work};
}

/** Digest of a co-schedule report's measured fields, bit for bit. */
std::uint64_t
digest(const fc::CoScheduleReport& rep)
{
    const double fields[] = {rep.complementarity,   rep.serial_ms,
                             rep.concurrent_ms,     rep.speedup,
                             rep.serial_avg_w,      rep.concurrent_avg_w,
                             rep.peak_w,            rep.serial_energy_j,
                             rep.concurrent_energy_j};
    return fc::codec::fnv1a64(reinterpret_cast<const std::uint8_t*>(fields),
                              sizeof fields);
}

/**
 * The kScenarioGolden paths, in order: a compute burst on queue 1 of the
 * profiled device (two-queue contention, starts across queues), an
 * AR-512MB transfer launched from device 2 under a foreground collective
 * (a kernel-borne remote transfer priced against the whole committed
 * view), interleaved preludes, and one concurrency-advisor evaluation.
 */
std::vector<Pinned>
scenarioPaths(const sim::MachineConfig& cfg)
{
    std::vector<Pinned> out;

    auto burst = campaignSpec("MB-4K-GEMV", 20001);
    fc::BackgroundLoad compute;
    compute.kernel = "CB-2K-GEMM";
    compute.device = 0;
    compute.queue = 1;
    compute.offset = 1_ms;
    compute.period = 4_ms;
    compute.duty_cycle = 0.5;
    compute.cycles = 3;
    burst.background.push_back(compute);
    out.push_back(pinnedOnNode(burst, cfg));

    auto remote = campaignSpec("AG-512MB", 20002);
    fc::BackgroundLoad transfer;
    transfer.kernel = "AR-512MB";
    transfer.device = 2;
    transfer.offset = 2_ms;
    transfer.period = 6_ms;
    transfer.duty_cycle = 0.5;
    transfer.cycles = 3;
    remote.background.push_back(transfer);
    out.push_back(pinnedOnNode(remote, cfg));

    {
        const auto spec = campaignSpec("CB-2K-GEMM", 20003);
        fc::CampaignNode node(spec, cfg);
        const std::vector<fc::InterleaveItem> prelude{
            {fk::kernelByLabel("MB-4K-GEMV", cfg), 3},
            {fk::kernelByLabel("CB-8K-GEMM", cfg), 1}};
        const auto set =
            fc::Profiler(node.host(), spec.opts, node.profilerRng())
                .profileInterleaved(node.kernel(), prelude, 6);
        EXPECT_FALSE(set.ssp.empty()) << "interleaved";
        out.push_back({digest(set), nodeWork(node)});
    }

    {
        const auto spec = campaignSpec("CB-4K-GEMM", 20004);
        fc::CampaignNode node(spec, cfg);
        fc::ConcurrencyAdvisor advisor(node.host(), node.profilerRng());
        const auto rep = advisor.evaluate(
            node.kernel(), fk::kernelByLabel("MB-8K-GEMV", cfg), 12, 1, 6);
        out.push_back({digest(rep), nodeWork(node)});
    }
    return out;
}

/**
 * A short-exec recording whose 10 ms window puts the SSP index deep into
 * every run, so a restitch there skips most recorded executions.
 */
fc::ScenarioSpec
longWindowSpec()
{
    fc::ScenarioSpec spec;
    spec.label = "MB-2K-GEMV";
    spec.seed = 5151;
    spec.opts.runs_override = 24;
    spec.opts.max_extra_run_factor = 0.5;
    return spec;
}

/**
 * AR-512MB recorded under 0.6 injected fabric demand, switched on for
 * half of every 6 ms so each run holds contended and uncontended
 * samples: a restitch's LOIs carry flags from both sides of an interval
 * boundary, under every sync mode's translation.
 */
fc::ScenarioSpec
contendedSpec()
{
    fc::ScenarioSpec spec;
    spec.label = "AR-512MB";
    spec.seed = 5152;
    spec.opts.runs_override = 8;
    spec.opts.max_extra_run_factor = 0.5;
    fc::BackgroundLoad demand;
    demand.kind = fc::BackgroundKind::kFabricDemand;
    demand.demand = 0.6;
    demand.period = 6_ms;
    demand.duty_cycle = 0.5;
    spec.background.push_back(demand);
    return spec;
}

/**
 * Window `w`'s share of a recording's sweep surface: every sync mode x
 * {default, 0.10} margin x binning {default, off} x target bin {none,
 * the measured execution time} x run budget {default + top-up, half the
 * base}.
 */
std::vector<fc::SweepPoint>
gridPoints(const fc::RecordedCampaign& recorded, std::size_t w)
{
    const fc::SyncMode modes[] = {
        fc::SyncMode::kFinGraV, fc::SyncMode::kFinGraVDrift,
        fc::SyncMode::kNoDelayAccounting, fc::SyncMode::kCoarseAlign};
    std::vector<fc::SweepPoint> points;
    for (const auto mode : modes) {
        for (unsigned mask = 0; mask < 16; ++mask) {
            fc::SweepPoint point;
            point.window_index = w;
            point.sync_mode = mode;
            if (mask & 1u)
                point.margin = 0.10;
            if (mask & 2u)
                point.binning = false;
            if (mask & 4u)
                point.target_bin = recorded.measuredExecTime();
            if (mask & 8u)
                point.runs = recorded.baseRuns() / 2;
            points.push_back(point);
        }
    }
    return points;
}

/**
 * One digest over a recording's sweep surface: every window's
 * gridPoints(), then that window's budget autotune, field by field.
 */
std::uint64_t
restitchGridDigest(const fc::RecordedCampaign& recorded)
{
    std::vector<std::uint64_t> words;
    for (std::size_t w = 0; w < recorded.windows().size(); ++w) {
        for (const auto& point : gridPoints(recorded, w))
            words.push_back(digest(recorded.restitch(point)));
        const auto tuned = recorded.autotuneBudget(0, w);
        std::uint64_t yield_bits = 0;
        std::memcpy(&yield_bits, &tuned.achieved_yield, sizeof yield_bits);
        words.insert(words.end(),
                     {tuned.loi_target, tuned.runs_needed,
                      tuned.target_met ? 1u : 0u, tuned.recommended_runs,
                      tuned.pool_runs, yield_bits, tuned.window_index});
    }
    return fc::codec::fnv1a64(
        reinterpret_cast<const std::uint8_t*>(words.data()),
        words.size() * sizeof(std::uint64_t));
}

/**
 * One digest over the text a sweep study prints at every point of
 * restitchGridDigest()'s grid: the summary, the summary with that
 * window's budget autotune, and the per-phase contention report against
 * `isolated`.
 */
std::uint64_t
reportGridDigest(const fc::RecordedCampaign& recorded,
                 const fc::ProfileSet& isolated)
{
    std::string text;
    for (std::size_t w = 0; w < recorded.windows().size(); ++w) {
        const auto tuned = recorded.autotuneBudget(0, w);
        for (const auto& point : gridPoints(recorded, w)) {
            const auto set = recorded.restitch(point);
            text += an::summarize(set);
            text += '\n';
            text += an::summarize(set, tuned);
            text += '\n';
            text += an::contentionReport(an::contentionDelta(isolated, set));
        }
    }
    return fc::codec::fnv1a64(
        reinterpret_cast<const std::uint8_t*>(text.data()), text.size());
}

bool
printing()
{
    return std::getenv("FINGRAV_PRINT_GOLDEN") != nullptr;
}

}  // namespace

/** Check one pinned run against its table row (or print the row). */
void
expectPinned(const Pinned& got, const GoldenDigest& want,
             const std::string& what)
{
    if (printing()) {
        std::printf("    {\"%s\", 0x%016" PRIx64 "ull, %" PRIu64 ", %" PRIu64
                    "},\n",
                    want.label, got.digest, got.work.stretches,
                    got.work.executions);
    }
    EXPECT_EQ(got.digest, want.digest) << what;
    EXPECT_EQ(got.work.stretches, want.stretches) << what;
    EXPECT_EQ(got.work.executions, want.executions) << what;
}

TEST(GoldenDigest, PaperCampaignSet)
{
    const auto cfg = sim::mi300xConfig();
    const auto specs = paperSpecs();
    for (std::size_t i = 0; i < specs.size(); ++i) {
        expectPinned(pinnedOnNode(specs[i], cfg), kPaperGolden[i],
                     specs[i].label + " (seed " +
                         std::to_string(specs[i].seed) + ")");
    }
}

TEST(GoldenDigest, ScenarioPaths)
{
    const auto paths = scenarioPaths(sim::mi300xConfig());
    ASSERT_EQ(paths.size(), std::size(kScenarioGolden));
    for (std::size_t i = 0; i < paths.size(); ++i)
        expectPinned(paths[i], kScenarioGolden[i], kScenarioGolden[i].label);
}

TEST(GoldenDigest, MultiWindowRestitch)
{
    const auto recorded = fc::RecordedCampaign::record(
        fingrav::testing::recordSpec(), {2_ms, 10_ms});
    fc::SweepPoint point;
    point.window_index = 1;
    const auto set = recorded.restitch(point);
    ASSERT_FALSE(set.ssp.empty());
    const std::uint64_t d = digest(set);
    if (printing())
        std::printf("restitch 0x%016" PRIx64 "ull\n", d);
    EXPECT_EQ(d, kRestitchGolden);
}

TEST(GoldenDigest, RestitchGrid)
{
    const auto pinned = fc::RecordedCampaign::record(
        fingrav::testing::recordSpec(), {2_ms, 10_ms});
    const auto long_window =
        fc::RecordedCampaign::record(longWindowSpec(), {10_ms});
    const std::uint64_t words[] = {restitchGridDigest(pinned),
                                   restitchGridDigest(long_window)};
    const std::uint64_t d = fc::codec::fnv1a64(
        reinterpret_cast<const std::uint8_t*>(words), sizeof words);
    if (printing())
        std::printf("restitch grid 0x%016" PRIx64 "ull\n", d);
    EXPECT_EQ(d, kRestitchGridGolden);
}

TEST(GoldenDigest, ContendedRestitchGrid)
{
    const auto recorded =
        fc::RecordedCampaign::record(contendedSpec(), {2_ms});
    const auto set = recorded.restitch();
    ASSERT_FALSE(set.ssp.empty());
    EXPECT_GT(set.ssp.contendedCount(), 0u);
    EXPECT_LT(set.ssp.contendedCount(), set.ssp.size());
    const std::uint64_t d = restitchGridDigest(recorded);
    if (printing())
        std::printf("contended restitch grid 0x%016" PRIx64 "ull\n", d);
    EXPECT_EQ(d, kContendedRestitchGridGolden);
}

TEST(GoldenDigest, SweepReportBytes)
{
    const auto recorded =
        fc::RecordedCampaign::record(contendedSpec(), {2_ms});
    auto isolated = contendedSpec();
    isolated.background.clear();
    const std::uint64_t d =
        reportGridDigest(recorded, fc::CampaignRunner::runOne(isolated));
    if (printing())
        std::printf("sweep report 0x%016" PRIx64 "ull\n", d);
    EXPECT_EQ(d, kSweepReportGolden);
}

TEST(GoldenDigest, WireAndCacheKeyBytes)
{
    namespace codec = fc::codec;
    const auto cfg = sim::mi300xConfig();
    const auto spec = pinnedSpec();
    const auto set = pinnedSet();
    const std::string key = fc::CampaignCache::key(spec, cfg);
    const auto entry = codec::encode(codec::CacheEntry{key, set});
    const std::vector<std::uint8_t> encodings[] = {
        codec::encode(cfg),
        codec::encode(spec),
        {key.begin(), key.end()},
        codec::encode(codec::SpecRequest{cfg, spec}),
        entry,
        codec::encodeFrame(codec::FrameType::kCacheEntry, entry),
        codec::encode(set),
    };
    static_assert(std::size(encodings) == std::size(kWireGolden));
    for (std::size_t i = 0; i < std::size(kWireGolden); ++i) {
        const std::uint64_t d = digest(encodings[i]);
        if (printing()) {
            std::printf("    {\"%s\", 0x%016" PRIx64 "ull},\n",
                        kWireGolden[i].name, d);
        }
        EXPECT_EQ(d, kWireGolden[i].digest) << kWireGolden[i].name;
    }

    // The blob CampaignCache::store writes (from the borrowed key and
    // set) is the pinned cache-entry frame, and a memory-only store
    // weighs its entry at that blob's size without writing it.
    fingrav::testing::TempDir dir("fingrav_golden");
    fc::CacheOptions disk_opts;
    disk_opts.dir = dir.path();
    fc::CampaignCache disk(disk_opts);
    disk.store(spec, cfg, set);
    std::ifstream in(fc::CampaignCache::entryPath(dir.path(), key),
                     std::ios::binary);
    const std::vector<std::uint8_t> blob(std::istreambuf_iterator<char>(in),
                                         {});
    const auto& frame_row = kWireGolden[5];
    ASSERT_STREQ(frame_row.name, "cache-entry-frame");
    EXPECT_EQ(digest(blob), frame_row.digest);
    fc::CampaignCache memory_only;
    memory_only.store(spec, cfg, set);
    EXPECT_EQ(disk.stats().memory_bytes, blob.size());
    EXPECT_EQ(memory_only.stats().memory_bytes, blob.size());
}
