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
 * on) and of one multi-window RecordedCampaign restitch.  The Release,
 * forced-scalar SIMD and sanitizer builds must all reproduce the same
 * digests, and a simulator optimisation that claims to be exact must
 * leave every one of them untouched.
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
#include <vector>

#include <gtest/gtest.h>

#include "fingrav/campaign_runner.hpp"
#include "fingrav/codec.hpp"
#include "fingrav/recorded_campaign.hpp"
#include "fingrav/scenario.hpp"
#include "sim/machine_config.hpp"
#include "support/time_types.hpp"
#include "tests/test_fixtures.hpp"

namespace fc = fingrav::core;
namespace sim = fingrav::sim;
using namespace fingrav::support::literals;

namespace {

/** Base run budget of every pinned campaign (the top-up may add more). */
constexpr std::size_t kRuns = 10;

struct GoldenDigest {
    const char* label;
    std::uint64_t digest;
};

/** The paper campaign set, in spec order. */
const GoldenDigest kPaperGolden[] = {
    {"CB-8K-GEMM", 0xce98d2ff6ea86395ull},
    {"CB-4K-GEMM", 0xef01fd2bc3b51a33ull},
    {"CB-2K-GEMM", 0x8342fc950927c100ull},
    {"MB-8K-GEMV", 0xf09c8967686998beull},
    {"MB-4K-GEMV", 0xa63c41d1176a1425ull},
    {"MB-2K-GEMV", 0x211b596d27eb3401ull},
    {"AG-64KB", 0x89fec26110f212e7ull},
    {"AG-128KB", 0x005183e41c868aa8ull},
    {"AG-512MB", 0xc8861c7d48a13517ull},
    {"AG-1GB", 0x299907441fe74127ull},
    {"AR-64KB", 0x53c5ae4a04253b2aull},
    {"AR-128KB", 0xb9b8f87c5215bb6cull},
    {"AR-512MB", 0x3d7f48db9cfc2cd8ull},
    {"AR-1GB", 0x7013ead3cb42c122ull},
    {"AR-512MB", 0x627c124c3944b860ull},  // under 0.6 injected demand
};

/** recordSpec() recorded at 1/2/10 ms, restitched at the 2 ms window. */
constexpr std::uint64_t kRestitchGolden = 0x68a13d05937b1ad2ull;

/**
 * The paper campaign set: every paper kernel on its own, then AR-512MB
 * under 60 % injected fabric demand, seeds 10001 on.
 */
std::vector<fc::ScenarioSpec>
paperSpecs()
{
    std::vector<fc::ScenarioSpec> specs;
    for (const auto& golden : kPaperGolden) {
        fc::ScenarioSpec spec;
        spec.label = golden.label;
        spec.seed = 10001 + specs.size();
        spec.opts.runs_override = kRuns;
        specs.push_back(std::move(spec));
    }
    fc::BackgroundLoad demand;
    demand.kind = fc::BackgroundKind::kFabricDemand;
    demand.demand = 0.6;
    specs.back().background.push_back(demand);
    return specs;
}

std::uint64_t
digest(const fc::ProfileSet& set)
{
    const auto bytes = fc::codec::encode(set);
    return fc::codec::fnv1a64(bytes.data(), bytes.size());
}

bool
printing()
{
    return std::getenv("FINGRAV_PRINT_GOLDEN") != nullptr;
}

}  // namespace

TEST(GoldenDigest, PaperCampaignSet)
{
    const auto cfg = sim::mi300xConfig();
    const auto specs = paperSpecs();
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const auto set = fc::CampaignRunner::runOne(specs[i], cfg);
        ASSERT_FALSE(set.ssp.empty()) << specs[i].label;
        const std::uint64_t d = digest(set);
        if (printing()) {
            std::printf("    {\"%s\", 0x%016" PRIx64 "ull},\n",
                        specs[i].label.c_str(), d);
        }
        EXPECT_EQ(d, kPaperGolden[i].digest)
            << specs[i].label << " (seed " << specs[i].seed << ")";
    }
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
