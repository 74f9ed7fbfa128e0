/**
 * @file
 * Tests for the GEMM/GEMV and collective cost models: classification,
 * duration anchors (Table I execution-time ranges), warm/cold behaviour and
 * the per-kernel power signatures the paper's component analysis rests on.
 */

#include <cstdint>
#include <iostream>
#include <iterator>
#include <memory>
#include <utility>

#include <gtest/gtest.h>

#include "fingrav/outlier.hpp"
#include "kernels/collective.hpp"
#include "kernels/gemm.hpp"
#include "kernels/workloads.hpp"
#include "sim/machine_config.hpp"
#include "sim/power_model.hpp"
#include "support/logging.hpp"
#include "support/units.hpp"

namespace fk = fingrav::kernels;
namespace sim = fingrav::sim;
namespace fs = fingrav::support;
using namespace fingrav::support::literals;

namespace {

const sim::MachineConfig& cfg()
{
    static const sim::MachineConfig c = sim::mi300xConfig();
    return c;
}

}  // namespace

TEST(GemmModel, PaperClassification)
{
    // All square GEMMs (op:byte = edge/3 in fp16) are compute-bound on a
    // machine with balance ~245 flop/byte; all GEMVs are memory-bound.
    for (std::int64_t edge : {2048, 4096, 8192}) {
        EXPECT_EQ(fk::GemmKernel({edge, edge, edge, 2}, cfg()).boundedness(),
                  fk::Boundedness::kComputeBound)
            << edge;
        EXPECT_EQ(fk::GemmKernel({edge, 1, edge, 2}, cfg()).boundedness(),
                  fk::Boundedness::kMemoryBound)
            << edge;
    }
}

TEST(GemmModel, Labels)
{
    EXPECT_EQ(fk::makeSquareGemm(8192, cfg())->label(), "CB-8K-GEMM");
    EXPECT_EQ(fk::makeSquareGemm(2048, cfg())->label(), "CB-2K-GEMM");
    EXPECT_EQ(fk::makeGemv(4096, cfg())->label(), "MB-4K-GEMV");
}

TEST(KernelModel, PaperLabelsPinnedInEveryInvocation)
{
    // Labels are formatted once, at construction, and live on the model
    // (an invocation carries none).
    static const char* const kLabels[] = {
        "CB-8K-GEMM", "CB-4K-GEMM", "CB-2K-GEMM", "MB-8K-GEMV",
        "MB-4K-GEMV", "MB-2K-GEMV", "AG-64KB",    "AG-128KB",
        "AG-512MB",   "AG-1GB",     "AR-64KB",    "AR-128KB",
        "AR-512MB",   "AR-1GB"};
    const auto kernels = fk::paperKernels(cfg());
    ASSERT_EQ(kernels.size(), std::size(kLabels));
    for (std::size_t i = 0; i < kernels.size(); ++i)
        EXPECT_EQ(kernels[i]->label(), kLabels[i]);
    const fk::PhaseSlice slice(fk::makeSquareGemm(8192, cfg()), 0.25, 0.75);
    EXPECT_EQ(slice.label(), "CB-8K-GEMM[25-75%]");
}

TEST(GemmModel, OpsPerByte)
{
    const fk::GemmKernel g({8192, 8192, 8192, 2}, cfg());
    // Square fp16 GEMM: 2M^3 / (3 M^2 * 2) = M/3.
    EXPECT_NEAR(g.opsPerByte(), 8192.0 / 3.0, 1.0);
    const fk::GemmKernel v({8192, 1, 8192, 2}, cfg());
    EXPECT_NEAR(v.opsPerByte(), 1.0, 0.01);
}

TEST(GemmModel, DurationAnchorsMatchTableOneRanges)
{
    // The paper's Table I covers the execution-time ranges its GEMMs land
    // in: CB-8K > 1 ms, CB-4K in 50-200 us, CB-2K in 25-50 us.
    const auto d8 = fk::makeSquareGemm(8192, cfg())->nominalDuration();
    const auto d4 = fk::makeSquareGemm(4096, cfg())->nominalDuration();
    const auto d2 = fk::makeSquareGemm(2048, cfg())->nominalDuration();
    EXPECT_GT(d8.toMillis(), 1.0);
    EXPECT_GT(d4.toMicros(), 50.0);
    EXPECT_LT(d4.toMicros(), 200.0);
    EXPECT_GT(d2.toMicros(), 25.0);
    EXPECT_LT(d2.toMicros(), 50.0);
}

TEST(GemmModel, ColdExecutionsAreSlower)
{
    for (std::int64_t edge : {2048, 4096, 8192}) {
        const auto g = fk::makeSquareGemm(edge, cfg());
        const auto cold = g->workAt(0.0).nominal_duration;
        const auto warm = g->workAt(1.0).nominal_duration;
        EXPECT_GT(cold.nanos(), warm.nanos()) << edge;
        const auto v = fk::makeGemv(edge, cfg());
        EXPECT_GT(v->workAt(0.0).nominal_duration.nanos(),
                  v->workAt(1.0).nominal_duration.nanos())
            << edge;
    }
}

TEST(GemmModel, WarmthIsMonotoneInDuration)
{
    const auto g = fk::makeSquareGemm(4096, cfg());
    double prev = 1e18;
    for (double w = 0.0; w <= 1.0; w += 0.25) {
        const double d = g->workAt(w).nominal_duration.toSeconds();
        EXPECT_LE(d, prev) << "warmth " << w;
        prev = d;
    }
}

TEST(GemmModel, ComputeUtilizationHalvesForTwoK)
{
    // The paper: "CB-2K-GEMM has about half the compute utilization in
    // comparison to CB-4K/8K-GEMM" (Section V-C2).
    const auto u8 = fk::GemmKernel({8192, 8192, 8192, 2}, cfg())
                        .achievedComputeUtilization();
    const auto u4 = fk::GemmKernel({4096, 4096, 4096, 2}, cfg())
                        .achievedComputeUtilization();
    const auto u2 = fk::GemmKernel({2048, 2048, 2048, 2}, cfg())
                        .achievedComputeUtilization();
    EXPECT_GT(u8, 0.7);
    EXPECT_GT(u4, 0.6);
    EXPECT_LT(u2 / u8, 0.62);
    EXPECT_GT(u2 / u8, 0.35);
}

TEST(GemmModel, EightKSpillsAndKeepsHbmBusiest)
{
    // CB-8K's working set (402 MB) exceeds the 256 MB Infinity Cache; the
    // paper observes it has the highest HBM power of all GEMM/GEMV kernels.
    const auto& c = cfg();
    EXPECT_GT(fk::GemmKernel({8192, 8192, 8192, 2}, c).workingSetBytes(),
              c.llc_capacity);
    EXPECT_LT(fk::GemmKernel({4096, 4096, 4096, 2}, c).workingSetBytes(),
              c.llc_capacity);
    const double hbm8 =
        fk::makeSquareGemm(8192, c)->workAt(1.0).util.hbm_bw;
    for (std::int64_t edge : {2048, 4096}) {
        EXPECT_GT(hbm8, fk::makeSquareGemm(edge, c)->workAt(1.0).util.hbm_bw);
        EXPECT_GT(hbm8, fk::makeGemv(edge, c)->workAt(1.0).util.hbm_bw);
    }
    EXPECT_GT(hbm8, fk::makeGemv(8192, c)->workAt(1.0).util.hbm_bw);
}

TEST(GemmModel, GemvStressesLlcWhenWarm)
{
    // Warm GEMV streams from the Infinity Cache: llc_bw high, hbm_bw low
    // (the paper's "MB-8K-GEMV does stress IOD power" + footnote 3).
    const auto w = fk::makeGemv(8192, cfg())->workAt(1.0);
    EXPECT_GT(w.util.llc_bw, 0.6);
    EXPECT_LT(w.util.hbm_bw, 0.25);
    const auto cold = fk::makeGemv(8192, cfg())->workAt(0.0);
    EXPECT_GT(cold.util.hbm_bw, w.util.hbm_bw);
}

TEST(GemmModel, RejectsDegenerateShapes)
{
    EXPECT_THROW(fk::GemmKernel({0, 8, 8, 2}, cfg()), fs::FatalError);
    EXPECT_THROW(fk::GemmKernel({8, 8, -1, 2}, cfg()), fs::FatalError);
    EXPECT_THROW(fk::GemmKernel({8, 8, 8, 0}, cfg()), fs::FatalError);
}

TEST(CollectiveModel, LatencyVsBandwidthClassification)
{
    // The paper's latency-bound sizes (64 KB / 128 KB) and bandwidth-bound
    // sizes (512 MB / 1 GB) must classify accordingly for both ops.
    for (auto op : {fk::CollectiveOp::kAllGather,
                    fk::CollectiveOp::kAllReduce}) {
        for (auto b : {64_KB, 128_KB}) {
            EXPECT_EQ(fk::CollectiveKernel(op, b, cfg()).boundedness(),
                      fk::CollectiveBoundedness::kLatencyBound)
                << toString(op) << " " << b;
        }
        for (auto b : {512_MB, 1_GB}) {
            EXPECT_EQ(fk::CollectiveKernel(op, b, cfg()).boundedness(),
                      fk::CollectiveBoundedness::kBandwidthBound)
                << toString(op) << " " << b;
        }
    }
}

TEST(CollectiveModel, LatencyBoundSizesHaveFlatLatency)
{
    // Paper definition: latency at/before a latency-bound size does not
    // increase commensurate to payload.  Doubling 64 KB must grow latency
    // by far less than 2x; doubling 512 MB must nearly double it.
    const fk::CollectiveKernel small(fk::CollectiveOp::kAllGather, 64_KB,
                                     cfg());
    const fk::CollectiveKernel small2(fk::CollectiveOp::kAllGather, 128_KB,
                                      cfg());
    const double r_small = small2.nominalDuration().toSeconds() /
                           small.nominalDuration().toSeconds();
    EXPECT_LT(r_small, 1.2);

    const fk::CollectiveKernel big(fk::CollectiveOp::kAllGather, 512_MB,
                                   cfg());
    const fk::CollectiveKernel big2(fk::CollectiveOp::kAllGather, 1_GB,
                                    cfg());
    const double r_big = big2.nominalDuration().toSeconds() /
                         big.nominalDuration().toSeconds();
    EXPECT_GT(r_big, 1.8);
}

TEST(CollectiveModel, AllReduceCostsMoreThanAllGather)
{
    for (auto b : {64_KB, 512_MB}) {
        const fk::CollectiveKernel ag(fk::CollectiveOp::kAllGather, b, cfg());
        const fk::CollectiveKernel ar(fk::CollectiveOp::kAllReduce, b, cfg());
        EXPECT_GT(ar.nominalDuration().nanos(), ag.nominalDuration().nanos())
            << b;
    }
}

TEST(CollectiveModel, BandwidthBoundSaturatesFabric)
{
    const auto w =
        fk::CollectiveKernel(fk::CollectiveOp::kAllGather, 1_GB, cfg())
            .workAt(1.0);
    EXPECT_GT(w.util.fabric_bw, 0.5);
    const auto lb =
        fk::CollectiveKernel(fk::CollectiveOp::kAllGather, 64_KB, cfg())
            .workAt(1.0);
    EXPECT_LT(lb.util.fabric_bw, 0.1);
}

TEST(CollectiveModel, Labels)
{
    EXPECT_EQ(
        fk::CollectiveKernel(fk::CollectiveOp::kAllGather, 64_KB, cfg())
            .label(),
        "AG-64KB");
    EXPECT_EQ(
        fk::CollectiveKernel(fk::CollectiveOp::kAllReduce, 1_GB, cfg())
            .label(),
        "AR-1GB");
    EXPECT_EQ(
        fk::CollectiveKernel(fk::CollectiveOp::kAllReduce, 512_MB, cfg())
            .label(),
        "AR-512MB");
}

TEST(CollectiveModel, RejectsEmptyPayload)
{
    EXPECT_THROW(
        fk::CollectiveKernel(fk::CollectiveOp::kAllGather, 0, cfg()),
        fs::FatalError);
}

TEST(Workloads, PaperRegistryIsComplete)
{
    const auto ks = fk::paperKernels(cfg());
    ASSERT_EQ(ks.size(), 14u);
    // Spot-check label uniqueness.
    for (std::size_t i = 0; i < ks.size(); ++i) {
        for (std::size_t j = i + 1; j < ks.size(); ++j)
            EXPECT_NE(ks[i]->label(), ks[j]->label());
    }
    EXPECT_NO_THROW(fk::kernelByLabel("CB-8K-GEMM", cfg()));
    EXPECT_NO_THROW(fk::kernelByLabel("AR-512MB", cfg()));
    EXPECT_THROW(fk::kernelByLabel("CB-16K-GEMM", cfg()), fs::FatalError);
}

TEST(Workloads, ShorthandLabelsResolveToTheirFactories)
{
    // Every spec path resolves labels through kernelByLabel, so the
    // shorthand forms must build exactly what their factories build.
    fk::GemmShape shape;
    shape.m = 1024;
    shape.n = 2048;
    shape.k = 512;
    const std::pair<const char*, fk::KernelModelPtr> forms[] = {
        {"gemm:1024,2048,512", std::make_shared<fk::GemmKernel>(shape, cfg())},
        {"gemv:4096", fk::makeGemv(4096, cfg())},
        {"ag:1000000",
         fk::makeCollective(fk::CollectiveOp::kAllGather, 1000000, cfg())},
        {"ar:512000",
         fk::makeCollective(fk::CollectiveOp::kAllReduce, 512000, cfg())},
    };
    for (const auto& [label, expected] : forms) {
        const auto kernel = fk::kernelByLabel(label, cfg());
        EXPECT_EQ(kernel->label(), expected->label()) << label;
        EXPECT_EQ(kernel->nominalDuration().nanos(),
                  expected->nominalDuration().nanos())
            << label;
    }
    for (const char* malformed :
         {"gemm:1,2", "gemv:x", "gemm:1,2,3,4", "gemv:", "ag:-5", "ar:1e9",
          "gemv:4096,"}) {
        EXPECT_THROW(fk::kernelByLabel(malformed, cfg()), fs::FatalError)
            << malformed;
    }
}

TEST(PowerSignatures, PaperComponentOrderings)
{
    // Instantaneous power signatures at steady state (before any windowed
    // averaging) must already satisfy the paper's Fig. 7 / Fig. 10 facts.
    const sim::PowerModel pm(cfg().power);
    auto power = [&](const char* label) {
        const auto w = fk::kernelByLabel(label, cfg())->workAt(1.0);
        return pm.instantaneous(w.util, 1.0, 55.0);
    };

    const auto g8 = power("CB-8K-GEMM");
    const auto g4 = power("CB-4K-GEMM");
    const auto g2 = power("CB-2K-GEMM");
    const auto v8 = power("MB-8K-GEMV");
    const auto v4 = power("MB-4K-GEMV");
    const auto v2 = power("MB-2K-GEMV");
    const auto ag_bb = power("AG-1GB");
    const auto ag_lb = power("AG-64KB");
    const auto ar_bb = power("AR-1GB");

    // CB GEMMs dominate total and XCD power over MB GEMVs.
    for (const auto* cb : {&g8, &g4, &g2}) {
        for (const auto* mb : {&v8, &v4, &v2}) {
            EXPECT_GT(cb->total(), mb->total());
            EXPECT_GT(cb->xcd, mb->xcd);
        }
    }
    // CB-8K slightly highest among GEMMs; all CB XCDs in the same ballpark.
    EXPECT_GT(g8.xcd, g4.xcd);
    EXPECT_GT(g4.xcd, g2.xcd);
    EXPECT_GT(g2.xcd / g8.xcd, 0.80);
    // GEMV total power drops with size.
    EXPECT_GT(v8.total(), v4.total());
    EXPECT_GT(v4.total(), v2.total());
    // MB-8K-GEMV stresses IOD beyond every CB GEMM.
    EXPECT_GT(v8.iod, g8.iod);
    // CB-8K-GEMM has the highest HBM power of the GEMM/GEMV set.
    for (const auto* other : {&g4, &g2, &v8, &v4, &v2})
        EXPECT_GT(g8.hbm, other->hbm);
    // Communication: XCD far below GEMM; BB total between LB and CB GEMM;
    // BB IOD the highest of all; BB HBM above CB-8K's.
    EXPECT_LT(ag_bb.xcd, 0.4 * g8.xcd);
    EXPECT_GT(ag_bb.total(), ag_lb.total());
    EXPECT_LT(ag_bb.total(), g2.total());
    EXPECT_GT(ag_bb.iod, g8.iod);
    EXPECT_GT(ag_bb.iod, v8.iod);
    EXPECT_GT(ag_bb.hbm, g8.hbm);
    EXPECT_GT(ar_bb.xcd, ag_bb.xcd);  // reduction math costs XCD power
}

TEST(PowerSignatures, CalibrationDump)
{
    // Not an assertion test: prints the calibrated operating points for
    // humans (and for EXPERIMENTS.md).  Kept as a test so it can never rot.
    const sim::PowerModel pm(cfg().power);
    std::cout << "kernel            t_warm(us)  xcd(W)  iod(W)  hbm(W)  "
                 "total(W)\n";
    for (const auto& k : fk::paperKernels(cfg())) {
        const auto w = k->workAt(1.0);
        const auto p = pm.instantaneous(w.util, 1.0, 55.0);
        std::cout << k->label() << "\t" << w.nominal_duration.toMicros()
                  << "\t" << p.xcd << "\t" << p.iod << "\t" << p.hbm << "\t"
                  << p.total() << "\n";
    }
    SUCCEED();
}
