/**
 * @file
 * Integration tests asserting the paper's evaluation facts end-to-end, so
 * a calibration regression fails `ctest` rather than only changing bench
 * output.  Reduced run counts keep each campaign fast; the facts asserted
 * are scale-free orderings, not absolute values.
 */

#include <map>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "fingrav/campaign_runner.hpp"
#include "fingrav/energy.hpp"
#include "fingrav/profiler.hpp"
#include "kernels/workloads.hpp"
#include "support/statistics.hpp"

namespace fc = fingrav::core;
namespace fs = fingrav::support;

namespace {

/** Shared campaign cache: each paper kernel profiled once per binary run. */
class PaperFacts : public ::testing::Test {
  protected:
    static const fc::ProfileSet&
    set(const std::string& label)
    {
        static std::map<std::string, fc::ProfileSet> cache;
        auto it = cache.find(label);
        if (it == cache.end()) {
            fc::ProfilerOptions opts;
            opts.runs_override = 80;
            static std::uint64_t seed = 42000;
            it = cache.emplace(label, fc::CampaignRunner::runOne(
                                              {label, seed++, opts}))
                     .first;
        }
        return it->second;
    }

    static double
    ssp(const std::string& label, fc::Rail rail = fc::Rail::kTotal)
    {
        return set(label).ssp.meanPower(rail);
    }
};

}  // namespace

TEST_F(PaperFacts, Fig6ShapeSpikeThrottleRecover)
{
    const auto& s = set("CB-8K-GEMM");
    // Bucket the timeline into execution-length slots.
    const double exec_us = s.ssp_exec_time.toMicros();
    std::map<std::size_t, fs::RunningStats> slots;
    for (const auto& p : s.timeline.points()) {
        if (p.run_time_us >= 0.0) {
            const auto slot =
                static_cast<std::size_t>(p.run_time_us / exec_us);
            if (slot < 14)
                slots[slot].add(p.sample.total_w);
        }
    }
    ASSERT_GE(slots.size(), 10u);
    const auto rep = fc::differentiationError(s);
    double spike = 0.0;
    for (std::size_t i = 0; i <= 2; ++i)
        spike = std::max(spike, slots[i].mean());
    // Rise above SSP, drop below it (SSE region), recover to SSP.
    EXPECT_GT(spike, rep.ssp_mean_w);
    EXPECT_LT(rep.sse_mean_w, rep.ssp_mean_w);
    EXPECT_GT(rep.error_pct, 8.0);
    EXPECT_LT(rep.error_pct, 30.0);
}

TEST_F(PaperFacts, Fig7TotalAndXcdOrderings)
{
    // CB >> MB in total and XCD power, size-ordered within each family.
    for (const char* cb : {"CB-8K-GEMM", "CB-4K-GEMM", "CB-2K-GEMM"}) {
        for (const char* mb : {"MB-8K-GEMV", "MB-4K-GEMV", "MB-2K-GEMV"}) {
            EXPECT_GT(ssp(cb), ssp(mb)) << cb << " vs " << mb;
            EXPECT_GT(ssp(cb, fc::Rail::kXcd), ssp(mb, fc::Rail::kXcd));
        }
    }
    EXPECT_GT(ssp("CB-8K-GEMM"), ssp("CB-4K-GEMM"));
    EXPECT_GT(ssp("CB-4K-GEMM"), ssp("CB-2K-GEMM"));
    EXPECT_GT(ssp("MB-8K-GEMV"), ssp("MB-4K-GEMV"));
    EXPECT_GT(ssp("MB-4K-GEMV"), ssp("MB-2K-GEMV"));
    // CB-8K slightly highest XCD; all CB XCDs in one ballpark.
    EXPECT_GT(ssp("CB-8K-GEMM", fc::Rail::kXcd),
              ssp("CB-4K-GEMM", fc::Rail::kXcd));
    EXPECT_GT(ssp("CB-2K-GEMM", fc::Rail::kXcd) /
                  ssp("CB-8K-GEMM", fc::Rail::kXcd),
              0.72);
}

TEST_F(PaperFacts, Fig7ComponentSignatures)
{
    // MB-8K-GEMV stresses IOD beyond every CB GEMM.
    for (const char* cb : {"CB-8K-GEMM", "CB-4K-GEMM", "CB-2K-GEMM"}) {
        EXPECT_GT(ssp("MB-8K-GEMV", fc::Rail::kIod),
                  ssp(cb, fc::Rail::kIod))
            << cb;
    }
    // CB-8K-GEMM (LLC-spilling working set) has the highest HBM power.
    for (const char* other : {"CB-4K-GEMM", "CB-2K-GEMM", "MB-8K-GEMV",
                              "MB-4K-GEMV", "MB-2K-GEMV"}) {
        EXPECT_GT(ssp("CB-8K-GEMM", fc::Rail::kHbm),
                  ssp(other, fc::Rail::kHbm))
            << other;
    }
}

TEST_F(PaperFacts, Fig8ErrorScalesInverselyWithExecTime)
{
    const auto rep2k = fc::differentiationError(set("CB-2K-GEMM"));
    const auto rep4k = fc::differentiationError(set("CB-4K-GEMM"));
    const auto rep8k = fc::differentiationError(set("CB-8K-GEMM"));
    // Paper: ~80 % (2K) / ~36 % (4K) / ~20 % (8K): strictly ordered with
    // wide, stable bands.
    EXPECT_GT(rep2k.error_pct, rep4k.error_pct);
    EXPECT_GT(rep4k.error_pct, rep8k.error_pct);
    EXPECT_GT(rep2k.error_pct, 55.0);
    EXPECT_LT(rep2k.error_pct, 85.0);
    EXPECT_GT(rep4k.error_pct, 22.0);
    EXPECT_LT(rep4k.error_pct, 45.0);
}

TEST_F(PaperFacts, Fig10CommunicationSignatures)
{
    // XCD: the GEMM dwarfs every collective.
    for (const char* comm : {"AG-64KB", "AG-1GB", "AR-64KB", "AR-1GB"}) {
        EXPECT_LT(ssp(comm, fc::Rail::kXcd),
                  0.5 * ssp("CB-8K-GEMM", fc::Rail::kXcd))
            << comm;
    }
    // Total: LB < BB < GEMM.
    EXPECT_LT(ssp("AG-64KB"), ssp("AG-1GB"));
    EXPECT_LT(ssp("AG-1GB"), ssp("CB-8K-GEMM"));
    EXPECT_LT(ssp("AR-64KB"), ssp("AR-1GB"));
    EXPECT_LT(ssp("AR-1GB"), ssp("CB-8K-GEMM"));
    // BB collectives carry the highest IOD power of everything measured,
    // and more HBM power than the GEMM.
    EXPECT_GT(ssp("AG-1GB", fc::Rail::kIod),
              ssp("CB-8K-GEMM", fc::Rail::kIod));
    EXPECT_GT(ssp("AG-1GB", fc::Rail::kIod),
              ssp("MB-8K-GEMV", fc::Rail::kIod));
    EXPECT_GT(ssp("AG-1GB", fc::Rail::kHbm),
              ssp("CB-8K-GEMM", fc::Rail::kHbm));
    // All-reduce costs more XCD than all-gather (reduction math).
    EXPECT_GT(ssp("AR-1GB", fc::Rail::kXcd), ssp("AG-1GB", fc::Rail::kXcd));
}

TEST_F(PaperFacts, TableTwoPowerProportionalityGap)
{
    // CB-2K achieves ~half the compute utilization of CB-8K but draws the
    // bulk of its XCD power — takeaway #4 end to end.
    const auto cfg = fingrav::sim::mi300xConfig();
    const auto k2 = fingrav::kernels::GemmKernel({2048, 2048, 2048, 2}, cfg);
    const auto k8 = fingrav::kernels::GemmKernel({8192, 8192, 8192, 2}, cfg);
    const double util_ratio =
        k2.achievedComputeUtilization() / k8.achievedComputeUtilization();
    const double power_ratio = ssp("CB-2K-GEMM", fc::Rail::kXcd) /
                               ssp("CB-8K-GEMM", fc::Rail::kXcd);
    EXPECT_LT(util_ratio, 0.62);
    EXPECT_GT(power_ratio, util_ratio + 0.15);
}
