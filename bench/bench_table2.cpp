/**
 * @file
 * Regenerates paper Table II: the five takeaways with their measurement
 * guidance / hardware recommendations, each verified quantitatively on
 * the simulated node.
 *
 *  #1 similar execution times can hide very different power profiles
 *     (SSE vs SSP; error up to ~80 % depending on exec-time/window ratio);
 *  #2 total power scales with work; components stress by algorithm;
 *  #3 compute-heavy kernels are XCD-dominated;
 *  #4 compute-light and compute-heavy kernels show similar XCD power
 *     (power proportionality gap);
 *  #5 short kernels inherit preceding kernels' power; compute-heavy long
 *     kernels do not.
 */

#include <cmath>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "analysis/report.hpp"
#include "fingrav/campaign_runner.hpp"
#include "fingrav/energy.hpp"
#include "fingrav/profiler.hpp"
#include "kernels/workloads.hpp"
#include "support/table.hpp"

namespace an = fingrav::analysis;
namespace fc = fingrav::core;
namespace fk = fingrav::kernels;
namespace fs = fingrav::support;

int
main()
{
    an::printHeader("Table II - takeaways, guidance and recommendations",
                    "each paper takeaway verified quantitatively");

    const auto cfg = fingrav::sim::mi300xConfig();
    std::uint64_t seed = 12001;

    // Shared campaigns, fanned out over the campaign engine.
    const std::vector<std::string> labels{
        "CB-8K-GEMM", "CB-4K-GEMM", "CB-2K-GEMM", "MB-8K-GEMV"};
    std::vector<fc::ScenarioSpec> specs;
    for (const auto& label : labels) {
        fc::ScenarioSpec spec;
        spec.label = label;
        spec.seed = seed++;
        specs.push_back(std::move(spec));
    }
    const auto results = fc::CampaignRunner().run(specs);
    std::map<std::string, fc::ProfileSet> sets;
    for (std::size_t i = 0; i < labels.size(); ++i)
        sets.emplace(labels[i], results[i]);
    auto mean = [&](const std::string& l, fc::Rail r) {
        return sets.at(l).ssp.meanPower(r);
    };

    fs::TableWriter table({"#", "takeaway", "measured evidence", "verdict"});

    // --- takeaway #1 ------------------------------------------------------
    const auto rep2k = fc::differentiationError(sets.at("CB-2K-GEMM"));
    const auto rep8k = fc::differentiationError(sets.at("CB-8K-GEMM"));
    table.addRow(
        {"1",
         "similar exec times, very different profiles; error grows as "
         "exec time shrinks vs averaging window",
         "SSE-vs-SSP error: CB-2K " + fs::TableWriter::num(rep2k.error_pct, 1) +
             "% (paper ~80%), CB-8K " +
             fs::TableWriter::num(rep8k.error_pct, 1) + "% (paper ~20%)",
         (rep2k.error_pct > 55.0 && rep2k.error_pct > 2.5 * rep8k.error_pct)
             ? "ok"
             : "MISMATCH"});

    // --- takeaway #2 ------------------------------------------------------
    const double cb_total = mean("CB-8K-GEMM", fc::Rail::kTotal);
    const double mb_total = mean("MB-8K-GEMV", fc::Rail::kTotal);
    const double mb_iod_share =
        mean("MB-8K-GEMV", fc::Rail::kIod) / mb_total;
    const double cb_iod_share =
        mean("CB-8K-GEMM", fc::Rail::kIod) / cb_total;
    table.addRow(
        {"2",
         "total power scales with work; components stress by algorithm",
         "CB total " + fs::TableWriter::num(cb_total, 0) + "W > MB total " +
             fs::TableWriter::num(mb_total, 0) + "W; IOD share MB " +
             fs::TableWriter::num(mb_iod_share * 100, 0) + "% vs CB " +
             fs::TableWriter::num(cb_iod_share * 100, 0) + "%",
         (cb_total > mb_total && mb_iod_share > 2.0 * cb_iod_share)
             ? "ok"
             : "MISMATCH"});

    // --- takeaway #3 ------------------------------------------------------
    const double xcd_share =
        mean("CB-8K-GEMM", fc::Rail::kXcd) / cb_total;
    table.addRow({"3", "compute-heavy kernels dominated by XCD power",
                  "CB-8K-GEMM XCD share " +
                      fs::TableWriter::num(xcd_share * 100, 1) + "% of total",
                  xcd_share > 0.65 ? "ok" : "MISMATCH"});

    // --- takeaway #4 ------------------------------------------------------
    const auto k2 = fk::GemmKernel({2048, 2048, 2048, 2}, cfg);
    const auto k8 = fk::GemmKernel({8192, 8192, 8192, 2}, cfg);
    const double util_ratio = k2.achievedComputeUtilization() /
                              k8.achievedComputeUtilization();
    const double xcd_ratio =
        mean("CB-2K-GEMM", fc::Rail::kXcd) / mean("CB-8K-GEMM", fc::Rail::kXcd);
    table.addRow(
        {"4",
         "compute-light and compute-heavy kernels show similar XCD power "
         "(proportionality gap)",
         "CB-2K at " + fs::TableWriter::num(util_ratio * 100, 0) +
             "% of CB-8K's compute utilization draws " +
             fs::TableWriter::num(xcd_ratio * 100, 0) + "% of its XCD power",
         (util_ratio < 0.62 && xcd_ratio > 0.72) ? "ok" : "MISMATCH"});

    // --- takeaway #5 ------------------------------------------------------
    // Each interleaved campaign runs on a fresh node of its own.
    fc::ProfilerOptions iopts;
    iopts.runs_override = 120;
    const auto interleaved = [&](const std::string& label,
                                 const std::vector<fc::InterleaveItem>& prelude,
                                 std::size_t blocks_per_run) {
        const fc::ScenarioSpec spec{label, seed++, iopts};
        fc::CampaignNode node(spec, cfg);
        return fc::Profiler(node.host(), spec.opts, node.profilerRng())
            .profileInterleaved(node.kernel(), prelude, blocks_per_run);
    };
    const auto cb2k_after_cb = interleaved(
        "CB-2K-GEMM",
        {{fk::kernelByLabel("CB-8K-GEMM", cfg), 1},
         {fk::kernelByLabel("CB-4K-GEMM", cfg), 1}},
        6);
    const auto cb2k_after_mb = interleaved(
        "CB-2K-GEMM", {{fk::kernelByLabel("MB-4K-GEMV", cfg), 40}}, 6);
    const auto cb8k_after_cb = interleaved(
        "CB-8K-GEMM", {{fk::kernelByLabel("CB-2K-GEMM", cfg), 60}}, 4);
    const double up_shift =
        fc::interleavingShiftPct(cb2k_after_cb, sets.at("CB-2K-GEMM"));
    const double down_shift =
        fc::interleavingShiftPct(cb2k_after_mb, sets.at("CB-2K-GEMM"));
    const double big_shift =
        fc::interleavingShiftPct(cb8k_after_cb, sets.at("CB-8K-GEMM"));
    // The essence of #5: the >window compute-heavy kernel moves far less
    // than the sub-window kernels.  (The paper saw a slight *rise* for
    // CB->8K where we see a slight dip: on the authors' silicon CB-2K
    // draws near-parity power with CB-8K, so its windows do not dilute
    // the 8K reading; see EXPERIMENTS.md.)
    const bool big_unaffected =
        std::abs(big_shift) < 0.25 * std::abs(down_shift) &&
        std::abs(big_shift) < 12.0;
    table.addRow(
        {"5",
         "short kernels' measured power inherits preceding kernels; "
         "compute-heavy long kernels (relatively) unaffected",
         "CB-2K shifts: +" + fs::TableWriter::num(up_shift, 1) +
             "% after CB, " + fs::TableWriter::num(down_shift, 1) +
             "% after MB; CB-8K shifts only " +
             fs::TableWriter::num(big_shift, 1) + "%",
         (up_shift > 3.0 && down_shift < -30.0 && big_unaffected)
             ? "ok"
             : "MISMATCH"});

    table.print(std::cout);

    std::cout
        << "\nMeasurement guidance (paper Table II):\n"
           "  G1: power-profile differentiation (SSE vs SSP) is crucial;\n"
           "  G2: isolated executions are necessary for kernels shorter\n"
           "      than the logger's averaging window.\n"
           "Recommendations (paper Table II):\n"
           "  R1: co-schedule computations with complementary power "
           "profiles;\n"
           "  R2: prioritize XCD power optimization for compute-heavy "
           "kernels;\n"
           "  R3: pursue GPU power proportionality for compute-light "
           "kernels.\n";
    return 0;
}
