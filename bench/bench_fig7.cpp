/**
 * @file
 * Regenerates paper Figure 7: component-level comparative analysis of the
 * compute-bound GEMMs vs the memory-bound GEMVs.
 *
 * Paper facts reproduced here (all from SSP profiles, reported relative as
 * in the paper):
 *  - CB GEMMs show considerably higher total and XCD power than MB GEMVs;
 *  - among CB GEMMs, CB-8K has slightly higher total/XCD power;
 *  - GEMV total power drops from 8K to 2K;
 *  - MB-8K-GEMV stresses IOD power (above every CB GEMM);
 *  - HBM power is similar across kernels except CB-8K-GEMM, whose working
 *    set spills the Infinity Cache and has the highest HBM power.
 */

#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "analysis/report.hpp"
#include "analysis/series.hpp"
#include "fingrav/campaign_runner.hpp"
#include "fingrav/profiler.hpp"
#include "support/table.hpp"

namespace an = fingrav::analysis;
namespace fc = fingrav::core;
namespace fs = fingrav::support;

int
main()
{
    an::printHeader(
        "Figure 7 - component-level comparison: CB GEMMs vs MB GEMVs",
        "paper: CB >> MB in total/XCD; MB-8K-GEMV stresses IOD; CB-8K-GEMM "
        "has the highest HBM power; GEMV power drops with size");

    const std::vector<std::string> labels{
        "CB-8K-GEMM", "CB-4K-GEMM", "CB-2K-GEMM",
        "MB-8K-GEMV", "MB-4K-GEMV", "MB-2K-GEMV"};

    // Six independent campaigns, fanned out over the campaign engine
    // (bit-identical to running each through CampaignRunner::runOne).
    std::vector<fc::ScenarioSpec> specs;
    std::uint64_t seed = 7001;
    for (const auto& label : labels) {
        fc::ScenarioSpec spec;
        spec.label = label;
        spec.seed = seed++;
        specs.push_back(std::move(spec));
    }
    const auto results = fc::CampaignRunner().run(specs);

    std::map<std::string, fc::ProfileSet> sets;
    for (std::size_t i = 0; i < labels.size(); ++i) {
        sets.emplace(labels[i], results[i]);
        std::cout << an::summarize(sets.at(labels[i])) << "\n";
    }

    // Reference for relative power: the highest SSP total observed.
    double ref = 0.0;
    for (const auto& [label, set] : sets)
        ref = std::max(ref, set.ssp.meanPower(fc::Rail::kTotal));

    fs::TableWriter table({"kernel", "total", "XCD", "IOD", "HBM",
                           "total (W)"});
    for (const auto& label : labels) {
        const auto& ssp = sets.at(label).ssp;
        table.addRow({label,
                      fs::TableWriter::num(ssp.meanPower(fc::Rail::kTotal) / ref, 3),
                      fs::TableWriter::num(ssp.meanPower(fc::Rail::kXcd) / ref, 3),
                      fs::TableWriter::num(ssp.meanPower(fc::Rail::kIod) / ref, 3),
                      fs::TableWriter::num(ssp.meanPower(fc::Rail::kHbm) / ref, 3),
                      fs::TableWriter::num(ssp.meanPower(fc::Rail::kTotal), 1)});
    }
    std::cout << "\nSSP power relative to max (paper reports relative "
                 "power):\n";
    table.print(std::cout);

    // Degree-4 regression endpoints (the figure overlays trend lines).
    fs::TableWriter trends({"kernel", "rail", "trend@10%TOI", "trend@90%TOI"});
    for (const auto& label : labels) {
        const auto& ssp = sets.at(label).ssp;
        if (ssp.size() < 8)
            continue;
        for (const auto rail : {fc::Rail::kTotal, fc::Rail::kXcd,
                                fc::Rail::kIod, fc::Rail::kHbm}) {
            const auto t = an::trendSeries(ssp, rail, 4, 11);
            if (t.size() < 11)
                continue;
            trends.addRow({label, fc::toString(rail),
                           fs::TableWriter::num(t.y[1], 1),
                           fs::TableWriter::num(t.y[9], 1)});
        }
    }
    std::cout << "\nDegree-4 trend endpoints (W):\n";
    trends.print(std::cout);

    // Paper-fact checklist.
    auto ssp_mean = [&](const std::string& l, fc::Rail r) {
        return sets.at(l).ssp.meanPower(r);
    };
    struct Check {
        std::string claim;
        bool holds;
    };
    std::vector<Check> checks;
    bool cb_over_mb = true;
    for (const auto* cb : {"CB-8K-GEMM", "CB-4K-GEMM", "CB-2K-GEMM"}) {
        for (const auto* mb : {"MB-8K-GEMV", "MB-4K-GEMV", "MB-2K-GEMV"}) {
            cb_over_mb = cb_over_mb &&
                         ssp_mean(cb, fc::Rail::kTotal) >
                             ssp_mean(mb, fc::Rail::kTotal) &&
                         ssp_mean(cb, fc::Rail::kXcd) >
                             ssp_mean(mb, fc::Rail::kXcd);
        }
    }
    checks.push_back({"CB GEMMs > MB GEMVs in total and XCD power",
                      cb_over_mb});
    checks.push_back(
        {"CB-8K-GEMM slightly highest total/XCD among GEMMs",
         ssp_mean("CB-8K-GEMM", fc::Rail::kTotal) >
                 ssp_mean("CB-4K-GEMM", fc::Rail::kTotal) &&
             ssp_mean("CB-8K-GEMM", fc::Rail::kXcd) >
                 ssp_mean("CB-4K-GEMM", fc::Rail::kXcd)});
    checks.push_back(
        {"GEMV total power drops 8K -> 4K -> 2K",
         ssp_mean("MB-8K-GEMV", fc::Rail::kTotal) >
                 ssp_mean("MB-4K-GEMV", fc::Rail::kTotal) &&
             ssp_mean("MB-4K-GEMV", fc::Rail::kTotal) >
                 ssp_mean("MB-2K-GEMV", fc::Rail::kTotal)});
    checks.push_back(
        {"MB-8K-GEMV IOD power above every CB GEMM",
         ssp_mean("MB-8K-GEMV", fc::Rail::kIod) >
                 ssp_mean("CB-8K-GEMM", fc::Rail::kIod) &&
             ssp_mean("MB-8K-GEMV", fc::Rail::kIod) >
                 ssp_mean("CB-4K-GEMM", fc::Rail::kIod)});
    bool hbm_top = true;
    for (const auto& label : labels) {
        if (label != "CB-8K-GEMM") {
            hbm_top = hbm_top && ssp_mean("CB-8K-GEMM", fc::Rail::kHbm) >
                                     ssp_mean(label, fc::Rail::kHbm);
        }
    }
    checks.push_back({"CB-8K-GEMM has the highest HBM power", hbm_top});
    // "Ballpark" threshold: instantaneous XCD powers sit within ~88 % of
    // each other; the windowed SSP view of the 33 us CB-2K kernel dilutes
    // it further with inter-launch gaps, so 75 % is the honest bound.
    checks.push_back(
        {"all CB GEMM XCD powers within the same ballpark (>= 75 %)",
         ssp_mean("CB-2K-GEMM", fc::Rail::kXcd) /
                 ssp_mean("CB-8K-GEMM", fc::Rail::kXcd) >
             0.75});

    std::cout << "\nPaper-fact checklist:\n";
    for (const auto& c : checks) {
        std::cout << "  [" << (c.holds ? "ok" : "MISMATCH") << "] "
                  << c.claim << "\n";
    }

    for (const auto& label : labels)
        an::dumpProfileCsv(sets.at(label).ssp, "fig7_" + label);
    std::cout << "\nCSV dumps under fingrav_out/fig7_*.csv\n";
    return 0;
}
