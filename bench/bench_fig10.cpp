/**
 * @file
 * Regenerates paper Figure 10: component-level power of the communication
 * kernels (all-gather / all-reduce at latency- and bandwidth-bound sizes)
 * compared against CB-8K-GEMM.
 *
 * Paper facts:
 *  - CB-8K-GEMM has much higher XCD power than every collective;
 *  - bandwidth-bound collectives sit between latency-bound collectives
 *    and the GEMM in total power;
 *  - the gap is explained by the considerably higher IOD and HBM power of
 *    bandwidth-bound collectives (Infinity-Fabric SerDes + staging
 *    traffic).
 */

#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "analysis/report.hpp"
#include "fingrav/campaign_runner.hpp"
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
    an::printHeader(
        "Figure 10 - communication kernels vs CB-8K-GEMM, per component",
        "paper: GEMM >> comms in XCD; BB comms between LB comms and GEMM "
        "in total, with the highest IOD/HBM power");

    const auto cfg = fingrav::sim::mi300xConfig();
    const std::vector<std::string> labels{
        "AG-64KB", "AG-128KB", "AG-512MB", "AG-1GB",
        "AR-64KB", "AR-128KB", "AR-512MB", "AR-1GB",
        "CB-8K-GEMM"};

    fc::ProfilerOptions opts;
    opts.runs_override = 100;  // collectives are long; 100 runs suffice

    // Nine independent campaigns, fanned out over the campaign engine
    // (campaign_runner_test holds this set, at 30 runs, bit-identical
    // to serial).
    std::vector<fc::ScenarioSpec> specs;
    std::uint64_t seed = 10001;
    for (const auto& label : labels) {
        fc::ScenarioSpec spec;
        spec.label = label;
        spec.seed = seed++;
        spec.opts = opts;
        specs.push_back(std::move(spec));
    }
    const auto results = fc::CampaignRunner().run(specs);

    std::map<std::string, fc::ProfileSet> sets;
    for (std::size_t i = 0; i < labels.size(); ++i) {
        sets.emplace(labels[i], results[i]);
        std::cout << an::summarize(sets.at(labels[i])) << "\n";
    }

    double ref = 0.0;
    for (const auto& [label, set] : sets)
        ref = std::max(ref, set.ssp.meanPower());

    fs::TableWriter table({"kernel", "class", "total", "XCD", "IOD", "HBM",
                           "total (W)"});
    for (const auto& label : labels) {
        const auto& set = sets.at(label);
        std::string cls = "compute";
        if (label != "CB-8K-GEMM") {
            const auto k = fk::kernelByLabel(label, cfg);
            const auto* coll =
                dynamic_cast<const fk::CollectiveKernel*>(k.get());
            cls = toString(coll->boundedness());
        }
        const auto& ssp = set.ssp;
        table.addRow({label, cls,
                      fs::TableWriter::num(ssp.meanPower(fc::Rail::kTotal) / ref, 3),
                      fs::TableWriter::num(ssp.meanPower(fc::Rail::kXcd) / ref, 3),
                      fs::TableWriter::num(ssp.meanPower(fc::Rail::kIod) / ref, 3),
                      fs::TableWriter::num(ssp.meanPower(fc::Rail::kHbm) / ref, 3),
                      fs::TableWriter::num(ssp.meanPower(fc::Rail::kTotal), 1)});
    }
    std::cout << "\nSSP power relative to max:\n";
    table.print(std::cout);

    // Paper-fact checklist.
    auto mean = [&](const std::string& l, fc::Rail r) {
        return sets.at(l).ssp.meanPower(r);
    };
    const double gemm_xcd = mean("CB-8K-GEMM", fc::Rail::kXcd);
    bool xcd_gap = true;
    for (const auto& label : labels) {
        if (label != "CB-8K-GEMM")
            xcd_gap = xcd_gap && mean(label, fc::Rail::kXcd) < 0.5 * gemm_xcd;
    }
    const double lb_total =
        std::max(mean("AG-128KB", fc::Rail::kTotal),
                 mean("AR-128KB", fc::Rail::kTotal));
    const double bb_total =
        std::min(mean("AG-512MB", fc::Rail::kTotal),
                 mean("AR-512MB", fc::Rail::kTotal));
    const bool bb_middle =
        bb_total > lb_total &&
        bb_total < mean("CB-8K-GEMM", fc::Rail::kTotal);
    const bool bb_iod =
        mean("AG-1GB", fc::Rail::kIod) > mean("CB-8K-GEMM", fc::Rail::kIod) &&
        mean("AR-1GB", fc::Rail::kIod) > mean("CB-8K-GEMM", fc::Rail::kIod);
    const bool bb_hbm =
        mean("AG-1GB", fc::Rail::kHbm) > mean("CB-8K-GEMM", fc::Rail::kHbm);

    std::cout << "\nPaper-fact checklist:\n"
              << "  [" << (xcd_gap ? "ok" : "MISMATCH")
              << "] CB-8K-GEMM XCD power >> all collectives\n"
              << "  [" << (bb_middle ? "ok" : "MISMATCH")
              << "] BB collectives between LB collectives and GEMM in "
                 "total power\n"
              << "  [" << (bb_iod ? "ok" : "MISMATCH")
              << "] BB collectives have the highest IOD power\n"
              << "  [" << (bb_hbm ? "ok" : "MISMATCH")
              << "] BB collectives exceed the GEMM's HBM power\n";

    std::cout << "\nRecommendation (paper): heterogeneous power profiles "
                 "-> concurrent execution of latency-bound communication "
                 "with computation exploits available headroom.\n";

    for (const auto& label : labels)
        an::dumpProfileCsv(sets.at(label).ssp, "fig10_" + label);
    std::cout << "CSV dumps under fingrav_out/fig10_*.csv\n";
    return 0;
}
