/**
 * @file
 * Regenerates paper Figure 9: total power of interleaved GEMM/GEMV
 * executions compared against each kernel's isolated SSP profile.
 *
 * Paper cases and directions:
 *  - CB->8K      : CB-8K-GEMM after 60 CB-2K-GEMMs — slight rise vs SSP;
 *  - CB->2K      : CB-2K-GEMM after CB-8K + CB-4K — power above SSP;
 *  - MB->2K      : CB-2K-GEMM after 40 MB-4K-GEMVs — power far below SSP;
 *  - MB->8Kgemv  : MB-8K-GEMV after MB-4K/2K-GEMVs — below its SSP;
 *  - CB->4Kgemv  : MB-4K-GEMV after CB-8K/4K-GEMMs — above its SSP.
 *
 * Takeaway #5: kernels shorter than the logger's averaging window inherit
 * the power of whatever preceded them; compute-heavy long kernels do not.
 */

#include <algorithm>
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

namespace {

struct Case {
    std::string name;          ///< the paper's tag, e.g. "CB->2K"
    std::string main;          ///< profiled kernel
    std::vector<std::pair<std::string, std::size_t>> prelude;
    std::string expectation;   ///< the paper's reported direction
};

}  // namespace

int
main()
{
    an::printHeader(
        "Figure 9 - interleaved GEMM/GEMV total power vs isolated SSP",
        "paper: short/compute-light kernels inherit preceding kernels' "
        "power; CB-8K-GEMM is unaffected (takeaway #5)");

    const auto cfg = fingrav::sim::mi300xConfig();

    const std::vector<Case> cases{
        {"CB->8K", "CB-8K-GEMM", {{"CB-2K-GEMM", 60}}, "small shift"},
        {"CB->2K", "CB-2K-GEMM",
         {{"CB-8K-GEMM", 1}, {"CB-4K-GEMM", 1}}, "higher than SSP"},
        {"MB->2K", "CB-2K-GEMM", {{"MB-4K-GEMV", 40}}, "far lower than SSP"},
        {"MB->8Kgemv", "MB-8K-GEMV",
         {{"MB-4K-GEMV", 20}, {"MB-2K-GEMV", 20}}, "lower than SSP"},
        {"CB->4Kgemv", "MB-4K-GEMV",
         {{"CB-8K-GEMM", 1}, {"CB-4K-GEMM", 1}}, "higher than SSP"},
    };

    // Isolated SSP references: one independent campaign per distinct
    // main kernel, fanned out over the campaign engine.
    std::uint64_t seed = 9001;
    fc::ProfilerOptions opts;
    opts.runs_override = 150;  // plenty of LOIs for means; keeps runtime sane
    std::vector<std::string> iso_labels;
    std::vector<fc::ScenarioSpec> iso_specs;
    for (const auto& c : cases) {
        if (std::find(iso_labels.begin(), iso_labels.end(), c.main) !=
            iso_labels.end())
            continue;
        iso_labels.push_back(c.main);
        iso_specs.push_back({c.main, seed++, opts});
    }
    const auto iso_sets = fc::CampaignRunner().run(iso_specs);
    std::map<std::string, fc::ProfileSet> isolated;
    for (std::size_t i = 0; i < iso_labels.size(); ++i) {
        isolated.emplace(iso_labels[i], iso_sets[i]);
        std::cout << "[isolated] " << an::summarize(isolated.at(iso_labels[i]))
                  << "\n";
    }

    // The interleaved campaigns: each runs the Section V-C3 interleaved
    // pipeline on a fresh node of its own.
    std::vector<fc::ProfileSet> inter_sets;
    for (const auto& c : cases) {
        std::vector<fc::InterleaveItem> prelude;
        for (const auto& [label, count] : c.prelude)
            prelude.push_back({fk::kernelByLabel(label, cfg), count});
        const fc::ScenarioSpec spec{c.main, seed++, opts};
        fc::CampaignNode node(spec, cfg);
        inter_sets.push_back(
            fc::Profiler(node.host(), spec.opts, node.profilerRng())
                .profileInterleaved(node.kernel(), prelude, 6));
    }

    fs::TableWriter table({"case", "isolated SSP (W)", "interleaved (W)",
                           "shift (%)", "paper direction", "match"});
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const auto& c = cases[i];
        const auto& inter = inter_sets[i];
        const auto& iso = isolated.at(c.main);
        const double shift = fc::interleavingShiftPct(inter, iso);

        bool match = false;
        if (c.expectation == "small shift")
            match = std::abs(shift) < 12.0;
        else if (c.expectation == "higher than SSP")
            match = shift > 3.0;
        else if (c.expectation == "far lower than SSP")
            match = shift < -30.0;
        else if (c.expectation == "lower than SSP")
            match = shift < -3.0;

        table.addRow({c.name,
                      fs::TableWriter::num(iso.ssp.meanPower(), 1),
                      fs::TableWriter::num(inter.ssp.meanPower(), 1),
                      fs::TableWriter::num(shift, 1), c.expectation,
                      match ? "ok" : "MISMATCH"});
        an::dumpProfileCsv(inter.ssp, "fig9_" + c.name);
    }
    std::cout << "\nInterleaved total power vs isolated SSP:\n";
    table.print(std::cout);

    std::cout << "\nMeasurement guidance #2 (paper): kernels whose "
                 "execution time is below the averaging window need "
                 "isolated executions for true power assessment.\n";
    std::cout << "CSV dumps under fingrav_out/fig9_*.csv\n";
    return 0;
}
