/**
 * @file
 * Regenerates paper Figure 6: CB-8K-GEMM total and XCD power across the
 * executions of a run.
 *
 * Paper shape: power rises for the initial executions (boost clocks +
 * cold-cache memory traffic push past the excursion threshold), the power
 * management firmware throttles frequency (the deep drop), then power
 * slowly recovers to the steady-state operating point — SSE power sits
 * below SSP.  Warm-up executions are slower; execution time stabilizes at
 * SSE.
 */

#include <algorithm>
#include <iostream>
#include <map>
#include <vector>

#include "analysis/ascii_plot.hpp"
#include "analysis/report.hpp"
#include "analysis/series.hpp"
#include "fingrav/campaign_runner.hpp"
#include "fingrav/energy.hpp"
#include "fingrav/profiler.hpp"
#include "kernels/workloads.hpp"
#include "support/statistics.hpp"
#include "support/table.hpp"

namespace an = fingrav::analysis;
namespace fc = fingrav::core;
namespace fk = fingrav::kernels;
namespace fs = fingrav::support;

int
main()
{
    an::printHeader(
        "Figure 6 - CB-8K-GEMM total and XCD power across a run",
        "paper: sharp rise -> throttle drop to SSE -> slight rise to SSP; "
        "warm-ups slower; SSE/SSP spread ~20%");

    const auto set = fc::CampaignRunner::runOne({"CB-8K-GEMM", 6001});
    std::cout << "\n" << an::summarize(set) << "\n";

    // Timeline: total and XCD power against time in run, overlaid across
    // all golden runs (the paper's x-axis is "time for a run").
    an::AsciiPlot plot(72, 16);
    plot.addSeries(an::toSeries(set.timeline, fc::Rail::kTotal), 'o',
                   "total power");
    plot.addSeries(an::toSeries(set.timeline, fc::Rail::kXcd), 'x',
                   "XCD power");
    std::cout << "\nPower vs time in run (us):\n" << plot.render();

    // Per-execution-position mean power from the stitched SSP/SSE/warm-up
    // structure: reconstruct by bucketing timeline samples by run time
    // relative to the mean execution length.
    const double exec_us = set.ssp_exec_time.toMicros();
    std::map<std::size_t, fs::RunningStats> by_exec;
    for (const auto& p : set.timeline.points()) {
        if (p.run_time_us < 0.0)
            continue;
        const auto slot =
            static_cast<std::size_t>(p.run_time_us / exec_us);
        if (slot < 16)
            by_exec[slot].add(p.sample.total_w);
    }
    fs::TableWriter table({"exec slot", "mean total (W)", "n"});
    for (const auto& [slot, stats] : by_exec) {
        table.addRow({std::to_string(slot),
                      fs::TableWriter::num(stats.mean(), 1),
                      std::to_string(stats.count())});
    }
    std::cout << "\nMean total power per execution-length slot:\n";
    table.print(std::cout);

    // The paper's three phase markers.
    const auto rep = fc::differentiationError(set);
    std::cout << "\nwarm-ups: executions 0-" << set.sse_exec_index - 1
              << "; SSE: execution " << set.sse_exec_index
              << "; SSP: execution " << set.ssp_exec_index << "\n";
    std::cout << "SSE power " << rep.sse_mean_w << " W, SSP power "
              << rep.ssp_mean_w << " W -> spread " << rep.error_pct
              << " %  (paper: ~20 %)\n";

    // Shape checks the paper narrates.
    double spike = 0.0;
    for (const auto& [slot, stats] : by_exec) {
        if (slot <= 2)
            spike = std::max(spike, stats.mean());
    }
    std::cout << "initial-execution peak " << spike
              << " W vs SSE " << rep.sse_mean_w << " W vs SSP "
              << rep.ssp_mean_w << " W -> shape "
              << ((spike > rep.ssp_mean_w && rep.sse_mean_w < rep.ssp_mean_w)
                      ? "rise->drop->rise (matches paper)"
                      : "UNEXPECTED")
              << "\n";

    an::dumpProfileCsv(set.timeline, "fig6_timeline");
    an::dumpProfileCsv(set.ssp, "fig6_ssp");
    an::dumpProfileCsv(set.sse, "fig6_sse");
    std::cout << "\nCSV dumps under fingrav_out/fig6_*.csv\n";
    return 0;
}
