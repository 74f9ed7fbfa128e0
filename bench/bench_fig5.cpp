/**
 * @file
 * Regenerates paper Figure 5: FinGraV methodology evaluation on
 * CB-4K-GEMM.
 *
 * Four comparisons, as in the paper:
 *  (a) CPU-GPU time sync on vs off — the unsynchronized profile misses the
 *      idle-to-kernel power ramp and misaligns power changes with
 *      executions;
 *  (b) SSE vs SSP profile differentiation — assuming SSE is "the" profile
 *      misestimates power by up to ~36 % for this kernel;
 *  (c) execution-time binning on vs off — binning tightens the profile;
 *  (d) resiliency to #runs — a 50-run campaign with a degree-4 regression
 *      recovers the 200-run trend.
 */

#include <cmath>
#include <iostream>

#include "analysis/ascii_plot.hpp"
#include "analysis/report.hpp"
#include "analysis/series.hpp"
#include "fingrav/campaign_runner.hpp"
#include "fingrav/energy.hpp"
#include "fingrav/profiler.hpp"
#include "kernels/workloads.hpp"
#include "support/statistics.hpp"

namespace an = fingrav::analysis;
namespace fc = fingrav::core;
namespace fk = fingrav::kernels;

namespace {

/** Std-dev of SSP LOI power around the degree-4 trend (profile tightness). */
double
scatterAroundTrend(const fc::PowerProfile& profile)
{
    if (profile.size() < 8)
        return 0.0;
    const auto fit = profile.trend(fc::Rail::kTotal, 4);
    std::vector<double> residuals;
    residuals.reserve(profile.size());
    for (const auto& p : profile.points())
        residuals.push_back(p.sample.total_w - fit.poly(p.toi_us));
    return fingrav::support::stddev(residuals);
}

}  // namespace

int
main()
{
    an::printHeader(
        "Figure 5 - FinGraV methodology evaluation (CB-4K-GEMM)",
        "paper: sync captures the power ramp; SSE!=SSP (up to 36% error); "
        "binning tightens the profile; 50 runs + regression ~= 200 runs");

    // All four comparison campaigns ride the campaign engine at once:
    // the full methodology, the two degraded baselines on the *same*
    // seed (same workload draws, so the tenet is the only variable), and
    // the 50-run resiliency campaign.
    const fc::ProfilerOptions opts;
    fc::ProfilerOptions unsynced_opts;  // tenet S2 off
    unsynced_opts.sync_mode = fc::SyncMode::kCoarseAlign;
    fc::ProfilerOptions nobin_opts;  // tenet S3 off
    nobin_opts.binning = false;
    fc::ProfilerOptions small;
    small.runs_override = 50;

    const auto results = fc::CampaignRunner().run(
        {{"CB-4K-GEMM", 5001, opts},
         {"CB-4K-GEMM", 5001, unsynced_opts},
         {"CB-4K-GEMM", 5001, nobin_opts},
         {"CB-4K-GEMM", 5002, small}});
    const auto& synced = results[0];
    const auto& unsynced = results[1];
    const auto& nobin = results[2];
    const auto& few = results[3];
    std::cout << "\n[synced]   " << an::summarize(synced) << "\n";
    std::cout << "[unsynced] " << an::summarize(unsynced) << "\n";

    // Timeline comparison: the synchronized profile shows the idle ->
    // warm-up -> SSE -> SSP ramp aligned with run time; the naive
    // alignment smears it by up to one averaging window per run.
    an::AsciiPlot timeline(72, 16);
    timeline.addSeries(an::toSeries(synced.timeline, fc::Rail::kTotal), 'o',
                       "synchronized (FinGraV S2)");
    timeline.addSeries(an::toSeries(unsynced.timeline, fc::Rail::kTotal),
                       'x', "unsynchronized (naive alignment)");
    std::cout << "\nTotal power vs time in run (us):\n" << timeline.render();

    // Quantify (a): scatter of the stitched SSP profile.
    const double synced_scatter = scatterAroundTrend(synced.ssp);
    const double unsynced_scatter = scatterAroundTrend(unsynced.ssp);
    std::cout << "\n(a) SSP LOI scatter around trend: synced "
              << synced_scatter << " W vs unsynced " << unsynced_scatter
              << " W  (paper: unsynced fails to align power with "
                 "executions)\n";

    // Quantify (b): SSE vs SSP error (paper: up to 36 % for CB-4K-GEMM).
    const auto rep = fc::differentiationError(synced);
    std::cout << "(b) SSE " << rep.sse_mean_w << " W vs SSP "
              << rep.ssp_mean_w << " W -> error " << rep.error_pct
              << " %  (paper: up to 36 %)\n";

    // --- (c): binning on vs off ------------------------------------------
    const double bin_scatter = scatterAroundTrend(synced.ssp);
    const double nobin_scatter = scatterAroundTrend(nobin.ssp);
    std::cout << "(c) SSP scatter: binning " << bin_scatter
              << " W vs no binning " << nobin_scatter
              << " W over " << nobin.binning.total_runs
              << " runs (outliers kept: "
              << (nobin.runs_executed - synced.binning.golden_runs.size())
              << ")  (paper: binning -> tighter profile)\n";

    // --- (d): 50-run resiliency -------------------------------------------
    const auto trend200 = synced.ssp.trend(fc::Rail::kTotal, 4);
    const auto trend50 = few.ssp.trend(fc::Rail::kTotal, 4);
    double max_dev_pct = 0.0;
    const double lo = 2.0;
    const double hi = synced.ssp_exec_time.toMicros() - 2.0;
    for (double x = lo; x <= hi; x += (hi - lo) / 32.0) {
        const double a = trend200.poly(x);
        const double b = trend50.poly(x);
        if (a > 0.0)
            max_dev_pct = std::max(max_dev_pct,
                                   std::fabs(a - b) / a * 100.0);
    }
    std::cout << "(d) degree-4 trend, 50 runs vs 200 runs: max deviation "
              << max_dev_pct << " %  (paper: 50 runs still capture the "
                 "overall trend)\n";

    // SSP profile plot with both trends, as in the figure.
    an::AsciiPlot ssp_plot(72, 14);
    ssp_plot.addSeries(an::toSeries(synced.ssp, fc::Rail::kTotal), 'o',
                       "SSP LOIs (200 runs, binned)");
    ssp_plot.addSeries(an::trendSeries(synced.ssp, fc::Rail::kTotal), '=',
                       "degree-4 trend, 200 runs");
    ssp_plot.addSeries(an::trendSeries(few.ssp, fc::Rail::kTotal), '-',
                       "degree-4 trend, 50 runs");
    std::cout << "\nSSP profile: total power vs TOI (us):\n"
              << ssp_plot.render();

    an::dumpProfileCsv(synced.ssp, "fig5_ssp_synced");
    an::dumpProfileCsv(unsynced.ssp, "fig5_ssp_unsynced");
    an::dumpProfileCsv(nobin.ssp, "fig5_ssp_nobinning");
    an::dumpProfileCsv(synced.timeline, "fig5_timeline_synced");
    an::dumpProfileCsv(unsynced.timeline, "fig5_timeline_unsynced");
    std::cout << "\nCSV dumps under fingrav_out/fig5_*.csv\n";
    return 0;
}
