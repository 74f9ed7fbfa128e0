/**
 * @file
 * Ablation study: each FinGraV tenet toggled or swept independently.
 *
 * Not a paper figure — this quantifies the design choices DESIGN.md calls
 * out, on CB-2K-GEMM (the kernel most sensitive to all four challenges):
 *
 *  1. #runs sweep     : LOI count and trend stability vs run budget;
 *  2. margin sweep    : golden fraction and profile scatter vs margin;
 *  3. sync-mode sweep : profile quality per timestamp-mapping strategy
 *                       (FinGraV, FinGraV+drift, Lang-style, naive);
 *  4. window sweep    : SSE/SSP error vs logger averaging window — the
 *                       Section VI "external loggers" discussion: coarser
 *                       windows (amd-smi style) inflate the error and
 *                       starve the profile of LOIs.
 *
 * Every sweep restitches one RecordedCampaign instead of re-executing the
 * simulation per point (sweeps 1-3 share a single 400-run recording;
 * sweep 4 uses a multi-window recording that captures 1/10/50 ms loggers
 * around the *same* executions).  Beyond the speedup, this is the
 * methodologically cleaner design: every sweep point sees the identical
 * workload draws, so the swept parameter is the only variable.
 */

#include <cmath>
#include <iostream>
#include <vector>

#include "analysis/report.hpp"
#include "fingrav/energy.hpp"
#include "fingrav/profiler.hpp"
#include "fingrav/recorded_campaign.hpp"
#include "support/statistics.hpp"
#include "support/table.hpp"
#include "support/time_types.hpp"

namespace an = fingrav::analysis;
namespace fc = fingrav::core;
namespace fs = fingrav::support;
using namespace fingrav::support::literals;

namespace {

double
scatterAroundTrend(const fc::PowerProfile& profile)
{
    if (profile.size() < 8)
        return 0.0;
    const auto fit = profile.trend(fc::Rail::kTotal, 4);
    std::vector<double> residuals;
    for (const auto& p : profile.points())
        residuals.push_back(p.sample.total_w - fit.poly(p.toi_us));
    return fs::stddev(residuals);
}

}  // namespace

int
main()
{
    an::printHeader("Ablation - FinGraV tenets toggled independently",
                    "CB-2K-GEMM; one recorded campaign per study, "
                    "restitched per sweep point (identical workload draws "
                    "across points)");

    const auto cfg = fingrav::sim::mi300xConfig();

    // One 400-run recording backs the run-budget, margin and sync-mode
    // sweeps: the largest budget any point needs, replayed as prefixes.
    fc::ScenarioSpec spec;
    spec.label = "CB-2K-GEMM";
    spec.seed = 13001;
    spec.opts.runs_override = 400;
    spec.opts.collect_extra_runs = false;
    const auto recorded = fc::RecordedCampaign::record(spec);

    // --- 1: #runs sweep ---------------------------------------------------
    fs::TableWriter runs_table({"runs", "SSP LOIs", "SSP mean (W)",
                                "scatter (W)"});
    for (std::size_t runs : {25u, 50u, 100u, 200u, 400u}) {
        fc::SweepPoint point;
        point.runs = runs;
        const auto set = recorded.restitch(point);
        runs_table.addRow({std::to_string(runs),
                           std::to_string(set.ssp.size()),
                           fs::TableWriter::num(set.ssp.meanPower(), 1),
                           fs::TableWriter::num(scatterAroundTrend(set.ssp), 2)});
    }
    std::cout << "\n1) run-budget sweep (prefixes of one recording):\n";
    runs_table.print(std::cout);

    // --- 2: margin sweep ----------------------------------------------------
    fs::TableWriter margin_table({"margin (%)", "golden (%)", "SSP mean (W)",
                                  "scatter (W)"});
    for (double margin : {0.01, 0.02, 0.05, 0.10, 0.20}) {
        fc::SweepPoint point;
        point.runs = 200;
        point.margin = margin;
        const auto set = recorded.restitch(point);
        margin_table.addRow(
            {fs::TableWriter::num(margin * 100, 0),
             fs::TableWriter::num(set.binning.goldenFraction() * 100, 1),
             fs::TableWriter::num(set.ssp.meanPower(), 1),
             fs::TableWriter::num(scatterAroundTrend(set.ssp), 2)});
    }
    std::cout << "\n2) binning-margin sweep (wide margins admit allocation "
                 "outliers; scatter grows):\n";
    margin_table.print(std::cout);

    // --- 3: sync modes -------------------------------------------------------
    fs::TableWriter sync_table({"sync mode", "SSP mean (W)", "scatter (W)",
                                "read delay (us)", "drift est (ppm)"});
    for (const auto mode :
         {fc::SyncMode::kFinGraV, fc::SyncMode::kFinGraVDrift,
          fc::SyncMode::kNoDelayAccounting, fc::SyncMode::kCoarseAlign}) {
        fc::SweepPoint point;
        point.runs = 200;
        point.sync_mode = mode;
        const auto set = recorded.restitch(point);
        sync_table.addRow({toString(mode),
                           fs::TableWriter::num(set.ssp.meanPower(), 1),
                           fs::TableWriter::num(scatterAroundTrend(set.ssp), 2),
                           fs::TableWriter::num(set.read_delay_us, 2),
                           fs::TableWriter::num(set.drift_ppm, 2)});
    }
    std::cout << "\n3) timestamp-mapping sweep (configured GPU drift: "
              << cfg.gpu_clock_drift_ppm << " ppm):\n";
    sync_table.print(std::cout);

    // --- 4: logger window sweep ----------------------------------------------
    // Multi-window recording: the 1 ms on-GPU logger and 10/50 ms
    // external (amd-smi style) loggers observe the *same* 120 runs; each
    // sweep point restitches its window's samples.
    fc::ScenarioSpec window_spec;
    window_spec.label = "CB-2K-GEMM";
    window_spec.seed = 13002;
    window_spec.opts.runs_override = 120;
    window_spec.opts.collect_extra_runs = false;
    const auto window_recorded =
        fc::RecordedCampaign::record(window_spec, {10_ms, 50_ms});

    fs::TableWriter window_table({"window", "SSP LOIs", "SSE (W)", "SSP (W)",
                                  "error (%)"});
    for (std::size_t w = 0; w < window_recorded.windows().size(); ++w) {
        fc::SweepPoint point;
        point.window_index = w;
        const auto set = window_recorded.restitch(point);
        const auto rep = fc::differentiationError(set);
        window_table.addRow(
            {std::to_string(static_cast<long>(
                 window_recorded.windows()[w].toMillis())) + "ms",
             std::to_string(set.ssp.size()),
             fs::TableWriter::num(rep.sse_mean_w, 1),
             fs::TableWriter::num(rep.ssp_mean_w, 1),
             fs::TableWriter::num(rep.error_pct, 1)});
    }
    std::cout << "\n4) logger-window sweep (Section VI: external amd-smi "
                 "style loggers average longer; profiles degrade):\n";
    window_table.print(std::cout);
    return 0;
}
