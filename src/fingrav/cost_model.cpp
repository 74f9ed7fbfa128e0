#include "fingrav/cost_model.hpp"

#include <algorithm>

#include "fingrav/guidance.hpp"
#include "fingrav/profiler.hpp"
#include "kernels/workloads.hpp"
#include "support/logging.hpp"

namespace fingrav::core {

namespace {

// Floors keeping every feature positive: an unknown kernel label, a
// zero-duration kernel or an empty background list must still produce a
// finite, sortable prediction (and no expression below may divide).
constexpr double kMinExecUs = 0.1;
constexpr double kMinPrediction = 1e-3;

}  // namespace

CostFeatures
CostModel::features(const ScenarioSpec& spec,
                    const sim::MachineConfig& cfg) const
{
    double exec_us = kMinExecUs;
    bool collective = false;
    try {
        const auto kernel = kernels::kernelByLabel(spec.label, cfg);
        exec_us = kernel->nominalDuration().toMicros();
        collective = kernel->isCollective();
    } catch (const support::FatalError&) {
        // Unknown label: predict off the floors rather than refuse to
        // schedule; the campaign itself reports the label when it runs.
    }
    double runs;
    if (spec.opts.runs_override.has_value()) {
        runs = static_cast<double>(*spec.opts.runs_override);
    } else {
        runs = static_cast<double>(
            GuidanceTable::paperDefault()
                .lookup(support::Duration::micros(
                    std::max(exec_us, kMinExecUs)))
                .runs);
    }
    // Step-8 top-up headroom: campaigns that collect extra runs execute
    // more than the base budget when the LOI target is short; half the
    // cap is the expected overshoot.
    if (spec.opts.collect_extra_runs)
        runs *= 1.0 + 0.5 * std::max(spec.opts.max_extra_run_factor, 0.0);

    CostFeatures f;
    f.exec_us = std::max(exec_us, kMinExecUs);
    f.runs = std::max(runs, 1.0);

    // Executions per run: the SSE warm-up block plus the harvest region
    // the profiler keeps running so steady-state LOIs land per run.
    const support::Duration window =
        spec.opts.logger_window.nanos() > 0 ? spec.opts.logger_window
                                            : cfg.logger_window;
    const std::size_t harvest =
        harvestExecutions(support::Duration::micros(f.exec_us), window);
    f.execs_per_run = std::max<double>(
        1.0, static_cast<double>(spec.opts.sse_executions + harvest));

    // Devices the node steps each advance: explicit when the spec says
    // so, otherwise the auto rule CampaignNode applies — the full node
    // for collectives or any scenario with background loads, one GPU
    // for an isolated compute kernel.
    if (spec.devices > 0) {
        f.devices = static_cast<double>(spec.devices);
    } else if (collective || !spec.background.empty()) {
        f.devices = static_cast<double>(std::max<std::size_t>(
            1, cfg.node_gpus));
    } else {
        f.devices = 1.0;
    }

    // Environment activity: each load adds its duty-cycle-weighted
    // pressure (a kernel load is one busy co-tenant; a demand load
    // scales with the injected bandwidth fraction).  One-shot loads
    // (period <= 0) are always-on for scheduling purposes.
    f.background = 1.0;
    for (const auto& load : spec.background) {
        const double duty =
            load.period.nanos() <= 0
                ? 1.0
                : std::clamp(load.duty_cycle, 0.0, 1.0);
        const double weight = load.kind == BackgroundKind::kKernel
                                  ? 1.0
                                  : std::max(load.demand, 0.0);
        f.background += duty * weight;
    }
    return f;
}

double
CostModel::predict(const ScenarioSpec& spec,
                   const sim::MachineConfig& cfg) const
{
    return std::max(features(spec, cfg).work(), kMinPrediction);
}

}  // namespace fingrav::core
