#include "fingrav/profiler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "fingrav/stitcher.hpp"
#include "support/logging.hpp"
#include "support/statistics.hpp"

namespace fingrav::core {

namespace {

/** SSE index marker meaning "no SSE profile for this campaign". */
constexpr std::size_t kNoSse = std::numeric_limits<std::size_t>::max();

}  // namespace

const char*
toString(SyncMode mode)
{
    switch (mode) {
      case SyncMode::kFinGraV:
        return "fingrav";
      case SyncMode::kFinGraVDrift:
        return "fingrav+drift";
      case SyncMode::kNoDelayAccounting:
        return "no-delay-accounting";
      case SyncMode::kCoarseAlign:
        return "coarse-align";
    }
    return "?";
}

Profiler::Profiler(runtime::HostRuntime& host, ProfilerOptions opts,
                   support::Rng rng)
    : host_(host), opts_(opts), rng_(std::move(rng)),
      guidance_(GuidanceTable::paperDefault()),
      differ_(opts.sse_executions, opts.stability_eps)
{
    if (opts_.timing_reps == 0)
        support::fatal("Profiler: timing_reps must be >= 1");
    if (opts_.device >= host.simulation().deviceCount())
        support::fatal("Profiler: device ", opts_.device, " out of range");
}

support::Duration
measureKernelExecTime(runtime::HostRuntime& host, support::Rng& rng,
                      const kernels::KernelModelPtr& kernel,
                      const ProfilerOptions& opts)
{
    // Paper step 1: time the kernel a few times.  Warm-ups are excluded by
    // timing sse_executions + timing_reps executions and taking the median
    // of the trailing timing_reps.
    RunExecutor exec(host, rng.fork(900));
    RunPlan plan;
    plan.main = kernel;
    plan.device = opts.device;
    plan.main_execs_per_block = opts.sse_executions + opts.timing_reps;
    plan.min_delay = opts.min_delay;
    plan.max_delay = opts.min_delay;  // no need for phase randomness here
    const auto rec = exec.executeRun(plan, 0, /*with_power=*/false);

    std::vector<double> tail_us;
    for (std::size_t i = opts.sse_executions;
         i < rec.main_exec_indices.size(); ++i) {
        tail_us.push_back(rec.mainExecDuration(i).toMicros());
    }
    return support::Duration::micros(support::medianInPlace(tail_us));
}

std::size_t
sspIndexFromExplore(const ProfileDifferentiator& differ, const TimeSync& sync,
                    const RunRecord& explore,
                    const sim::SampleColumns& samples,
                    std::size_t formula, const ProfilerOptions& opts,
                    std::size_t explore_execs)
{
    // The stabilization series *is* the total-power column — no copy.
    const std::size_t stable_sample =
        differ.detectStabilization(samples.total_w);

    std::size_t detected = explore_execs;
    if (stable_sample < samples.size()) {
        // The first stable sample's window ends at its timestamp; the SSP
        // region starts with the first execution launched entirely after
        // that window, so no SSP LOI straddles the settling transient.
        const auto stable_cpu =
            sync.gpuCounterToCpuNs(samples.gpu_timestamp[stable_sample]);
        for (std::size_t j = 0; j < explore.main_exec_indices.size(); ++j) {
            if (explore.execs[explore.main_exec_indices[j]]
                    .timing.cpu_start_ns >= stable_cpu) {
                detected = j;
                break;
            }
        }
    }
    return std::clamp<std::size_t>(std::max(formula, detected),
                                   opts.sse_executions, explore_execs - 1);
}

std::size_t
harvestExecutions(support::Duration exec_time, support::Duration window)
{
    return std::clamp<std::size_t>(
        static_cast<std::size_t>(
            std::ceil(1.5 * window.toMicros() / exec_time.toMicros())),
        2, 64);
}

TimeSync
Profiler::measureAndSync(const kernels::KernelModelPtr& kernel,
                         ProfileSet& out)
{
    out.label = kernel->label();

    // ---- step 1: execution time + guidance lookup -----------------------
    out.measured_exec_time =
        measureKernelExecTime(host_, rng_, kernel, opts_);
    out.guidance = guidance_.lookup(out.measured_exec_time);
    out.loi_target = out.guidance.recommendedLois(out.measured_exec_time);

    // ---- step 2/7 prep: CPU-GPU time sync -------------------------------
    TimeSync sync = TimeSync::calibrate(host_, opts_.device);
    if (opts_.sync_mode == SyncMode::kNoDelayAccounting) {
        // Lang et al. style: synchronize but ignore the read delay.  The
        // anchor is re-derived by shifting out the delay correction.
        sync = TimeSync::calibrateIgnoringDelay(host_, opts_.device);
    }
    out.read_delay_us = sync.readDelay().toMicros();
    return sync;
}

void
Profiler::runAndStitch(RunExecutor& exec, const RunPlan& plan,
                       TimeSync& sync, ProfileSet& out)
{
    // ---- step 5: the runs ------------------------------------------------
    const std::size_t base_runs =
        opts_.runs_override.value_or(out.guidance.runs);
    std::vector<RunRecord> runs;
    runs.reserve(base_runs);
    for (std::size_t r = 0; r < base_runs; ++r)
        runs.push_back(exec.executeRun(plan, r));
    out.runs_executed = runs.size();

    if (opts_.sync_mode == SyncMode::kFinGraVDrift) {
        // Future-work extension: a second anchor after the campaign
        // estimates and compensates GPU clock drift.
        sync.addDriftAnchor(host_, opts_.device);
        out.drift_ppm = sync.estimatedDriftPpm();
    }

    // ---- steps 6, 7, 9 ----------------------------------------------------
    ProfileStitcher stitcher(opts_, sync, host_.timestampTick(opts_.device));
    stitcher.restitch(runs, out);

    // ---- step 8: top up runs until the LOI target ------------------------
    // Appended runs are stitched incrementally; the stitcher rebuilds only
    // when a new run shifts the modal execution-time bin.
    if (opts_.collect_extra_runs) {
        const auto max_total = static_cast<std::size_t>(
            static_cast<double>(base_runs) *
            (1.0 + opts_.max_extra_run_factor));
        while (out.ssp.size() < out.loi_target && runs.size() < max_total) {
            runs.push_back(exec.executeRun(plan, runs.size()));
            out.runs_executed = runs.size();
            stitcher.restitch(runs, out);
        }
    }
}

ProfileSet
Profiler::profile(const kernels::KernelModelPtr& kernel)
{
    if (!kernel)
        support::fatal("Profiler::profile: null kernel");

    ProfileSet out;
    TimeSync sync = measureAndSync(kernel, out);

    // ---- steps 3-4: SSE/SSP execution indices ---------------------------
    const auto window =
        opts_.logger_window.nanos() > 0
            ? opts_.logger_window
            : host_.simulation().config().logger_window;
    const std::size_t formula =
        differ_.sspExecutionFormula(out.measured_exec_time, window);
    out.sse_exec_index = opts_.sse_executions - 1;

    RunExecutor exec(host_, rng_.fork(901));
    RunPlan plan;
    plan.main = kernel;
    plan.device = opts_.device;
    plan.min_delay = opts_.min_delay;
    plan.max_delay = opts_.max_delay;
    plan.logger_window = opts_.logger_window;
    plan.main_execs_per_block =
        std::clamp<std::size_t>(3 * formula, 20, formula + 128);
    const auto explore = exec.executeRun(plan, 0);
    out.ssp_exec_index =
        sspIndexFromExplore(differ_, sync, explore, explore.samples,
                            formula, opts_, plan.main_execs_per_block);

    out.execs_per_run =
        out.ssp_exec_index + harvestExecutions(out.measured_exec_time,
                                               window);
    plan.main_execs_per_block = out.execs_per_run;

    runAndStitch(exec, plan, sync, out);
    return out;
}

ProfileSet
Profiler::profileInterleaved(const kernels::KernelModelPtr& main,
                             const std::vector<InterleaveItem>& prelude,
                             std::size_t blocks_per_run)
{
    if (!main)
        support::fatal("Profiler::profileInterleaved: null kernel");
    if (prelude.empty())
        support::fatal("Profiler::profileInterleaved: empty prelude; use "
                       "profile() for isolated executions");
    if (blocks_per_run < 2)
        support::fatal("Profiler::profileInterleaved: need >= 2 blocks "
                       "(block 0 is warm-up)");

    ProfileSet out;
    TimeSync sync = measureAndSync(main, out);

    // Main-kernel instances: one per block; block 0 warms up.
    out.sse_exec_index = kNoSse;
    out.ssp_exec_index = 1;
    out.execs_per_run = blocks_per_run;

    RunExecutor exec(host_, rng_.fork(902));
    RunPlan plan;
    plan.main = main;
    plan.prelude = prelude;
    plan.blocks = blocks_per_run;
    plan.main_execs_per_block = 1;
    plan.device = opts_.device;
    plan.min_delay = opts_.min_delay;
    plan.max_delay = opts_.max_delay;
    plan.logger_window = opts_.logger_window;

    runAndStitch(exec, plan, sync, out);
    return out;
}

}  // namespace fingrav::core
