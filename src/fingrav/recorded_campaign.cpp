#include "fingrav/recorded_campaign.hpp"

#include <algorithm>
#include <cmath>

#include "fingrav/differentiation.hpp"
#include "kernels/workloads.hpp"
#include "runtime/host_runtime.hpp"
#include "sim/simulation.hpp"
#include "support/logging.hpp"
#include "support/statistics.hpp"

namespace fingrav::core {

namespace {

using fingrav::support::Duration;

}  // namespace

RecordedCampaign
RecordedCampaign::record(const ScenarioSpec& spec,
                         const std::vector<Duration>& extra_windows,
                         const sim::MachineConfig& cfg)
{
    RecordedCampaign rc;
    rc.spec_ = spec;
    const auto& opts = rc.spec_.opts;
    if (opts.timing_reps == 0)
        support::fatal("RecordedCampaign: timing_reps must be >= 1");

    // The fresh node comes from the same CampaignNode contract the
    // runner uses, so record() replicates runOne's trajectory bitwise up
    // to the point the pipelines intentionally diverge (the normalized
    // calibration schedule below).
    CampaignNode node(spec, cfg);
    const auto& kernel = node.kernel();
    rc.label_ = kernel->label();
    runtime::HostRuntime& host = node.host();
    support::Rng rng = node.profilerRng();
    if (opts.device >= node.simulation().deviceCount())
        support::fatal("RecordedCampaign: device ", opts.device,
                       " out of range");
    rc.tick_ = host.timestampTick(opts.device);

    // ---- step 1: execution time + guidance (the Profiler's own helper,
    // same executor fork id, so the pipelines cannot drift) ---------------
    rc.measured_exec_time_ = measureKernelExecTime(host, rng, kernel, opts);
    const auto guidance_table = GuidanceTable::paperDefault();
    rc.guidance_ = guidance_table.lookup(rc.measured_exec_time_);

    // ---- steps 2/7 prep: every sync variant a sweep can request ---------
    // The recording normalizes the calibration schedule: both anchor
    // styles are read up front (the delay-blind one costs one extra
    // timestamp read), and the drift anchor is taken after the full pool.
    // Re-executing record() reproduces the same schedule, which is what
    // the bit-identity contract is stated against.
    rc.sync_ = TimeSync::calibrate(host, opts.device);
    rc.nodelay_sync_ = TimeSync::calibrateIgnoringDelay(host, opts.device);

    // ---- windows --------------------------------------------------------
    const auto primary = opts.logger_window.nanos() > 0
                             ? opts.logger_window
                             : cfg.logger_window;
    rc.windows_.push_back(primary);
    for (const auto& w : extra_windows) {
        if (w.nanos() <= 0)
            support::fatal("RecordedCampaign: non-positive extra window");
        for (const auto& seen : rc.windows_) {
            if (seen == w)
                support::fatal("RecordedCampaign: duplicate window ",
                               w.toMicros(), "us");
        }
        rc.windows_.push_back(w);
    }

    // ---- steps 3-4 per window: SSE/SSP indices --------------------------
    const ProfileDifferentiator differ(opts.sse_executions,
                                       opts.stability_eps);
    std::vector<std::size_t> formula(rc.windows_.size());
    std::size_t max_formula = 0;
    for (std::size_t w = 0; w < rc.windows_.size(); ++w) {
        formula[w] = differ.sspExecutionFormula(rc.measured_exec_time_,
                                                rc.windows_[w]);
        max_formula = std::max(max_formula, formula[w]);
    }

    RunExecutor exec(host, rng.fork(901));
    RunPlan plan;
    plan.main = kernel;
    plan.device = opts.device;
    plan.min_delay = opts.min_delay;
    plan.max_delay = opts.max_delay;
    plan.logger_window = rc.windows_.front();
    plan.extra_windows.assign(rc.windows_.begin() + 1, rc.windows_.end());
    plan.main_execs_per_block =
        std::clamp<std::size_t>(3 * max_formula, 20, max_formula + 128);
    const auto explore = exec.executeRun(plan, 0);

    // The stabilization scan runs per window over that window's series,
    // through the Profiler's own step-4 helpers (full-S2 translation).
    rc.ssp_exec_index_.resize(rc.windows_.size());
    std::size_t max_span = 0;
    for (std::size_t w = 0; w < rc.windows_.size(); ++w) {
        rc.ssp_exec_index_[w] = sspIndexFromExplore(
            differ, *rc.sync_, explore, explore.windowSamples(w), formula[w],
            opts, plan.main_execs_per_block);
        max_span = std::max(
            max_span,
            rc.ssp_exec_index_[w] +
                harvestExecutions(rc.measured_exec_time_, rc.windows_[w]));
    }
    // Every window's harvest region must fit in one run.
    rc.execs_per_run_ = max_span;
    plan.main_execs_per_block = rc.execs_per_run_;

    // ---- steps 5 + 8 budget: the pool at the maximum top-up budget ------
    rc.base_runs_ = opts.runs_override.value_or(rc.guidance_.runs);
    const std::size_t max_total =
        opts.collect_extra_runs
            ? static_cast<std::size_t>(
                  static_cast<double>(rc.base_runs_) *
                  (1.0 + opts.max_extra_run_factor))
            : rc.base_runs_;
    rc.runs_.reserve(max_total);
    for (std::size_t r = 0; r < max_total; ++r)
        rc.runs_.push_back(exec.executeRun(plan, r));

    // Drift anchor after the pool (the longer the span, the better the
    // ppm estimate) for the kFinGraVDrift sweep point.
    rc.drift_sync_ = rc.sync_;
    rc.drift_sync_->addDriftAnchor(host, opts.device);

    // No per-window copies of the runs: a restitch at window w reads
    // RunRecord::windowSamples(w) and the record of each run built here
    // per (window, sync mode) for the window's SSE/SSP split, so no sweep
    // point walks a run's executions again.
    static_assert(static_cast<std::size_t>(SyncMode::kCoarseAlign) + 1 ==
                      kSyncModes,
                  "one aligned table per SyncMode enumerator");
    rc.aligned_.resize(rc.windows_.size() * kSyncModes);
    for (std::size_t w = 0; w < rc.windows_.size(); ++w) {
        for (std::size_t m = 0; m < kSyncModes; ++m) {
            const auto mode = static_cast<SyncMode>(m);
            auto& table = rc.aligned_[w * kSyncModes + m];
            table.reserve(rc.runs_.size());
            for (const auto& run : rc.runs_)
                table.push_back(alignRun(run, w, mode, rc.syncFor(mode),
                                         rc.tick_, opts.sse_executions - 1,
                                         rc.ssp_exec_index_[w]));
        }
    }
    return rc;
}

const TimeSync&
RecordedCampaign::syncFor(SyncMode mode) const
{
    return mode == SyncMode::kNoDelayAccounting ? *nodelay_sync_
           : mode == SyncMode::kFinGraVDrift    ? *drift_sync_
                                                : *sync_;
}

ProfileSet
RecordedCampaign::restitch(const SweepPoint& point) const
{
    ProfilerOptions opts = spec_.opts;
    if (point.margin.has_value())
        opts.margin_override = point.margin;
    if (point.binning.has_value())
        opts.binning = *point.binning;
    if (point.sync_mode.has_value())
        opts.sync_mode = *point.sync_mode;
    if (point.target_bin.has_value())
        opts.target_bin = point.target_bin;

    const std::size_t w = point.window_index;
    if (w >= windows_.size())
        support::fatal("RecordedCampaign::restitch: window index ", w,
                       " out of range (", windows_.size(), " recorded)");

    const TimeSync& sync = syncFor(opts.sync_mode);

    ProfileSet out;
    out.label = label_;
    out.measured_exec_time = measured_exec_time_;
    out.guidance = guidance_;
    out.loi_target = guidance_.recommendedLois(measured_exec_time_);
    out.read_delay_us = sync.readDelay().toMicros();
    if (opts.sync_mode == SyncMode::kFinGraVDrift)
        out.drift_ppm = sync.estimatedDriftPpm();
    out.sse_exec_index = opts.sse_executions - 1;
    out.ssp_exec_index = ssp_exec_index_[w];
    out.execs_per_run = execs_per_run_;

    // Steps 6-9 plus the step-8 top-up decision loop, replayed from the
    // recorded pool through the incremental stitcher.
    ProfileStitcher stitcher(opts, alignedRuns(w, opts.sync_mode), w);
    std::size_t budget =
        std::min(point.runs.value_or(base_runs_), runs_.size());
    stitcher.restitch(runs_, budget, out);
    if (!point.runs.has_value() && opts.collect_extra_runs) {
        while (out.ssp.size() < out.loi_target && budget < runs_.size()) {
            ++budget;
            stitcher.restitch(runs_, budget, out);
        }
    }
    out.runs_executed = budget;
    return out;
}

AutotuneResult
RecordedCampaign::autotuneBudget(std::size_t loi_target,
                                 std::size_t window_index) const
{
    if (window_index >= windows_.size())
        support::fatal("RecordedCampaign::autotuneBudget: window index ",
                       window_index, " out of range (", windows_.size(),
                       " recorded)");
    const ProfilerOptions& opts = spec_.opts;

    AutotuneResult out;
    out.loi_target = loi_target > 0
                         ? loi_target
                         : guidance_.recommendedLois(measured_exec_time_);
    out.recommended_runs = base_runs_;
    out.pool_runs = runCount();
    out.window_index = window_index;

    // Replay prefixes through the incremental stitcher: each +1 run is
    // stitched on top of the previous prefix, so the whole scan costs
    // one pass over the pool, not one restitch per candidate budget.
    // Golden-run selection can shift as runs arrive, so the scan is a
    // genuine replay, not a monotonic counter.
    ProfileSet set;
    set.label = label_;
    set.guidance = guidance_;
    set.sse_exec_index = opts.sse_executions - 1;
    set.ssp_exec_index = ssp_exec_index_[window_index];

    ProfileStitcher stitcher(opts, alignedRuns(window_index, opts.sync_mode),
                             window_index);
    std::size_t budget = 0;
    std::size_t lois = 0;
    while (budget < runs_.size()) {
        ++budget;
        stitcher.restitch(runs_, budget, set);
        lois = set.ssp.size();
        if (lois >= out.loi_target)
            break;
    }
    out.runs_needed = budget;
    out.target_met = lois >= out.loi_target;
    out.achieved_yield =
        out.loi_target > 0
            ? static_cast<double>(lois) / static_cast<double>(out.loi_target)
            : 0.0;
    return out;
}

}  // namespace fingrav::core
