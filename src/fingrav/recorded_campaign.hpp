#ifndef FINGRAV_FINGRAV_RECORDED_CAMPAIGN_HPP_
#define FINGRAV_FINGRAV_RECORDED_CAMPAIGN_HPP_

/**
 * @file
 * Cross-campaign run reuse for sweep studies.
 *
 * Window/margin/sync-mode sweeps (bench_ablation, the Section VI external
 * logger discussion) used to re-execute the *same* simulated runs once
 * per sweep point — the simulation dominated the cost while only the
 * stitch-time parameters varied.  RecordedCampaign executes the campaign
 * once and captures everything a restitch needs:
 *
 *  - every executed run up to the maximum top-up budget (replaying a
 *    smaller budget is exact: run execution never depends on how many
 *    runs follow, so a shorter campaign is a prefix of a longer one);
 *  - the calibrated TimeSync in all three variants a sweep can request
 *    (full S2, delay-blind Lang-style, and drift-compensated);
 *  - a *multi-window* power log per run: the primary logger plus any
 *    number of extra windows capture the same execution simultaneously
 *    (RunPlan::extra_windows), so a logger-window sweep re-reads the
 *    recorded samples of each window instead of re-simulating — one
 *    execution observed at several averaging granularities, the setup a
 *    real node runs when amd-smi polls next to the on-GPU logger.  One
 *    pool holds every window (RunRecord::samples, then extra_samples);
 *    a restitch hands the window index to the stitcher;
 *  - per-window SSE/SSP execution indices, derived at record time with
 *    the same formula + stabilization scan the Profiler applies;
 *  - every run walked once per (window, sync mode) through alignRun, for
 *    the window's SSE/SSP split: its representative time, its SSE and
 *    SSP rows, and per-sample run times and contention flags.  No
 *    margin, binning, budget or target-bin point changes any of these.
 *
 * restitch(SweepPoint) then replays steps 6-9 (golden selection, LOI/TOI
 * alignment, stitching, and the step-8 top-up decision loop) from the
 * recorded pool through the incremental ProfileStitcher, which bins the
 * immutable table's representative times and concatenates each golden
 * run's rows and timeline (restitch is const and needs no lock; it reads
 * no execution record).
 * Because the recording pipeline is deterministic, a restitch is
 * bit-identical to re-executing the recorded plan from scratch and
 * stitching at that sweep point (campaign_runner_test's
 * SweepReuseBitIdenticalToReExecution and golden_digest_test's
 * MultiWindowRestitch).
 */

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fingrav/campaign_runner.hpp"
#include "fingrav/profiler.hpp"
#include "fingrav/run_executor.hpp"
#include "fingrav/stitcher.hpp"
#include "fingrav/time_sync.hpp"
#include "sim/machine_config.hpp"
#include "support/time_types.hpp"

namespace fingrav::core {

/** One stitch-time parameter point of a sweep study. */
struct SweepPoint {
    /**
     * Run-budget prefix: stitch exactly min(runs, recorded) runs and skip
     * the top-up loop (the #runs sweep).  Unset = the recorded base
     * budget plus the step-8 top-up decision replayed from the pool.
     */
    std::optional<std::size_t> runs;
    /** Binning-margin override (the margin sweep). */
    std::optional<double> margin;
    /** Binning on/off override. */
    std::optional<bool> binning;
    /** Timestamp-mapping mode (the sync-mode sweep). */
    std::optional<SyncMode> sync_mode;
    /** Section VI outlier profiling: target execution-time bin. */
    std::optional<support::Duration> target_bin;
    /** Which recorded window to stitch (0 = primary). */
    std::size_t window_index = 0;
};

/**
 * Outcome of guidance-table autotuning (ROADMAP): the run budget a
 * campaign *actually* needed to meet its LOI target, derived by
 * replaying run-pool prefixes, vs Table I's static recommendation.
 */
struct AutotuneResult {
    /** The LOI target replayed against (the guidance target unless the
     *  caller overrode it). */
    std::size_t loi_target = 0;
    /** Smallest run-pool prefix whose stitched SSP met the target; the
     *  full pool size when the target was never met. */
    std::size_t runs_needed = 0;
    /** True when some prefix met the target within the recorded pool. */
    bool target_met = false;
    /** Table I's static #runs recommendation (the recorded base budget,
     *  including any runs_override). */
    std::size_t recommended_runs = 0;
    /** Runs available in the recorded pool (the max top-up budget). */
    std::size_t pool_runs = 0;
    /** SSP-LOI yield at runs_needed (>= 1.0 when the target was met). */
    double achieved_yield = 0.0;
    /** The recorded window the replay stitched (0 = primary). */
    std::size_t window_index = 0;

    /** Runs saved (+) or missing (-) vs the static recommendation. */
    std::int64_t
    budgetDelta() const
    {
        return static_cast<std::int64_t>(recommended_runs) -
               static_cast<std::int64_t>(runs_needed);
    }
};

/** One executed campaign captured for stitch-time replay. */
class RecordedCampaign {
  public:
    /**
     * Execute `spec` once on a fresh node, capturing the run pool at the
     * maximum top-up budget with loggers at the primary window plus
     * `extra_windows` (all distinct).  The scenario's background loads
     * run while the pool is recorded, so contended-phase campaigns sweep
     * like isolated ones; each captured run carries its contention
     * intervals and restitches annotate LOIs from them.
     */
    static RecordedCampaign record(
        const ScenarioSpec& spec,
        const std::vector<support::Duration>& extra_windows = {},
        const sim::MachineConfig& cfg = sim::mi300xConfig());

    /** Replay steps 6-9 at one sweep point; defaults reproduce the
     *  recorded campaign's own parameters. */
    ProfileSet restitch(const SweepPoint& point = {}) const;

    /**
     * Guidance-table autotuning (ROADMAP): replay run-pool prefixes
     * through the incremental stitcher, growing the budget one run at a
     * time until the stitched SSP meets `loi_target`, and report the
     * budget actually needed next to Table I's static recommendation.
     * The replay is stitch-time only — no re-simulation — so tuning is
     * as cheap as one restitch pass over the pool.
     *
     * @param loi_target    Target SSP-LOI count; 0 = the guidance
     *                      table's own recommendation for this kernel.
     * @param window_index  Recorded window to stitch (0 = primary).
     */
    AutotuneResult autotuneBudget(std::size_t loi_target = 0,
                                  std::size_t window_index = 0) const;

    /** Recorded windows; [0] is the primary. */
    const std::vector<support::Duration>& windows() const
    {
        return windows_;
    }

    /** Executed runs in the pool (the maximum top-up budget). */
    std::size_t runCount() const { return runs_.size(); }

    /** Base (pre-top-up) run budget of the recorded options. */
    std::size_t baseRuns() const { return base_runs_; }

    /** Step-1 measured execution time. */
    support::Duration measuredExecTime() const
    {
        return measured_exec_time_;
    }

    /** The spec as recorded. */
    const ScenarioSpec& spec() const { return spec_; }

  private:
    RecordedCampaign() = default;

    /** Sync modes a sweep point can select (SyncMode's enumerators). */
    static constexpr std::size_t kSyncModes = 4;

    /** The calibration `mode` translates through. */
    const TimeSync& syncFor(SyncMode mode) const;

    /** The pool aligned at window `w` under `mode`, one entry per run. */
    const std::vector<AlignedRun>& alignedRuns(std::size_t w,
                                               SyncMode mode) const
    {
        return aligned_[w * kSyncModes + static_cast<std::size_t>(mode)];
    }

    ScenarioSpec spec_;
    std::string label_;  ///< the kernel's own label, as Profiler reports it
    support::Duration measured_exec_time_;
    GuidanceEntry guidance_;
    support::Duration tick_;
    std::size_t base_runs_ = 0;
    std::size_t execs_per_run_ = 0;
    std::vector<support::Duration> windows_;
    std::vector<std::size_t> ssp_exec_index_;  ///< per window
    /** The run pool; every window's log rides each run. */
    std::vector<RunRecord> runs_;
    std::optional<TimeSync> sync_;          ///< full S2 calibration
    std::optional<TimeSync> nodelay_sync_;  ///< Lang-style, delay-blind
    std::optional<TimeSync> drift_sync_;    ///< + post-campaign drift anchor
    /** alignRun of every run, per (window, sync mode): alignedRuns(). */
    std::vector<std::vector<AlignedRun>> aligned_;
};

}  // namespace fingrav::core

#endif  // FINGRAV_FINGRAV_RECORDED_CAMPAIGN_HPP_
