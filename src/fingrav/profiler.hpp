#ifndef FINGRAV_FINGRAV_PROFILER_HPP_
#define FINGRAV_FINGRAV_PROFILER_HPP_

/**
 * @file
 * The FinGraV profiler: the paper's nine-step methodology (Section IV-B).
 *
 *  1. Time the kernel to find its execution time; look up the guidance
 *     table (#runs, #LOIs, binning margin).
 *  2. Instrument: CPU-side kernel timing, GPU timestamp read, power-log
 *     start/stop around each run.            (RunExecutor)
 *  3. SSE needs four executions per run (three warm-ups + the SSE).
 *  4. SSP execution count: max(ceil(window/exec), SSE), refined by a
 *     stabilization scan when throttling distorts the warm-up
 *     (ProfileDifferentiator).
 *  5. Execute the runs with random inter-run delays.
 *  6. Keep only golden runs (modal execution-time bin within the margin).
 *                                             (ExecutionBinner)
 *  7. Synchronize CPU-GPU time; identify LOIs and their TOIs.  (TimeSync)
 *  8. If fewer LOIs than the guidance target, run more runs.
 *  9. Stitch all LOIs/TOIs into the SSE, SSP and timeline profiles.
 *
 * The baselines the paper compares against are ProfilerOptions settings
 * on this one pipeline, each removing one tenet:
 *  - unsynchronized (Fig. 5, tenet S2 off): sync_mode = kCoarseAlign;
 *  - no binning (Fig. 5, tenet S3 off): binning = false;
 *  - Lang et al. (Section VII): sync_mode = kNoDelayAccounting and
 *    binning = false;
 *  - an amd-smi-style external logger (Section VI, challenge C1):
 *    logger_window = 50 ms.
 */

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fingrav/binning.hpp"
#include "fingrav/differentiation.hpp"
#include "fingrav/guidance.hpp"
#include "fingrav/profile.hpp"
#include "fingrav/run_executor.hpp"
#include "fingrav/time_sync.hpp"
#include "kernels/kernel_model.hpp"
#include "runtime/host_runtime.hpp"
#include "support/rng.hpp"
#include "support/time_types.hpp"

namespace fingrav::core {

/** How power-log timestamps are mapped into CPU time. */
enum class SyncMode {
    /** Full FinGraV S2: benchmarked read delay, single anchor. */
    kFinGraV,
    /** FinGraV + the future-work drift compensation (second anchor). */
    kFinGraVDrift,
    /** Lang et al. style: anchor read without read-delay accounting. */
    kNoDelayAccounting,
    /** Naive: align the run's first sample to the run's start (no sync). */
    kCoarseAlign,
};

/** Printable sync-mode name. */
const char* toString(SyncMode mode);

/** Profiler configuration; defaults follow the paper. */
struct ProfilerOptions {
    std::size_t device = 0;
    /** Override the guidance #runs (e.g. the 50-run resiliency study). */
    std::optional<std::size_t> runs_override;
    /** Override the guidance binning margin. */
    std::optional<double> margin_override;
    /** Executions per run for SSE: three warm-ups + one (paper step 3). */
    std::size_t sse_executions = 4;
    /** Step-1 timing repetitions. */
    std::size_t timing_reps = 5;
    /** Random inter-run delay range (step 5). */
    support::Duration min_delay = support::Duration::micros(200.0);
    support::Duration max_delay = support::Duration::millis(2.0);
    /** Timestamp mapping mode (kFinGraV = the methodology). */
    SyncMode sync_mode = SyncMode::kFinGraV;
    /** Execution-time binning on/off (off = Fig. 5's no-binning scatter). */
    bool binning = true;
    /** Step 8: top up runs until the LOI target is met (bounded). */
    bool collect_extra_runs = true;
    /** Cap on extra runs as a multiple of the base count. */
    double max_extra_run_factor = 1.0;
    /** Stability band for SSP detection. */
    double stability_eps = 0.03;
    /** Logger averaging window; <= 0 selects the machine default (1 ms).
     *  Longer windows model external amd-smi-style loggers (Section VI). */
    support::Duration logger_window;
    /**
     * Section VI outlier profiling: when set, step 6 keeps runs around
     * this target execution time instead of the modal bin.
     */
    std::optional<support::Duration> target_bin;
};

/** Everything one profiling campaign produced. */
struct ProfileSet {
    std::string label;                     ///< kernel label
    support::Duration measured_exec_time;  ///< step-1 median (CPU-timed)
    GuidanceEntry guidance;                ///< the Table I row applied
    std::size_t runs_executed = 0;
    BinningResult binning;                 ///< golden-run selection
    std::size_t sse_exec_index = 0;        ///< among main execs, 0-based
    std::size_t ssp_exec_index = 0;
    std::size_t execs_per_run = 0;
    support::Duration ssp_exec_time;       ///< mean golden SSP duration
    /** The guidance table's LOI collection target for this campaign (the
     *  step-8 top-up goal); 0 when no guidance was applied. */
    std::size_t loi_target = 0;
    double read_delay_us = 0.0;            ///< benchmarked S2 delay
    double drift_ppm = 0.0;                ///< estimated (drift mode only)

    PowerProfile sse;       ///< steady-state-execution profile
    PowerProfile ssp;       ///< steady-state-power profile
    PowerProfile timeline;  ///< full-run view (Fig. 6 / Fig. 8 style)

    /**
     * Achieved SSP-LOI yield against the guidance target (1.0 = target
     * met) — the observable guidance-table autotuning derives #runs
     * from instead of the static Table I
     * (RecordedCampaign::autotuneBudget).
     */
    double
    loiYield() const
    {
        return loi_target > 0 ? static_cast<double>(ssp.size()) /
                                    static_cast<double>(loi_target)
                              : 0.0;
    }
};

/**
 * Bitwise ProfileSet equality — the gate every backend, cache and replay
 * check is held to.  Walks the codec's field list (fingrav/codec.cpp),
 * so it is true exactly when the two sets encode to the same bytes:
 * doubles compare as bit patterns (-0.0 differs from +0.0; equal NaN
 * bits are equal).
 */
bool identicalProfileSets(const ProfileSet& a, const ProfileSet& b);

/**
 * Step 1 of the methodology: measure warm execution time (median of
 * opts.timing_reps, after opts.sse_executions warm-ups) through a run
 * executor forked on stream 900.  Shared by Profiler and
 * RecordedCampaign so the recorded pipeline cannot drift from the live
 * one.
 */
support::Duration measureKernelExecTime(runtime::HostRuntime& host,
                                        support::Rng& rng,
                                        const kernels::KernelModelPtr& kernel,
                                        const ProfilerOptions& opts);

/**
 * Step-4 helper: the SSP execution index derived from an exploratory
 * run — the step-4 formula refined by the stabilization scan over the
 * run's sample `series`, mapped back to the first execution launched
 * entirely after the first stable window, clamped to
 * [opts.sse_executions, explore_execs - 1].
 */
std::size_t sspIndexFromExplore(const ProfileDifferentiator& differ,
                                const TimeSync& sync,
                                const RunRecord& explore,
                                const sim::SampleColumns& samples,
                                std::size_t formula,
                                const ProfilerOptions& opts,
                                std::size_t explore_execs);

/**
 * Harvest region: executions to keep running past the SSP index so
 * ~1.5 logger windows of steady-state LOIs land per run (clamped to
 * [2, 64]).  Shared by Profiler and RecordedCampaign.
 */
std::size_t harvestExecutions(support::Duration exec_time,
                              support::Duration window);

/** The FinGraV profiler. */
class Profiler {
  public:
    /**
     * @param host  Runtime over the simulated (or one day, real) node.
     * @param opts  Methodology knobs; defaults reproduce the paper.
     * @param rng   Profiling-side randomness (delays, jitter).
     */
    Profiler(runtime::HostRuntime& host, ProfilerOptions opts,
             support::Rng rng);

    /** Profile a kernel in isolation (the paper's default setup). */
    ProfileSet profile(const kernels::KernelModelPtr& kernel);

    /**
     * Profile a kernel with interleaved preludes (Section V-C3): each run
     * repeats [prelude..., main x1] `blocks_per_run` times; the profile is
     * stitched from the main kernel's executions (block 0 is warm-up).
     */
    ProfileSet profileInterleaved(const kernels::KernelModelPtr& main,
                                  const std::vector<InterleaveItem>& prelude,
                                  std::size_t blocks_per_run = 8);

    /** The guidance table in force. */
    const GuidanceTable& guidance() const { return guidance_; }

  private:
    /**
     * The head both entry points share: label, step 1 (execution time,
     * guidance row, LOI target) and the CPU-GPU time sync of steps 2/7.
     */
    TimeSync measureAndSync(const kernels::KernelModelPtr& kernel,
                            ProfileSet& out);

    /**
     * The tail both entry points share: step 5's base runs under `plan`,
     * the drift anchor in SyncMode::kFinGraVDrift, the steps 6, 7, 9
     * stitch and the step-8 top-up.
     */
    void runAndStitch(RunExecutor& exec, const RunPlan& plan,
                      TimeSync& sync, ProfileSet& out);

    // Steps 6-9 (golden selection, LOI/TOI alignment, stitching) live in
    // ProfileStitcher (fingrav/stitcher.hpp): incremental stitching of
    // the harvested executions for the step-8 top-up loop, plus the
    // seed-faithful quadratic reference used by tests and benchmarks.

    runtime::HostRuntime& host_;
    ProfilerOptions opts_;
    support::Rng rng_;
    GuidanceTable guidance_;
    ProfileDifferentiator differ_;
};

}  // namespace fingrav::core

#endif  // FINGRAV_FINGRAV_PROFILER_HPP_
