#ifndef FINGRAV_FINGRAV_STITCHER_HPP_
#define FINGRAV_FINGRAV_STITCHER_HPP_

/**
 * @file
 * Incremental LOI/TOI stitcher (paper steps 6, 7 and 9).
 *
 * Stitching aligns every power sample of every golden run with the run's
 * kernel executions.  The seed implementation compared each (execution,
 * sample) pair — O(execs × samples) with a timestamp translation per pair
 * — and the step-8 top-up loop re-stitched all runs from scratch after
 * every appended run, quadratic in run count.  ProfileStitcher fixes both
 * hot paths:
 *
 *  - each run is walked once (alignRun) into a record of all a stitch
 *    reads of it but its samples.  The walk's cursor jumps to the start
 *    of each execution that yields points (the SSE one and every one from
 *    the SSP index on) and gallops past every execution that ends before
 *    the next unplaced sample: it costs what the run's samples cost, not
 *    its executions.  The live form records a run when it first sees it,
 *    RecordedCampaign every run per (window, sync mode) at record time.
 *    A (re)stitch bins the records' representative times and
 *    concatenates each golden run's rows, reading no execution record;
 *  - restitch() is incremental: when appended runs leave the golden-bin
 *    membership of previously stitched runs unchanged (the common case —
 *    modalCluster returns ascending indices, so unchanged membership
 *    means the old golden set is a prefix of the new one), only the new
 *    runs are appended; a full rebuild happens only when the modal bin
 *    shifts.
 *
 * Precondition: within a run, each execution starts at or after the
 * previous one ends (RunExecutor synchronizes every timed run before the
 * next launch).  The cursor jump and the skip are exact only under it:
 * starts never decrease, and an execution whose successor starts before
 * the next unplaced sample ends before that sample too.
 *
 * stitchReference() preserves the seed's from-scratch quadratic loop; it
 * is the verification oracle (tests/stitch_incremental_test.cpp).  Both
 * paths produce bit-identical ProfileSets on the same inputs (the
 * reference stitches RunRecord::samples, i.e. window 0).
 */

#include <cstdint>
#include <optional>
#include <vector>

#include "fingrav/profiler.hpp"
#include "support/statistics.hpp"
#include "support/time_types.hpp"

namespace fingrav::core {

/**
 * One run's record under one (window, sync mode) for one (SSE index, SSP
 * index) split; stitching it into a ProfileSet with another split is a
 * FatalError.
 */
struct AlignedRun {
    std::size_t sse_exec_index = 0, ssp_exec_index = 0;  ///< the split
    /** Representative (SSP) execution time; unset without main executions. */
    std::optional<support::Duration> rep_time;
    std::vector<double> run_time_us;  ///< per sample, since the run start
    /**
     * Per-sample contention flag (0/1), resolved by merging the ascending
     * sample times against the run's merged contention intervals — same
     * predicate as RunRecord::contendedAt without a binary search per
     * sample.
     */
    std::vector<std::uint8_t> contended;
    std::vector<StitchRow> sse;  ///< SSE-profile rows, in stitch order
    std::vector<StitchRow> ssp;  ///< SSP-profile rows, in stitch order
};

/**
 * Record window `window` of `run` (RunRecord::windowSamples) for the
 * split (`sse`, `ssp`): translate the whole timestamp column into CPU
 * nanoseconds under `mode` (one vectorized pass, element-wise identical
 * to a per-sample translation), resolve each sample's contention flag
 * and walk the executions that yield rows.  Every stitch path reads it.
 *
 * @param sync  Calibrated translation (every mode but coarse-align).
 * @param tick  GPU timestamp-counter tick (coarse-align only).
 */
AlignedRun alignRun(const RunRecord& run, std::size_t window, SyncMode mode,
                    const TimeSync& sync, support::Duration tick,
                    std::size_t sse, std::size_t ssp);

/** Incremental stitcher; one instance per profiling campaign. */
class ProfileStitcher {
  public:
    /**
     * Live form: builds each run's record when it first sees the run.
     *
     * @param opts  Profiler options in force (sync mode, binning, margin).
     * @param sync  Calibrated CPU-GPU translation; must outlive the
     *              stitcher and not gain anchors between restitch calls.
     * @param tick  GPU timestamp-counter tick (coarse-align mode only).
     * @param window  Recorded log to stitch (RunRecord::windowSamples):
     *                0 = samples, w = extra_samples[w - 1].
     */
    ProfileStitcher(const ProfilerOptions& opts, const TimeSync& sync,
                    support::Duration tick, std::size_t window = 0);

    /**
     * Recorded form: reads `aligned`, element r = alignRun of run r at
     * `window` under opts.sync_mode; must outlive the stitcher and cover
     * every run stitched.
     */
    ProfileStitcher(const ProfilerOptions& opts,
                    const std::vector<AlignedRun>& aligned,
                    std::size_t window);

    /**
     * (Re)stitch `runs` into `out`.
     *
     * Callers append runs to the same vector and call again with the same
     * `out`; `out.guidance`, `out.label`, `out.sse_exec_index` and
     * `out.ssp_exec_index` must be set before the first call and stay
     * fixed.  Fills out.binning, out.sse/ssp/timeline, out.ssp_exec_time.
     */
    void restitch(const std::vector<RunRecord>& runs, ProfileSet& out);

    /**
     * Prefix form: stitch only the first `n` elements of `runs` (n must
     * not shrink between calls).  Lets a replay over a pre-recorded run
     * pool (core::RecordedCampaign) grow the stitched prefix without
     * copying records run by run.
     */
    void restitch(const std::vector<RunRecord>& runs, std::size_t n,
                  ProfileSet& out);

    /** Full rebuilds performed so far (diagnostics; 1 = never re-built). */
    std::size_t rebuildCount() const { return rebuilds_; }

    /**
     * Seed-faithful reference: from-scratch stitch comparing every
     * (execution, sample) pair, with a timestamp translation per pair.
     */
    static void stitchReference(const ProfilerOptions& opts,
                                const TimeSync& sync,
                                support::Duration tick,
                                const std::vector<RunRecord>& runs,
                                ProfileSet& out);

    /**
     * Step 6: golden-run selection (restitch bins its cached input the
     * same way).  Runs that recorded no main execution are skipped (they
     * cannot be binned and previously underflowed the
     * representative-execution index).
     */
    static void selectGoldenRuns(const ProfilerOptions& opts,
                                 const std::vector<RunRecord>& runs,
                                 ProfileSet& out);

  private:
    /** Extend the records and the binning input to the first `n` runs. */
    void updateCaches(const std::vector<RunRecord>& runs, std::size_t n,
                      const ProfileSet& out);

    /** Run `i`'s record, fatal unless it was built for `out`'s split. */
    const AlignedRun& record(std::size_t i, const ProfileSet& out) const;

    /** Append one golden run's rows and timeline to the profiles. */
    void appendRun(const RunRecord& run, const AlignedRun& rec,
                   ProfileSet& out) const;

    ProfilerOptions opts_;
    const TimeSync* sync_ = nullptr;  ///< live form only
    support::Duration tick_;
    std::size_t window_;
    const std::vector<AlignedRun>* table_ = nullptr;  ///< recorded form

    std::vector<AlignedRun> own_;  ///< live form: one record per run seen
    std::size_t seen_ = 0;  ///< runs whose binning input is in
    std::vector<support::Duration> rep_times_;  ///< of the eligible_ runs
    std::vector<std::size_t> eligible_;  ///< runs with main executions
    std::vector<std::size_t> stitched_golden_;
    support::RunningStats ssp_time_us_;
    bool stitched_once_ = false;
    std::size_t rebuilds_ = 0;
};

}  // namespace fingrav::core

#endif  // FINGRAV_FINGRAV_STITCHER_HPP_
