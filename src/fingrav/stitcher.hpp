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
 *  - per run, sample CPU timestamps are translated once (alignRun) — on
 *    first use, or up front for a whole recorded pool (RecordedCampaign
 *    aligns every run once per window and sync mode); a forward cursor
 *    then jumps to the start of each execution that yields points (the
 *    SSE one and every one from the SSP index on), and a galloping search
 *    over execution starts jumps past every execution that ends before
 *    the next unplaced sample: the cost follows the samples a run places,
 *    not the executions it recorded.  Golden selection bins
 *    representative times cached when each run is first seen, and the
 *    SSP-time statistic reads the same cache;
 *  - restitch() is incremental: when appended runs leave the golden-bin
 *    membership of previously stitched runs unchanged (the common case —
 *    modalCluster returns ascending indices, so unchanged membership
 *    means the old golden set is a prefix of the new one), only the new
 *    runs are scanned; a full rebuild happens only when the modal bin
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

/** One run's log in CPU time under one (window, sync mode). */
struct AlignedRun {
    std::vector<std::int64_t> cpu_ns;  ///< per sample, ascending
    /**
     * Per-sample contention flag (0/1), resolved by merging the ascending
     * sample times against the run's merged contention intervals — same
     * predicate as RunRecord::contendedAt without a binary search per
     * sample.
     */
    std::vector<std::uint8_t> contended;
};

/**
 * Align window `window` of `run` (RunRecord::windowSamples): translate
 * the whole timestamp column into CPU nanoseconds under `mode` (one
 * vectorized pass, element-wise identical to a per-sample translation)
 * and resolve each sample's contention flag.  The one alignment every
 * stitch path reads.
 *
 * @param sync  Calibrated translation (every mode but coarse-align).
 * @param tick  GPU timestamp-counter tick (coarse-align only).
 */
AlignedRun alignRun(const RunRecord& run, std::size_t window, SyncMode mode,
                    const TimeSync& sync, support::Duration tick);

/** Incremental stitcher; one instance per profiling campaign. */
class ProfileStitcher {
  public:
    /**
     * Live form: aligns each golden run on first use.
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
    /** Extend per-run caches and the binning input to the first `n` runs. */
    void updateCaches(const std::vector<RunRecord>& runs, std::size_t n,
                      const ProfileSet& out);

    /** Run `run_idx` aligned: the recorded table, or aligned once here. */
    const AlignedRun& alignedRun(const RunRecord& run, std::size_t run_idx);

    /** Append one golden run's points to the profiles (cursor jumps). */
    void appendRun(const RunRecord& run, std::size_t run_idx,
                   ProfileSet& out);

    ProfilerOptions opts_;
    const TimeSync* sync_ = nullptr;  ///< live form only
    support::Duration tick_;
    std::size_t window_;
    const std::vector<AlignedRun>* table_ = nullptr;  ///< recorded form

    /** Live form: one slot per run seen, aligned on its first use. */
    std::vector<std::optional<AlignedRun>> own_;
    /** Per run seen: its representative time (zero when ineligible). */
    std::vector<support::Duration> run_rep_times_;
    std::vector<support::Duration> rep_times_;  ///< of the eligible_ runs
    std::vector<std::size_t> eligible_;  ///< runs with main executions
    std::vector<std::size_t> stitched_golden_;
    support::RunningStats ssp_time_us_;
    bool stitched_once_ = false;
    std::size_t rebuilds_ = 0;
};

}  // namespace fingrav::core

#endif  // FINGRAV_FINGRAV_STITCHER_HPP_
