#ifndef FINGRAV_SIM_POWER_LOGGER_HPP_
#define FINGRAV_SIM_POWER_LOGGER_HPP_

/**
 * @file
 * The on-GPU averaging power logger (paper tenet S1).
 *
 * Models the telemetry the paper builds on: "each power sample is the
 * average of multiple instantaneous power readings in the last 1ms"
 * (Section IV-A).  The logger lives on the GPU clock: windows are
 * contiguous, aligned to multiples of the window length *in GPU time*, and
 * each emitted sample carries the GPU timestamp-counter value at the window
 * end.  It is agnostic of kernel start/end events — re-aligning samples
 * into CPU time is the job of the FinGraV TimeSync stage (tenet S2).
 *
 * The same class models external coarse loggers (amd-smi style, Section VI)
 * by choosing a longer window.
 *
 * The device feeds the logger piecewise-constant power slices; the logger
 * splits slices exactly at window boundaries, so a window's reported power
 * is the exact time-average of instantaneous power over that window (plus
 * optional Gaussian measurement noise per rail).
 *
 * Accounting is *grouping-invariant*: contiguous slices carrying bitwise
 * equal rail power extend a pending constant-power segment (exact integer
 * nanosecond spans); the floating-point energy product is taken once per
 * segment per window, when the segment closes.  Delivering a stretch as
 * one bulk slice or as many sub-slices therefore yields bit-identical
 * samples — the property the event-driven device stepping relies on
 * (see docs/PERFORMANCE.md).  The same invariance is what lets the node
 * stepper split stretches at fabric epoch barriers for free: a contended
 * collective phase arrives as ordinary constant-power slices at the
 * stretched utilization — no per-quantum re-slicing — and an epoch cut
 * inside a constant-power interval cannot change any emitted sample.
 */

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/clock_domain.hpp"
#include "sim/power_model.hpp"
#include "sim/sample_columns.hpp"
#include "support/rng.hpp"
#include "support/time_types.hpp"

namespace fingrav::sim {

/** Windowed-averaging power logger on the GPU clock. */
class PowerLogger {
  public:
    /**
     * @param window      Averaging window (1 ms models the paper's logger).
     * @param gpu_clock   Clock domain whose counter timestamps the samples.
     * @param noise_w     Std-dev of per-rail measurement noise (0 = exact).
     * @param rng         Noise stream (unused when noise_w == 0).
     */
    PowerLogger(support::Duration window, const ClockDomain& gpu_clock,
                double noise_w, support::Rng rng);

    /**
     * Account a slice of constant power.
     *
     * Slices must be delivered in non-decreasing master-time order and must
     * not overlap; gaps are not allowed (the device integrates continuously
     * while the logger is enabled).  A slice may span any number of whole
     * windows — the bulk path emits every completed window in one pass.
     *
     * @param master_start Slice start on the master axis.
     * @param dt           Slice length (master time).
     * @param rails        Instantaneous rail power during the slice.
     */
    void addSlice(support::SimTime master_start, support::Duration dt,
                  const RailPower& rails);

    /**
     * Next window-grid boundary strictly after `gpu_now` (GPU-domain ns).
     * The grid is fixed by the window length; capture start/stop only
     * selects which grid cells emit samples.
     */
    std::int64_t
    nextWindowEndGpuNs(std::int64_t gpu_now) const
    {
        const std::int64_t w = window_.nanos();
        return (gpu_now / w + 1) * w;
    }

    /**
     * First master nanosecond at which the GPU clock reaches the grid
     * boundary after `master_now`: the stretch cut a capturing logger
     * imposes on its device.  The grid is fixed, so the cut is remembered
     * and recomputed only once `master_now` leaves the interval over
     * which the same computation would return it — it is a cache of a
     * pure function and returns exactly what a fresh computation would.
     */
    support::SimTime nextWindowEndMaster(support::SimTime master_now);

    /** Pre-grow the sample columns by `n` additional samples. */
    void
    reserveSamples(std::size_t n)
    {
        samples_.reserve(samples_.size() + n);
    }

    /** Enable capture; samples are appended from the next window boundary. */
    void start(support::SimTime master_now);

    /** Disable capture (the partially filled window is discarded). */
    void stop();

    /** True while capturing. */
    bool capturing() const { return capturing_; }

    /**
     * All samples captured since construction, as columns: samples are
     * *born* columnar here (one append per field as each window closes)
     * and stay columnar through RunRecord into the stitcher — the row
     * view (SampleColumns::operator[]) is for point-wise consumers.
     */
    const SampleColumns& samples() const { return samples_; }

    /** Drop captured samples (capture state is unaffected). */
    void clearSamples() { samples_.clear(); }

    /** The averaging window. */
    support::Duration window() const { return window_; }

  private:
    /** Close the current window and emit a sample. */
    void emitWindow(std::int64_t window_end_gpu_ns);

    /** Fold the pending constant-power segment into the window energy. */
    void flushSegment();

    support::Duration window_;
    const ClockDomain& gpu_clock_;
    double noise_w_;
    support::Rng rng_;

    bool capturing_ = false;
    /** GPU-domain ns of the start of the currently accumulating window. */
    std::int64_t window_start_gpu_ns_ = 0;
    /** Energy accumulated in the current window, W * gpu-ns. */
    double acc_xcd_ = 0.0;
    double acc_iod_ = 0.0;
    double acc_hbm_ = 0.0;
    double acc_misc_ = 0.0;
    /** Pending constant-power segment of the current window. */
    RailPower seg_rails_;
    std::int64_t seg_span_ns_ = 0;

    /** nextWindowEndMaster's cut, valid for master times in [from, until). */
    support::SimTime cut_;
    support::SimTime cut_from_;
    support::SimTime cut_until_;

    SampleColumns samples_;

    /** The last slice end and its GPU-domain ns (addSlice telescoping). */
    support::SimTime mapped_end_;
    std::int64_t mapped_end_gpu_ns_;
};

}  // namespace fingrav::sim

#endif  // FINGRAV_SIM_POWER_LOGGER_HPP_
