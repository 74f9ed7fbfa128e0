#ifndef FINGRAV_FINGRAV_OUTLIER_HPP_
#define FINGRAV_FINGRAV_OUTLIER_HPP_

/**
 * @file
 * Outlier-execution analysis (paper Section VI).
 *
 * FinGraV's common-case profiles deliberately discard outlier runs; the
 * paper sketches two ways to study the outliers themselves and leaves them
 * to future work.  Both are implemented here:
 *
 *  1. OutlierProfiler — "employ FinGraV methodology and focus on
 *     collecting profiles for a specific outlier execution time and
 *     discarding the rest (changing step-6)".  The campaign first runs the
 *     standard pipeline to locate the outlier cluster, then re-bins around
 *     it.  As the paper warns, this costs more runs: outliers are rare, so
 *     the target bin fills slowly.
 *
 *  2. PhaseSlice — "the kernel can be artificially terminated after half
 *     the number of workgroups are completed and each half of the
 *     execution can be studied separately".  PhaseSlice wraps any
 *     KernelModel and exposes a [from, to) fraction of its workgroups as a
 *     standalone kernel, so each phase can be profiled (and its
 *     execution-time variation assessed) independently.
 */

#include <cstddef>
#include <optional>
#include <string>

#include "fingrav/profiler.hpp"
#include "kernels/kernel_model.hpp"
#include "runtime/host_runtime.hpp"
#include "support/rng.hpp"
#include "support/time_types.hpp"

namespace fingrav::core {

/** Result of an outlier-focused campaign. */
struct OutlierProfileResult {
    ProfileSet common;    ///< the standard common-case campaign
    ProfileSet outlier;   ///< the campaign re-focused on the outlier bin
    support::Duration outlier_target;  ///< the execution time targeted
    bool outlier_found = false;        ///< false when no outlier cluster
};

/** Profiles the outlier execution-time bin instead of the modal one. */
class OutlierProfiler {
  public:
    /**
     * @param host  Runtime over the node.
     * @param opts  Base options (binning settings are managed internally).
     * @param rng   Campaign randomness.
     */
    OutlierProfiler(runtime::HostRuntime& host, ProfilerOptions opts,
                    support::Rng rng);

    /**
     * Run the two-stage campaign: common-case first (which also surfaces
     * the outlier population), then a re-binned campaign around the
     * slowest outlier cluster.
     *
     * @param kernel           Kernel to study.
     * @param min_outlier_gap  Minimum relative slowdown for a time to
     *                         count as an outlier (e.g. 0.08 = 8 %).
     */
    OutlierProfileResult profile(const kernels::KernelModelPtr& kernel,
                                 double min_outlier_gap = 0.08);

  private:
    runtime::HostRuntime& host_;
    ProfilerOptions opts_;
    support::Rng rng_;
};

}  // namespace fingrav::core

namespace fingrav::kernels {

/** A contiguous slice of another kernel's workgroups (Section VI). */
class PhaseSlice : public KernelModel {
  public:
    /**
     * @param base  The kernel being split; shared ownership.
     * @param from  Slice start as a fraction of total work, in [0, 1).
     * @param to    Slice end, in (from, 1].
     */
    PhaseSlice(KernelModelPtr base, double from, double to);

    sim::KernelWork workAt(double warmth) const override;
    double opsPerByte() const override { return base_->opsPerByte(); }
    bool isCollective() const override { return base_->isCollective(); }

    /** The underlying kernel. */
    const KernelModel& base() const { return *base_; }

    /** Fraction of the base kernel's work this slice covers. */
    double fraction() const { return to_ - from_; }

  private:
    KernelModelPtr base_;
    double from_;
    double to_;
};

}  // namespace fingrav::kernels

#endif  // FINGRAV_FINGRAV_OUTLIER_HPP_
