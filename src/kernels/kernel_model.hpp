#ifndef FINGRAV_KERNELS_KERNEL_MODEL_HPP_
#define FINGRAV_KERNELS_KERNEL_MODEL_HPP_

/**
 * @file
 * Abstract kernel cost model.
 *
 * A KernelModel prices one kernel invocation on the simulated machine:
 * duration at nominal clock, per-resource utilization, and frequency
 * sensitivity, all as a function of *warmth* — how recently this kernel
 * (and its memory allocation) has run.  Warmth 0 is a cold start (first
 * execution of a fresh run: cold caches, unmapped pages); warmth 1 is
 * fully warmed.  The paper's observation that "three warm-up executions
 * from GPU idle state" suffice for execution-time stabilization
 * (Section IV-B step 3) corresponds to warmth reaching ~1 by the fourth
 * execution.
 */

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/kernel_work.hpp"
#include "support/time_types.hpp"

namespace fingrav::kernels {

/** Compute- vs memory-bound classification (paper Section V-A). */
enum class Boundedness {
    kComputeBound,
    kMemoryBound,
};

/** Printable name. */
const char* toString(Boundedness b);

/** Cost model of one kernel on the configured machine. */
class KernelModel {
  public:
    virtual ~KernelModel() = default;

    /**
     * Paper-style label, e.g. "CB-4K-GEMM" or "AG-1GB".  Formatted once,
     * by the derived constructor; the invocations workAt() builds do not
     * carry it.
     */
    const std::string& label() const { return label_; }

    /**
     * The kernel invocation at a given warmth.
     *
     * @param warmth  0 = cold start, 1 = steady state; clamped.
     */
    virtual sim::KernelWork workAt(double warmth) const = 0;

    /** Steady-state duration at nominal clock (warmth 1, no jitter). */
    support::Duration
    nominalDuration() const
    {
        return workAt(1.0).nominal_duration;
    }

    /** Algorithmic FLOP:byte ratio (0 when not meaningful, e.g. comms). */
    virtual double opsPerByte() const = 0;

    /**
     * True for kernels that execute on every GPU of the node at once
     * (collectives); the profiler then launches node-wide while profiling
     * device 0, as the paper does.
     */
    virtual bool isCollective() const { return false; }

  protected:
    /** Set the label (each derived constructor, once its inputs check out). */
    void setLabel(std::string label) { label_ = std::move(label); }

  private:
    std::string label_;
};

/** Shared pointer alias used by workload registries. */
using KernelModelPtr = std::shared_ptr<const KernelModel>;

}  // namespace fingrav::kernels

#endif  // FINGRAV_KERNELS_KERNEL_MODEL_HPP_
