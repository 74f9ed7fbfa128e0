#ifndef FINGRAV_SIM_KERNEL_WORK_HPP_
#define FINGRAV_SIM_KERNEL_WORK_HPP_

/**
 * @file
 * The unit of work a GpuDevice executes.
 *
 * Kernel cost models (src/kernels/) reduce a kernel invocation to: a
 * nominal duration (at frequency ratio 1.0), the share of that duration
 * that scales with the engine clock (compute-bound kernels stretch under
 * DVFS throttling, memory-/fabric-bound kernels barely do), and the
 * resource utilization it imposes while resident.  The device integrates
 * work progress against the live governor frequency, which is how the
 * paper's "warm-up executions are slower" observation emerges.
 */

#include <cstdint>

#include "sim/utilization.hpp"
#include "support/time_types.hpp"

namespace fingrav::sim {

/** A kernel invocation as seen by the device: plain numbers, no name
 *  (the label lives on kernels::KernelModel). */
struct KernelWork {
    /** Sentinel fabric_group: allocate a fresh transfer id at launch. */
    static constexpr std::uint64_t kAutoFabricGroup = ~std::uint64_t{0};

    support::Duration nominal_duration;  ///< execution time at f/fn == 1.0
    double freq_sensitivity = 0.9;       ///< clock-scaled share of the work
    UtilizationVector util;              ///< resource load while resident

    /**
     * Shared-node-fabric transfer id.  0 means the kernel's fabric_bw is
     * on-package traffic only (cross-XCD/IOD) and places no demand on the
     * node-level GPU-to-GPU fabric.  A non-zero id marks the kernel as one
     * inter-GPU transfer: the per-device copies of a collective launched
     * across the node carry the *same* id (they are the same bytes on the
     * same links and must not contend with themselves), while distinct
     * concurrent transfers carry distinct ids and share node bandwidth
     * fairly (sim::NodeFabric).  Kernel models set kAutoFabricGroup to
     * request a fresh id at launch/submit time.
     */
    std::uint64_t fabric_group = 0;
};

}  // namespace fingrav::sim

#endif  // FINGRAV_SIM_KERNEL_WORK_HPP_
