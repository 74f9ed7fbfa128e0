#ifndef FINGRAV_KERNELS_WORKLOADS_HPP_
#define FINGRAV_KERNELS_WORKLOADS_HPP_

/**
 * @file
 * The paper's AI-operator workload registry.
 *
 * Section V-A fixes the operator space: compute-bound square GEMMs of edge
 * 8K/4K/2K, memory-bound GEMVs on the same matrices (M=K, N=1), and
 * all-gather / all-reduce collectives at latency-bound (64 KB, 128 KB) and
 * bandwidth-bound (512 MB, 1 GB) sizes.  These factories build the exact
 * fourteen kernels the evaluation profiles, with the paper's labels.
 */

#include <string>
#include <vector>

#include "kernels/collective.hpp"
#include "kernels/gemm.hpp"
#include "kernels/kernel_model.hpp"
#include "sim/machine_config.hpp"
#include "support/units.hpp"

namespace fingrav::kernels {

/** Square compute-bound GEMM (M = N = K = edge). */
KernelModelPtr makeSquareGemm(std::int64_t edge,
                              const sim::MachineConfig& cfg);

/** Memory-bound GEMV on the same matrix (M = K = edge, N = 1). */
KernelModelPtr makeGemv(std::int64_t edge, const sim::MachineConfig& cfg);

/** Collective of the given op and payload. */
KernelModelPtr makeCollective(CollectiveOp op, support::Bytes bytes,
                              const sim::MachineConfig& cfg);

/** The six GEMM/GEMV kernels of Section V-C (8K/4K/2K x {GEMM, GEMV}). */
std::vector<KernelModelPtr> paperGemmKernels(const sim::MachineConfig& cfg);

/** The eight communication kernels of Section V-D. */
std::vector<KernelModelPtr> paperCollectiveKernels(
    const sim::MachineConfig& cfg);

/** All fourteen kernels of the paper's evaluation. */
std::vector<KernelModelPtr> paperKernels(const sim::MachineConfig& cfg);

/**
 * Resolve a kernel label: a paper label (e.g. "CB-4K-GEMM") or a
 * shorthand for a custom shape, `gemm:M,N,K`, `gemv:M`, `ag:BYTES` or
 * `ar:BYTES` (positive integers).  Fatal on an unknown label or a
 * malformed shorthand.  Every spec path resolves labels here, so a
 * shorthand works wherever a paper label does (fleet, cache, recording).
 */
KernelModelPtr kernelByLabel(const std::string& label,
                             const sim::MachineConfig& cfg);

}  // namespace fingrav::kernels

#endif  // FINGRAV_KERNELS_WORKLOADS_HPP_
