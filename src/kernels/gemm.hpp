#ifndef FINGRAV_KERNELS_GEMM_HPP_
#define FINGRAV_KERNELS_GEMM_HPP_

/**
 * @file
 * rocBLAS-like GEMM / GEMV cost model.
 *
 * GEMM (M x K * K x N): a tiled MFMA kernel.  The model selects a tile size
 * the way a BLAS heuristic would, derives workgroup count, wave count and
 * the resulting CU-occupancy quantization, prices compute vs LLC vs HBM
 * roofline terms, and reports utilization of each resource.  LLC residency
 * matters: working sets that fit the 256 MB Infinity Cache are served
 * on-chip once warm (the paper's footnote 3: "data movement is heavily
 * biased toward on-chip data movement for our executions"), while
 * CB-8K-GEMM's 402 MB working set spills and keeps HBM busy — which is why
 * the paper finds it has the highest HBM power of all GEMMs.
 *
 * GEMV (N == 1): a bandwidth kernel streaming the matrix once; short
 * vectors limit achieved bandwidth.  Warm executions are served mostly
 * from the Infinity Cache (stressing IOD power — the paper's MB-8K-GEMV
 * observation), cold executions stream from HBM.
 */

#include <cstdint>
#include <string>

#include "kernels/kernel_model.hpp"
#include "sim/machine_config.hpp"

namespace fingrav::kernels {

/** Problem shape; N == 1 selects the GEMV path. */
struct GemmShape {
    std::int64_t m = 0;
    std::int64_t n = 0;
    std::int64_t k = 0;
    int dtype_bytes = 2;  ///< fp16/bf16
};

/** GEMM/GEMV cost model (see file comment). */
class GemmKernel : public KernelModel {
  public:
    /**
     * @param shape  Problem shape (all dims >= 1; fatal otherwise).
     * @param cfg    Machine description (copied).
     */
    GemmKernel(const GemmShape& shape, const sim::MachineConfig& cfg);

    sim::KernelWork workAt(double warmth) const override;
    double opsPerByte() const override;

    /** The shape. */
    const GemmShape& shape() const { return shape_; }

    /** True when this is the GEMV (N == 1) path. */
    bool isGemv() const { return shape_.n == 1; }

    /** Total fused-multiply-add work, FLOP. */
    double flops() const;

    /** A+B+C footprint in bytes. */
    support::Bytes workingSetBytes() const;

    /** Compute- vs memory-bound against this machine's balance point. */
    Boundedness boundedness() const;

    /** Selected macro-tile edge (GEMM path). */
    std::int64_t tileSize() const { return tile_; }

    /** CU-occupancy after wave quantization (GEMM path). */
    double quantizationEfficiency() const;

    /**
     * Achieved fraction of peak compute at steady state (the quantity the
     * paper uses for the power-proportionality takeaway: CB-2K-GEMM
     * reaches about half the utilization of CB-4K/8K).
     */
    double achievedComputeUtilization() const;

  private:
    /** Per-CU pipeline efficiency for the selected tile and K depth. */
    double pipeEfficiency() const;

    /** "CB-"/"MB-", the M edge in K when whole, then "GEMM"/"GEMV". */
    std::string formatLabel() const;

    GemmShape shape_;
    sim::MachineConfig cfg_;
    std::int64_t tile_;
};

}  // namespace fingrav::kernels

#endif  // FINGRAV_KERNELS_GEMM_HPP_
