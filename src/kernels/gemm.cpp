#include "kernels/gemm.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "support/logging.hpp"

namespace fingrav::kernels {

namespace {

/** Per-CU MFMA pipeline ceiling by macro-tile edge. */
double
tileCeiling(std::int64_t tile)
{
    return tile >= 256 ? 0.93 : 0.60;
}

/** K-depth at which the pipeline loses half its ceiling to prologue cost. */
constexpr double kHalfK = 500.0;

/** LLC panel re-fetch factor when the working set spills the LLC. */
constexpr double kSpillRefetch = 4.0;

/** Residual HBM traffic fraction for LLC-resident warm working sets. */
constexpr double kWarmResidualTraffic = 0.10;

/** Cold-start extra re-fetch multiplier (cold caches, cold TLB). */
constexpr double kColdRefetch = 8.0;

/** GEMV: fraction of LLC peak achieved as a function of row count. */
double
gemvLlcEfficiency(std::int64_t m)
{
    const double x = static_cast<double>(m);
    return 0.92 * x / (x + 1500.0);
}

/**
 * GEMV LLC traffic amplification: split-K passes and vector re-reads move
 * the matrix through the Infinity Cache several times per invocation.
 */
constexpr double kGemvLlcTrafficFactor = 3.0;

/** GEMV floor: wave launch, barriers and cache latency bound tiny sizes. */
constexpr double kGemvFloorSeconds = 3.0e-6;

}  // namespace

GemmKernel::GemmKernel(const GemmShape& shape, const sim::MachineConfig& cfg)
    : shape_(shape), cfg_(cfg)
{
    if (shape.m < 1 || shape.n < 1 || shape.k < 1)
        support::fatal("GemmKernel: degenerate shape ", shape.m, "x",
                       shape.n, "x", shape.k);
    if (shape.dtype_bytes <= 0)
        support::fatal("GemmKernel: dtype_bytes must be positive");
    // BLAS-heuristic tile selection: large square problems take the big
    // MFMA macro-tile; smaller ones fall back to 128 to keep enough
    // workgroups in flight.
    tile_ = (std::min(shape.m, shape.n) >= 4096) ? 256 : 128;
    setLabel(formatLabel());
}

double
GemmKernel::flops() const
{
    return 2.0 * static_cast<double>(shape_.m) *
           static_cast<double>(shape_.n) * static_cast<double>(shape_.k);
}

support::Bytes
GemmKernel::workingSetBytes() const
{
    const auto m = shape_.m;
    const auto n = shape_.n;
    const auto k = shape_.k;
    return (m * k + k * n + m * n) * shape_.dtype_bytes;
}

double
GemmKernel::opsPerByte() const
{
    return flops() / static_cast<double>(workingSetBytes());
}

Boundedness
GemmKernel::boundedness() const
{
    // The paper's definition: compute-bound iff the algorithmic op:byte
    // ratio exceeds the machine's op:byte ratio.
    return opsPerByte() > cfg_.machineOpsPerByte()
               ? Boundedness::kComputeBound
               : Boundedness::kMemoryBound;
}

double
GemmKernel::quantizationEfficiency() const
{
    const double wgs =
        std::ceil(static_cast<double>(shape_.m) / static_cast<double>(tile_)) *
        std::ceil(static_cast<double>(shape_.n) / static_cast<double>(tile_));
    const double cus = static_cast<double>(cfg_.totalCus());
    const double waves = std::ceil(wgs / cus);
    return wgs / (waves * cus);
}

double
GemmKernel::pipeEfficiency() const
{
    const double k = static_cast<double>(shape_.k);
    return tileCeiling(tile_) * k / (k + kHalfK);
}

double
GemmKernel::achievedComputeUtilization() const
{
    const auto work = workAt(1.0);
    return flops() / work.nominal_duration.toSeconds() /
           cfg_.peak_matrix_flops;
}

std::string
GemmKernel::formatLabel() const
{
    std::ostringstream oss;
    oss << (boundedness() == Boundedness::kComputeBound ? "CB-" : "MB-");
    const auto dim = shape_.m;
    if (dim % 1024 == 0)
        oss << (dim / 1024) << "K-";
    else
        oss << dim << "-";
    oss << (isGemv() ? "GEMV" : "GEMM");
    return oss.str();
}

sim::KernelWork
GemmKernel::workAt(double warmth) const
{
    const double w = std::clamp(warmth, 0.0, 1.0);
    sim::KernelWork out;
    out.label = label();

    if (isGemv()) {
        // ---- GEMV path: stream the matrix through the LLC --------------
        const double bytes = static_cast<double>(workingSetBytes());
        const double llc_bytes = bytes * kGemvLlcTrafficFactor;
        const double llc_eff = gemvLlcEfficiency(shape_.m);
        // Warm: LLC-resident (working sets here are <= 256 MB); cold:
        // streaming from HBM at a fraction of peak.
        const double warm_s =
            llc_bytes / (cfg_.llc_bandwidth * llc_eff);
        const double cold_s = bytes / (cfg_.hbm_bandwidth * 0.70) +
                              0.5 * warm_s;
        const double dur_s =
            std::max(kGemvFloorSeconds, cold_s + (warm_s - cold_s) * w);
        out.nominal_duration = support::Duration::seconds(dur_s);
        out.freq_sensitivity = 0.15;

        const double x = static_cast<double>(shape_.m);
        out.util.xcd_occupancy = std::min(0.35, 0.10 + x / 60000.0);
        out.util.xcd_issue = std::min(0.15, 0.04 + x / 140000.0);
        // LLC/HBM utilization follow the achieved byte rates.
        const double miss = 0.05 + 0.75 * (1.0 - w);
        out.util.llc_bw = std::min(
            1.0,
            llc_bytes * (1.0 - miss * 0.5) / dur_s / cfg_.llc_bandwidth);
        out.util.hbm_bw =
            std::min(1.0, bytes * miss / dur_s / cfg_.hbm_bandwidth);
        return out;
    }

    // ---- GEMM path: tiled MFMA kernel ----------------------------------
    const double quant = quantizationEfficiency();
    const double pipe = pipeEfficiency();
    const double compute_eff = quant * pipe;
    FINGRAV_ASSERT(compute_eff > 0.0, "zero compute efficiency");

    // LLC-level panel traffic: each output tile streams an A row-panel and
    // a B column-panel, plus C read+write.
    const double wgs =
        std::ceil(static_cast<double>(shape_.m) / static_cast<double>(tile_)) *
        std::ceil(static_cast<double>(shape_.n) / static_cast<double>(tile_));
    const double llc_bytes =
        wgs * 2.0 * static_cast<double>(tile_) *
            static_cast<double>(shape_.k) * shape_.dtype_bytes +
        2.0 * static_cast<double>(shape_.m) * static_cast<double>(shape_.n) *
            shape_.dtype_bytes;

    // HBM traffic: spilling working sets re-fetch panels; resident warm
    // working sets leave only residual streaming traffic.  Cold starts pay
    // full-footprint fetches regardless.
    const double ws = static_cast<double>(workingSetBytes());
    const bool spills = ws > static_cast<double>(cfg_.llc_capacity);
    const double warm_refetch = spills ? kSpillRefetch : kWarmResidualTraffic;
    const double cold_refetch = spills ? kColdRefetch : 1.0;
    const double refetch = cold_refetch + (warm_refetch - cold_refetch) * w;
    const double hbm_bytes = ws * refetch;

    const double t_compute =
        flops() / (cfg_.peak_matrix_flops * compute_eff);
    const double t_llc = llc_bytes / (cfg_.llc_bandwidth * 0.85);
    const double t_hbm = hbm_bytes / (cfg_.hbm_bandwidth * 0.80);
    // Cold execution also pays a fixed-ish setup penalty (page mapping,
    // code upload) shrinking with warmth.
    const double setup_s = (1.0 - w) * 0.22 * t_compute;
    const double dur_s = std::max({t_compute, t_llc, t_hbm}) + setup_s;

    out.nominal_duration = support::Duration::seconds(dur_s);
    out.freq_sensitivity = t_compute >= std::max(t_llc, t_hbm) ? 0.95 : 0.20;
    out.util.xcd_occupancy = quant;
    out.util.xcd_issue = compute_eff * (t_compute / dur_s);
    out.util.llc_bw = std::min(1.0, llc_bytes / dur_s / cfg_.llc_bandwidth);
    out.util.hbm_bw = std::min(1.0, hbm_bytes / dur_s / cfg_.hbm_bandwidth);
    return out;
}

}  // namespace fingrav::kernels
