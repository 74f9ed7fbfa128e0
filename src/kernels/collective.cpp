#include "kernels/collective.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "support/logging.hpp"

namespace fingrav::kernels {

namespace {

/**
 * HBM traffic multiple of the payload: the chunked ring pipeline reads the
 * source, stages chunks through intermediate buffers on every hop and
 * writes the destination, so local memory moves several times the payload.
 */
constexpr double kChunkTrafficFactor = 6.0;

/** Cold-start slowdown of a collective (channel setup, cold buffers). */
constexpr double kColdFactor = 1.18;

}  // namespace

CollectiveKernel::CollectiveKernel(CollectiveOp op, support::Bytes bytes,
                                   const sim::MachineConfig& cfg)
    : op_(op), bytes_(bytes), cfg_(cfg),
      fabric_(sim::FabricModel::fromConfig(cfg))
{
    if (bytes <= 0)
        support::fatal("CollectiveKernel: payload must be positive, got ",
                       bytes);
    setLabel(formatLabel());
}

support::Duration
CollectiveKernel::baseDuration() const
{
    return op_ == CollectiveOp::kAllGather ? fabric_.allGatherTime(bytes_)
                                           : fabric_.allReduceTime(bytes_);
}

double
CollectiveKernel::alphaShare() const
{
    const double hops = op_ == CollectiveOp::kAllGather
                            ? static_cast<double>(fabric_.gpus() - 1)
                            : 2.0 * static_cast<double>(fabric_.gpus() - 1);
    const double alpha_s = fabric_.baseLatency().toSeconds() +
                           hops * fabric_.hopLatency().toSeconds();
    return alpha_s / baseDuration().toSeconds();
}

CollectiveBoundedness
CollectiveKernel::boundedness() const
{
    // Latency-bound while the alpha term still dominates: doubling the
    // payload would not grow latency commensurately.
    return alphaShare() > 0.5 ? CollectiveBoundedness::kLatencyBound
                              : CollectiveBoundedness::kBandwidthBound;
}

std::string
CollectiveKernel::formatLabel() const
{
    std::ostringstream oss;
    oss << toString(op_) << "-";
    if (bytes_ % (1000LL * 1000 * 1000) == 0)
        oss << bytes_ / (1000LL * 1000 * 1000) << "GB";
    else if (bytes_ % (1000LL * 1000) == 0)
        oss << bytes_ / (1000LL * 1000) << "MB";
    else if (bytes_ % 1000LL == 0)
        oss << bytes_ / 1000LL << "KB";
    else
        oss << bytes_ << "B";
    return oss.str();
}

sim::KernelWork
CollectiveKernel::workAt(double warmth) const
{
    const double w = std::clamp(warmth, 0.0, 1.0);
    const auto base = baseDuration();
    const double factor = kColdFactor + (1.0 - kColdFactor) * w;
    const auto dur = base * factor;

    sim::KernelWork out;
    out.nominal_duration = dur;
    // Fabric- and memory-bound: the engine clock barely matters.
    out.freq_sensitivity = 0.05;
    // One inter-GPU transfer on the shared node fabric: the launch path
    // assigns the concrete transfer id (the same id across the per-device
    // copies of this collective), and sim::NodeFabric fair-shares node
    // bandwidth between concurrent transfers.
    out.fabric_group = sim::KernelWork::kAutoFabricGroup;

    const bool reduce = op_ == CollectiveOp::kAllReduce;
    out.util.xcd_occupancy = reduce ? 0.13 : 0.06;
    out.util.xcd_issue = reduce ? 0.09 : 0.04;
    out.util.llc_bw = 0.10;
    const double moved_bytes =
        static_cast<double>(reduce ? bytes_ * 2 : bytes_);
    out.util.fabric_bw = fabric_.utilization(
        reduce ? bytes_ * 2 : bytes_, dur);
    const double hbm_rate =
        moved_bytes * kChunkTrafficFactor / dur.toSeconds();
    out.util.hbm_bw = std::min(0.6, hbm_rate / cfg_.hbm_bandwidth);
    return out;
}

const char*
toString(CollectiveOp op)
{
    switch (op) {
      case CollectiveOp::kAllGather:
        return "AG";
      case CollectiveOp::kAllReduce:
        return "AR";
    }
    return "??";
}

const char*
toString(CollectiveBoundedness b)
{
    switch (b) {
      case CollectiveBoundedness::kLatencyBound:
        return "latency-bound";
      case CollectiveBoundedness::kBandwidthBound:
        return "bandwidth-bound";
    }
    return "unknown";
}

}  // namespace fingrav::kernels
