#include "sim/fabric.hpp"

#include <algorithm>

#include "sim/machine_config.hpp"
#include "support/logging.hpp"

namespace fingrav::sim {

FabricModel::FabricModel(std::size_t gpus, std::size_t links_per_gpu,
                         support::BytesPerSecond link_bandwidth)
    : gpus_(gpus), links_per_gpu_(links_per_gpu),
      link_bandwidth_(link_bandwidth)
{
    if (gpus < 2)
        support::fatal("FabricModel: need at least 2 GPUs, got ", gpus);
    if (links_per_gpu == 0 || link_bandwidth <= 0.0)
        support::fatal("FabricModel: degenerate link configuration");
}

FabricModel
FabricModel::fromConfig(const MachineConfig& cfg)
{
    return FabricModel(cfg.node_gpus, cfg.fabric_links,
                       cfg.fabric_link_bandwidth);
}

support::BytesPerSecond
FabricModel::achievableBandwidth() const
{
    return static_cast<double>(links_per_gpu_) * link_bandwidth_ *
           efficiency_;
}

support::Duration
FabricModel::allGatherTime(support::Bytes bytes) const
{
    FINGRAV_ASSERT(bytes > 0, "all-gather of zero bytes");
    const auto n = static_cast<double>(gpus_);
    const double moved =
        static_cast<double>(bytes) * (n - 1.0) / n;
    const double bw_s = moved / achievableBandwidth();
    const double alpha_s =
        base_latency_.toSeconds() +
        (n - 1.0) * hop_latency_.toSeconds();
    return support::Duration::seconds(alpha_s + bw_s);
}

support::Duration
FabricModel::allReduceTime(support::Bytes bytes) const
{
    FINGRAV_ASSERT(bytes > 0, "all-reduce of zero bytes");
    const auto n = static_cast<double>(gpus_);
    // Ring all-reduce = reduce-scatter + all-gather: 2 * (N-1)/N the data,
    // 2 * (N-1) hops, plus a small reduction-compute term that matters only
    // for large payloads.
    const double moved =
        2.0 * static_cast<double>(bytes) * (n - 1.0) / n;
    const double bw_s = moved / achievableBandwidth();
    const double alpha_s =
        base_latency_.toSeconds() +
        2.0 * (n - 1.0) * hop_latency_.toSeconds();
    const double reduce_s = static_cast<double>(bytes) / 2.0e13;
    return support::Duration::seconds(alpha_s + bw_s + reduce_s);
}

double
FabricModel::utilization(support::Bytes bytes, support::Duration t) const
{
    if (t.nanos() <= 0)
        return 0.0;
    const auto n = static_cast<double>(gpus_);
    const double rate =
        static_cast<double>(bytes) * (n - 1.0) / n / t.toSeconds();
    const double peak =
        static_cast<double>(links_per_gpu_) * link_bandwidth_;
    return std::clamp(rate / peak, 0.0, 1.0);
}

// ---------------------------------------------------------------------------
// NodeFabric
// ---------------------------------------------------------------------------

NodeFabric::NodeFabric(const MachineConfig& cfg, std::size_t devices)
    // One demand slot per device plus the host-injection slot (index
    // `devices`), so injected background demand rides the same
    // pending/committed epoch machinery as kernel demand.
    : devices_(devices), pending_(devices + 1), committed_(devices + 1)
{
    if (devices == 0)
        support::fatal("NodeFabric: node must contain at least one GPU");
    if (cfg.node_gpus >= 2)
        model_.emplace(FabricModel::fromConfig(cfg));
}

void
NodeFabric::postDemand(std::size_t device,
                       const std::vector<FabricDemand>& demands)
{
    FINGRAV_ASSERT(device < devices_,
                   "NodeFabric: device index out of range");
    pending_[device] = demands;
}

void
NodeFabric::injectDemand(const std::vector<FabricDemand>& demands)
{
    pending_[devices_] = demands;
    injected_ = !demands.empty();
}

double
NodeFabric::distinctDemand(std::size_t exclude_device,
                           const std::vector<FabricDemand>& own) const
{
    double total = 0.0;
    for (const auto& d : own)
        total += d.demand;
    // Committed demands of the non-excluded devices, one contribution
    // per distinct transfer.  Copies of a transfer carry equal demand,
    // so the first sighting stands in for the group.  The seen-list is
    // per-thread scratch (devices price concurrently during an epoch)
    // that keeps its capacity, so a call allocates nothing.
    thread_local std::vector<std::uint64_t> seen;
    seen.clear();
    for (std::size_t j = 0; j < committed_.size(); ++j) {
        if (j == exclude_device)
            continue;
        for (const auto& d : committed_[j]) {
            bool skip = false;
            for (const auto& o : own) {
                if (o.group == d.group) {
                    skip = true;
                    break;
                }
            }
            for (const auto g : seen) {
                if (g == d.group) {
                    skip = true;
                    break;
                }
            }
            if (skip)
                continue;
            seen.push_back(d.group);
            total += d.demand;
        }
    }
    return total;
}

double
NodeFabric::sharedDemand(std::size_t device,
                         const std::vector<FabricDemand>& own) const
{
    FINGRAV_ASSERT(device < devices_,
                   "NodeFabric: device index out of range");
    return distinctDemand(device, own);
}

bool
NodeFabric::commit()
{
    bool changed = false;
    for (std::size_t i = 0; i < pending_.size(); ++i) {
        if (pending_[i] != committed_[i]) {
            committed_[i] = pending_[i];
            changed = true;
        }
    }
    if (changed)
        ++epoch_;
    return changed;
}

double
NodeFabric::nodeDemand() const
{
    return distinctDemand(committed_.size(), {});
}

double
NodeFabric::stretch() const
{
    return std::max(1.0, nodeDemand());
}

}  // namespace fingrav::sim
