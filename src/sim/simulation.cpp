#include "sim/simulation.hpp"

#include <algorithm>

#include "support/logging.hpp"

namespace fingrav::sim {

Simulation::Simulation(const MachineConfig& cfg, std::uint64_t seed,
                       std::size_t devices)
    : cfg_(cfg), root_rng_(seed),
      cpu_clock_(
          // The CPU clock is the drift reference; its epoch offset is
          // arbitrary (a realistic large boot-time value).
          support::Duration::seconds(root_rng_.fork(0).uniform(1e5, 2e5)),
          /*drift_ppm=*/0.0, support::Duration::nanos(1)),
      fabric_(cfg, devices == 0 ? cfg.node_gpus : devices),
      devices_()
{
    const std::size_t n = devices == 0 ? cfg.node_gpus : devices;
    if (n == 0)
        support::fatal("Simulation: node must contain at least one GPU");
    devices_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        devices_.push_back(std::make_unique<GpuDevice>(
            cfg, root_rng_.fork(100 + i), i));
        devices_.back()->attachFabric(&fabric_);
        all_devices_.push_back(i);
    }
}

support::SimTime
Simulation::epochBoundary(const std::vector<std::size_t>& active,
                          support::SimTime limit)
{
    // Demand changes already due (epoch-boundary starts, harvested
    // completions) must reach the committed view before anyone moves.
    // Every device is polled — including ones that drained or sit ahead
    // of this epoch's advancers — or a retired transfer would keep its
    // committed demand and stretch the survivors against a ghost.
    for (const auto& dev : devices_)
        dev->pollFabricDemand();
    fabric_.commit();
    // Devices are independent until the next node-fabric demand change.
    auto t_sync = limit;
    for (const auto i : active)
        t_sync = std::min(t_sync, devices_[i]->nextFabricEvent(limit));
    return t_sync;
}

void
Simulation::advanceAllTo(support::SimTime master)
{
    std::vector<std::size_t> behind;
    behind.reserve(devices_.size());
    for (;;) {
        behind.clear();
        for (std::size_t i = 0; i < devices_.size(); ++i) {
            if (devices_[i]->localNow() < master)
                behind.push_back(i);
        }
        if (behind.empty())
            return;
        const auto t_sync = epochBoundary(behind, master);
        for (const auto i : behind)
            devices_[i]->advanceTo(t_sync);
    }
}

support::SimTime
Simulation::advanceAllUntilIdle(support::SimTime limit)
{
    auto latest = support::SimTime::fromNanos(0);
    std::vector<char> done(devices_.size(), 0);
    std::vector<std::size_t> active;
    active.reserve(devices_.size());
    for (;;) {
        active.clear();
        for (std::size_t i = 0; i < devices_.size(); ++i) {
            if (!done[i])
                active.push_back(i);
        }
        if (active.empty())
            return latest;
        const auto t_sync = epochBoundary(active, limit);
        for (const auto i : active) {
            const auto reached = devices_[i]->advanceUntilIdle(t_sync);
            // A drained device stops at its idle time and sits out the
            // remaining epochs (its posted demand is zero from here on).
            if (devices_[i]->idle() || t_sync >= limit) {
                done[i] = 1;
                latest = std::max(latest, reached);
            }
        }
    }
}

support::SimTime
Simulation::advanceDeviceUntilIdle(std::size_t i, support::SimTime limit)
{
    if (i >= devices_.size())
        support::fatal("Simulation: device index ", i, " out of range (",
                       devices_.size(), " devices)");
    // Every sibling participates: lagging and time-aligned ones ride
    // along to the epoch boundary, and a sibling sitting *ahead* with a
    // transfer still in flight must contribute its completion to the
    // probe (or the target would drain against frozen demand); advanceTo
    // is a no-op for devices already past t_sync.
    while (!devices_[i]->idle() && devices_[i]->localNow() < limit) {
        const auto t_sync = epochBoundary(all_devices_, limit);
        for (std::size_t j = 0; j < devices_.size(); ++j) {
            if (j == i)
                devices_[j]->advanceUntilIdle(t_sync);
            else
                devices_[j]->advanceTo(t_sync);
        }
    }
    return devices_[i]->localNow();
}

GpuDevice&
Simulation::device(std::size_t i)
{
    if (i >= devices_.size())
        support::fatal("Simulation: device index ", i, " out of range (",
                       devices_.size(), " devices)");
    return *devices_[i];
}

const GpuDevice&
Simulation::device(std::size_t i) const
{
    if (i >= devices_.size())
        support::fatal("Simulation: device index ", i, " out of range (",
                       devices_.size(), " devices)");
    return *devices_[i];
}

}  // namespace fingrav::sim
