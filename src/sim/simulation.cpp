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
      devices_(),
      advance_threads_(std::max<std::size_t>(1, cfg.advance_threads))
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

void
Simulation::setAdvanceThreads(std::size_t threads)
{
    advance_threads_ = std::max<std::size_t>(1, threads);
    if (pool_ != nullptr && pool_->threads() != advance_threads_)
        pool_.reset();
}

template <class Leader, class Item>
void
Simulation::runEpochs(const Leader& leader, const Item& item)
{
    // Serial stepping runs the loop in place: an advance call then pays
    // neither the pool nor a std::function wrapper per callable.
    if (advance_threads_ <= 1) {
        while (const std::size_t n = leader()) {
            for (std::size_t k = 0; k < n; ++k)
                item(k);
        }
        return;
    }
    // Batched dispatch: the whole epoch loop runs inside one pool job —
    // the leader section (poll, commit, probe) runs exclusively between
    // rounds — instead of paying the job submission/wake handshake per
    // epoch.  The epoch schedule is identical for every thread count, so
    // results are bit-identical.
    if (pool_ == nullptr)
        pool_ = std::make_unique<support::ThreadPool>(advance_threads_);
    pool_->roundLoop(leader, item);
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
    support::SimTime t_sync;
    runEpochs(
        [&]() -> std::size_t {
            behind.clear();
            for (std::size_t i = 0; i < devices_.size(); ++i) {
                if (devices_[i]->localNow() < master)
                    behind.push_back(i);
            }
            if (behind.empty())
                return 0;
            t_sync = epochBoundary(behind, master);
            return behind.size();
        },
        [&](std::size_t k) { devices_[behind[k]]->advanceTo(t_sync); });
}

support::SimTime
Simulation::advanceAllUntilIdle(support::SimTime limit)
{
    auto latest = support::SimTime::fromNanos(0);
    std::vector<char> done(devices_.size(), 0);
    std::vector<support::SimTime> reached(devices_.size());
    std::vector<std::size_t> active;
    active.reserve(devices_.size());
    support::SimTime t_sync;
    bool first = true;
    runEpochs(
        [&]() -> std::size_t {
            if (!first) {
                for (const auto i : active) {
                    // A drained device stops at its idle time and sits out
                    // the remaining epochs (its posted demand is zero from
                    // here on).
                    if (devices_[i]->idle() || t_sync >= limit) {
                        done[i] = 1;
                        latest = std::max(latest, reached[i]);
                    }
                }
            }
            first = false;
            active.clear();
            for (std::size_t i = 0; i < devices_.size(); ++i) {
                if (!done[i])
                    active.push_back(i);
            }
            if (active.empty())
                return 0;
            t_sync = epochBoundary(active, limit);
            return active.size();
        },
        [&](std::size_t k) {
            reached[active[k]] = devices_[active[k]]->advanceUntilIdle(t_sync);
        });
    return latest;
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
    support::SimTime t_sync;
    runEpochs(
        [&]() -> std::size_t {
            if (devices_[i]->idle() || devices_[i]->localNow() >= limit)
                return 0;
            t_sync = epochBoundary(all_devices_, limit);
            return devices_.size();
        },
        [&](std::size_t j) {
            if (j == i)
                devices_[j]->advanceUntilIdle(t_sync);
            else
                devices_[j]->advanceTo(t_sync);
        });
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
