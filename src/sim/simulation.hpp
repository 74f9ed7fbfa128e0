#ifndef FINGRAV_SIM_SIMULATION_HPP_
#define FINGRAV_SIM_SIMULATION_HPP_

/**
 * @file
 * Top-level container of a simulated node.
 *
 * Owns the GPUs of one node, the shared-fabric bandwidth arbiter that
 * couples them during collectives, the host-visible CPU clock domain, the
 * master event queue for scheduled host callbacks, and the root RNG from
 * which every stochastic component forks a private stream.  The runtime
 * layer (src/runtime/) drives this object; nothing here knows about
 * kernels or profiling methodology.
 *
 * Node stepping is epoch-driven: between two fabric-demand changes (a
 * collective starting or completing anywhere on the node) devices are
 * independent, so advanceAllTo advances them in epochs — poll demand,
 * commit the fabric view, advance every device to the earliest next
 * fabric event — optionally in parallel (MachineConfig::advance_threads).
 * The committed fabric view is immutable within an epoch and every device
 * touches only its own state, so the parallel path is bit-identical to
 * the serial one (docs/ARCHITECTURE.md).  The parallel path batches the
 * whole epoch loop into one thread-pool dispatch (ThreadPool::roundLoop):
 * the poll/commit/probe leader section runs exclusively between rounds,
 * so fine-grained epochs no longer pay a job submission handshake each.
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/clock_domain.hpp"
#include "sim/event_queue.hpp"
#include "sim/fabric.hpp"
#include "sim/gpu_device.hpp"
#include "sim/machine_config.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace fingrav::sim {

/** A simulated multi-GPU node plus host clock and event queue. */
class Simulation {
  public:
    /**
     * @param cfg      Machine description applied to every GPU.
     * @param seed     Root seed; all randomness derives from it.
     * @param devices  GPU count (cfg.node_gpus when 0).
     */
    Simulation(const MachineConfig& cfg, std::uint64_t seed,
               std::size_t devices = 0);

    Simulation(const Simulation&) = delete;
    Simulation& operator=(const Simulation&) = delete;

    /** GPU by index. */
    GpuDevice& device(std::size_t i);
    const GpuDevice& device(std::size_t i) const;

    /**
     * Advance every device to `master` in fabric epochs (devices behind
     * the target step; devices already past it are untouched).  Node-level
     * sweeps use this instead of per-device advanceTo calls: it is the
     * path that models shared-fabric contention between devices and, with
     * advance_threads > 1, advances devices concurrently between epochs.
     */
    void advanceAllTo(support::SimTime master);

    /**
     * Advance every device until it drains or `limit` is reached, in
     * fabric epochs.
     *
     * @return The latest master time any device went idle (or `limit`).
     */
    support::SimTime advanceAllUntilIdle(support::SimTime limit);

    /**
     * Advance the node in fabric epochs until device `i` drains or
     * `limit` is reached.  Sibling devices ride along to each epoch
     * boundary so their fabric demand stays current — the coupled
     * equivalent of GpuDevice::advanceUntilIdle, used by the runtime's
     * synchronize while collectives are in flight.
     *
     * @return The master time device `i` went idle (or `limit`).
     */
    support::SimTime advanceDeviceUntilIdle(std::size_t i,
                                            support::SimTime limit);

    /** Number of GPUs in the node. */
    std::size_t deviceCount() const { return devices_.size(); }

    /** The shared node-fabric bandwidth arbiter. */
    NodeFabric& fabric() { return fabric_; }
    const NodeFabric& fabric() const { return fabric_; }

    /** Override the advanceAllTo thread budget (1 = serial). */
    void setAdvanceThreads(std::size_t threads);

    /** Thread budget in force for node stepping. */
    std::size_t advanceThreads() const { return advance_threads_; }

    /** The CPU (host) clock domain: ns resolution, no drift vs master. */
    const ClockDomain& cpuClock() const { return cpu_clock_; }

    /** Host-side timed-callback queue. */
    EventQueue& events() { return events_; }

    /** Machine description in force. */
    const MachineConfig& config() const { return cfg_; }

    /** Fork an independent RNG stream for a named consumer. */
    support::Rng forkRng(std::uint64_t stream_id) { return root_rng_.fork(stream_id); }

  private:
    /**
     * One coupled epoch over `active` devices: poll demand, commit the
     * fabric view, probe the earliest next fabric event (capped at
     * `limit`), and return that epoch boundary.
     */
    support::SimTime epochBoundary(const std::vector<std::size_t>& active,
                                   support::SimTime limit);

    /**
     * Drive an epoch loop: `leader` runs exclusively between rounds (poll
     * demand, commit, probe the epoch boundary) and returns the item
     * count of the next round (0 = done); `item(k)` advances one device.
     * Serial in place when advance_threads <= 1, one batched pool
     * dispatch otherwise — identical epoch schedule either way.
     */
    template <class Leader, class Item>
    void runEpochs(const Leader& leader, const Item& item);

    MachineConfig cfg_;
    support::Rng root_rng_;
    ClockDomain cpu_clock_;
    EventQueue events_;
    NodeFabric fabric_;  ///< must outlive devices_ (devices hold a pointer)
    std::vector<std::unique_ptr<GpuDevice>> devices_;
    std::vector<std::size_t> all_devices_;  ///< 0 .. deviceCount() - 1
    std::size_t advance_threads_;
    std::unique_ptr<support::ThreadPool> pool_;
};

}  // namespace fingrav::sim

#endif  // FINGRAV_SIM_SIMULATION_HPP_
