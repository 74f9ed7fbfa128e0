#ifndef FINGRAV_SIM_SIMULATION_HPP_
#define FINGRAV_SIM_SIMULATION_HPP_

/**
 * @file
 * Top-level container of a simulated node.
 *
 * Owns the GPUs of one node, the shared-fabric bandwidth arbiter that
 * couples them during collectives, the host-visible CPU clock domain and
 * the root RNG from which every stochastic component forks a private
 * stream.  The runtime layer (src/runtime/) drives this object; nothing
 * here knows about kernels or profiling methodology.
 *
 * Node stepping is epoch-driven: between two fabric-demand changes (a
 * collective starting or completing anywhere on the node) devices are
 * independent, so advanceAllTo advances them in epochs — poll demand,
 * commit the fabric view, advance every device to the earliest next
 * fabric event.  Within an epoch every device reads only its own state
 * and the immutable committed fabric view, so the order in which devices
 * advance cannot change a result.  Stepping is serial on the calling
 * thread: an epoch gives each device a few ~50 ns stretches, far less
 * than one thread hand-off, so campaigns (not devices) are what runs on
 * threads (docs/ARCHITECTURE.md).
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/clock_domain.hpp"
#include "sim/fabric.hpp"
#include "sim/gpu_device.hpp"
#include "sim/machine_config.hpp"
#include "support/rng.hpp"

namespace fingrav::sim {

/** A simulated multi-GPU node plus its host clock. */
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
     * path that models shared-fabric contention between devices.
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

    /** The CPU (host) clock domain: ns resolution, no drift vs master. */
    const ClockDomain& cpuClock() const { return cpu_clock_; }

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

    MachineConfig cfg_;
    support::Rng root_rng_;
    ClockDomain cpu_clock_;
    NodeFabric fabric_;  ///< must outlive devices_ (devices hold a pointer)
    std::vector<std::unique_ptr<GpuDevice>> devices_;
    std::vector<std::size_t> all_devices_;  ///< 0 .. deviceCount() - 1
};

}  // namespace fingrav::sim

#endif  // FINGRAV_SIM_SIMULATION_HPP_
