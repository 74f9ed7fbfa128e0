#ifndef FINGRAV_FINGRAV_CAMPAIGN_RUNNER_HPP_
#define FINGRAV_FINGRAV_CAMPAIGN_RUNNER_HPP_

/**
 * @file
 * Campaign-level execution engine: concurrent multi-scenario profiling.
 *
 * A profiling *campaign* — one scenario taken through the full nine-step
 * methodology on a fresh node — is hermetic: it owns its Simulation, its
 * HostRuntime, its background channel and every RNG stream, all derived
 * from the scenario seed.  Campaigns are therefore embarrassingly
 * parallel (the paper profiles each kernel in isolation; Section IV-B),
 * and every figure/table reproduction is a set of independent scenarios.
 * CampaignRunner owns that spec-order/bit-identity contract and
 * delegates *placement* to a pluggable core::ExecutionBackend
 * (fingrav/execution_backend.hpp): the default ThreadPoolBackend fans
 * specs over a support::ThreadPool, one node per campaign; FleetBackend
 * (fingrav/worker_fleet.hpp) dispatches specs to resident worker
 * processes over the codec wire format.  Either way run() returns
 * ProfileSets in spec order — bit-identical to the serial loop for any
 * thread count, worker count and any completion order, because no state
 * is shared between campaigns and each result lands in its spec's slot.
 *
 * Determinism contract:
 *  - a campaign's entire trajectory is a pure function of (spec, machine
 *    config): Simulation(cfg, seed) owns the root RNG; the runtime forks
 *    stream 7, the profiler stream 8 and the background channel stream 9
 *    (CampaignNode), and the node steps serially on the thread that runs
 *    the campaign;
 *  - the backend only decides *where* a campaign executes, never what
 *    it sees: specs never share a Simulation, a device, a logger or an
 *    Rng (the ExecutionBackend admissibility contract).
 *
 * For sweep studies that re-examine the *same* executions under varied
 * stitch-time parameters, see fingrav/recorded_campaign.hpp.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fingrav/execution_backend.hpp"
#include "fingrav/profiler.hpp"
#include "fingrav/scenario.hpp"
#include "kernels/kernel_model.hpp"
#include "runtime/host_runtime.hpp"
#include "sim/machine_config.hpp"
#include "sim/simulation.hpp"
#include "support/rng.hpp"

namespace fingrav::core {

/**
 * The fresh node of one campaign: kernel, simulation, runtime, armed
 * background channel.
 *
 * This class *is* the bit-identity contract of campaign construction —
 * resolved kernel, auto device count (full node for collectives, enough
 * devices for the background loads, 1 GPU otherwise), runtime RNG = root
 * stream 7, profiler RNG = root stream 8 (profilerRng()), background
 * channel = root stream 9, which arms nothing for a background-free
 * scenario.  A single-GPU compute label therefore builds exactly
 * Simulation(cfg, seed, 1) with HostRuntime(sim, sim.forkRng(7)), so a
 * caller may also profile an explicit kernel (a PhaseSlice, an unlabeled
 * GEMM) on the node of the label it wraps.  Both CampaignRunner::runOne
 * and RecordedCampaign::record build on it, so the live and recorded
 * pipelines cannot drift apart.
 */
class CampaignNode {
  public:
    CampaignNode(const ScenarioSpec& spec, const sim::MachineConfig& cfg);

    const kernels::KernelModelPtr& kernel() const { return kernel_; }
    sim::Simulation& simulation() { return sim_; }
    runtime::HostRuntime& host() { return host_; }

    /** The profiling-side RNG stream (fork once per campaign). */
    support::Rng profilerRng() { return sim_.forkRng(8); }

  private:
    kernels::KernelModelPtr kernel_;
    sim::Simulation sim_;
    runtime::HostRuntime host_;
};

/** Executes independent campaigns through a placement backend. */
class CampaignRunner {
  public:
    /**
     * In-process placement (ThreadPoolBackend).
     *
     * @param threads  Campaign-level concurrency including the calling
     *                 thread; 0 = hardware concurrency, 1 = serial.
     */
    explicit CampaignRunner(std::size_t threads = 0);

    /**
     * Custom placement: any admissible ExecutionBackend (e.g.
     * core::FleetBackend for multi-process execution).
     */
    explicit CampaignRunner(std::shared_ptr<ExecutionBackend> backend);

    /** The placement backend in force. */
    ExecutionBackend& backend() const { return *backend_; }

    /**
     * Attach a content-addressed campaign cache to the backend
     * (fingrav/campaign_cache.hpp): cached specs are served without
     * placement and fresh results are stored.  run() output is unchanged
     * by construction (cached results are bit-identical); null detaches.
     */
    void attachCache(std::shared_ptr<CampaignCache> cache) const
    {
        backend_->attachCache(std::move(cache));
    }

    /**
     * Execute one scenario on a fresh node (serial, on this thread).
     */
    static ProfileSet runOne(const ScenarioSpec& spec,
                             const sim::MachineConfig& cfg =
                                 sim::mi300xConfig());

    /**
     * Execute every scenario through the backend; results are in spec
     * order and bit-identical to running the specs serially, whatever
     * the backend's placement (threads, worker processes, retries).
     */
    std::vector<ProfileSet> run(const std::vector<ScenarioSpec>& specs,
                                const sim::MachineConfig& cfg =
                                    sim::mi300xConfig()) const;

  private:
    std::shared_ptr<ExecutionBackend> backend_;
};

}  // namespace fingrav::core

#endif  // FINGRAV_FINGRAV_CAMPAIGN_RUNNER_HPP_
