#ifndef FINGRAV_SIM_FABRIC_HPP_
#define FINGRAV_SIM_FABRIC_HPP_

/**
 * @file
 * Infinity-Fabric-style node interconnect: pricing model and shared-node
 * bandwidth arbiter.
 *
 * The paper's node is an 8x MI300X Infinity Platform: every GPU connects to
 * the seven others with 64 GB/s unidirectional links (Section II-A).  RCCL
 * runs ring collectives across these links; FabricModel prices an
 * N-GPU ring collective with the standard alpha-beta formulation:
 *
 *   all-gather:  t = steps * hop_latency + (N-1)/N * size / achievable_bw
 *   all-reduce:  reduce-scatter + all-gather (2x the data volume) plus a
 *                small per-element reduction cost on the XCDs
 *
 * where achievable_bw aggregates all outbound links at a tunable
 * efficiency.  Latency- vs bandwidth-bound classification (Section V-A)
 * falls out of the same formula: a size is latency-bound while the
 * alpha term dominates.
 *
 * NodeFabric is the node-level *resource* built on top of that pricing: a
 * ring collective already saturates the aggregate of a GPU's links, so
 * concurrent transfers share the same wires.  Each device registers the
 * bandwidth demand of its running node-fabric kernels (keyed by the
 * transfer id, KernelWork::fabric_group, so the per-device copies of one
 * collective are counted once); when the distinct-transfer demand total
 * exceeds capacity, every participant's progress stretches by the
 * oversubscription factor (fair share) and the links run saturated —
 * longer, hotter collectives, exactly the contended-phase power signature
 * the paper's Fig. 10 analysis builds on.  Demand changes are published in
 * *epochs* committed by Simulation between stepping barriers, which keeps
 * device advancement order-independent (docs/ARCHITECTURE.md).
 */

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "support/time_types.hpp"
#include "support/units.hpp"

namespace fingrav::sim {

struct MachineConfig;

/** Node-level collective cost model over the GPU-to-GPU fabric. */
class FabricModel {
  public:
    /**
     * @param gpus            Participating GPUs (ring size).
     * @param links_per_gpu   Outbound links usable by concurrent rings.
     * @param link_bandwidth  Unidirectional bandwidth per link, B/s.
     */
    FabricModel(std::size_t gpus, std::size_t links_per_gpu,
                support::BytesPerSecond link_bandwidth);

    /** Build from a machine description (node fields). */
    static FabricModel fromConfig(const MachineConfig& cfg);

    /** End-to-end all-gather time for `bytes` of payload per GPU result. */
    support::Duration allGatherTime(support::Bytes bytes) const;

    /** End-to-end all-reduce time for `bytes` of payload. */
    support::Duration allReduceTime(support::Bytes bytes) const;

    /** Aggregate achievable bandwidth across rings, B/s. */
    support::BytesPerSecond achievableBandwidth() const;

    /** Fabric utilization fraction during a transfer moving bytes/t. */
    double utilization(support::Bytes bytes, support::Duration t) const;

    /** Per-ring-step latency (software + SerDes + switch traversal). */
    support::Duration hopLatency() const { return hop_latency_; }

    /** Fixed collective setup latency (kernel launch, channel setup). */
    support::Duration baseLatency() const { return base_latency_; }

    /** Ring size. */
    std::size_t gpus() const { return gpus_; }

  private:
    std::size_t gpus_;
    std::size_t links_per_gpu_;
    support::BytesPerSecond link_bandwidth_;
    double efficiency_ = 0.78;  ///< achieved fraction of aggregate link bw
    support::Duration hop_latency_ = support::Duration::micros(2.2);
    support::Duration base_latency_ = support::Duration::micros(7.0);
};

/** One transfer's registered demand on the shared node fabric. */
struct FabricDemand {
    std::uint64_t group = 0;  ///< transfer id (KernelWork::fabric_group)
    double demand = 0.0;      ///< fraction of per-GPU achievable fabric bw

    bool operator==(const FabricDemand&) const = default;
};

/**
 * Node-level shared-fabric bandwidth arbiter (owned by Simulation).
 *
 * Devices post the demand of their running node-fabric kernels into a
 * per-device *pending* slot (postDemand) whenever that list changes;
 * Simulation copies pending to the *committed* view at epoch barriers
 * (commit), comparing only the slots posted since the last commit and
 * bumping the epoch counter when anything changed.  Between commits the
 * committed view is immutable, so every device advancing within an epoch
 * prices against the same snapshot and the result does not depend on
 * the order devices advance in.
 *
 * Single-threaded by construction: a node steps on the thread that runs
 * its campaign, so the arbiter shares nothing and locks nothing.
 */
class NodeFabric {
  public:
    /**
     * @param cfg      Machine description (fabric fields; the pricing
     *                 model is available when cfg.node_gpus >= 2).
     * @param devices  Instantiated GPU count (demand-slot count; may be
     *                 smaller than cfg.node_gpus for single-GPU sims).
     */
    NodeFabric(const MachineConfig& cfg, std::size_t devices);

    NodeFabric(const NodeFabric&) = delete;
    NodeFabric& operator=(const NodeFabric&) = delete;

    /** Fresh transfer id (> 0) for one inter-GPU transfer. */
    std::uint64_t allocGroup() { return next_group_++; }

    /** A node-fabric kernel entered a device queue. */
    void noteSubmitted() { ++outstanding_; }

    /** A node-fabric kernel completed. */
    void noteRetired() { --outstanding_; }

    /**
     * True while any node-fabric kernel is queued or running anywhere,
     * or host-injected background demand is active — the runtime routes
     * per-device synchronization through the coupled node stepper while
     * this holds.
     */
    bool coupled() const { return outstanding_ > 0 || injected_; }

    /** Replace `device`'s pending demand list (its running transfers). */
    void postDemand(std::size_t device,
                    const std::vector<FabricDemand>& demands);

    /**
     * Replace the host-injected background demand (scenario-layer
     * environment pressure; runtime/background_channel.hpp).  Injected
     * transfers occupy a dedicated arbiter slot beyond the device slots
     * and participate in the distinct-transfer total exactly like remote
     * kernels' demand.  Host-thread-only, between advances; published at
     * the next epoch commit.
     */
    void injectDemand(const std::vector<FabricDemand>& demands);

    /**
     * Total node demand seen by `device`: its own (live, uncommitted)
     * demands plus the committed demands of other devices, counting each
     * distinct transfer once — remote copies of a transfer the device
     * itself runs are the same bytes and are skipped.  When every
     * committed transfer is one of the device's own (a lone collective),
     * that is the own total, returned without scanning the slots.
     */
    double sharedDemand(std::size_t device,
                        const std::vector<FabricDemand>& own) const;

    /** Publish pending demands; returns true (and bumps the epoch) on change. */
    bool commit();

    /** Committed-view version; devices re-price contention when it moves. */
    std::uint64_t epoch() const { return epoch_; }

    /** Committed distinct-transfer demand total (tests/introspection). */
    double nodeDemand() const;

    /** Fair-share slowdown of node-fabric transfers at committed demand. */
    double stretch() const;

    /** Per-kernel pricing model (absent when cfg.node_gpus < 2). */
    const std::optional<FabricModel>& model() const { return model_; }

  private:
    /**
     * Distinct-transfer demand total: `own` plus the committed demands
     * of every device except `exclude_device`, each group counted once.
     */
    double distinctDemand(std::size_t exclude_device,
                          const std::vector<FabricDemand>& own) const;

    std::optional<FabricModel> model_;
    std::size_t devices_ = 0;  ///< device slot count (slot devices_ = injection)
    std::vector<std::vector<FabricDemand>> pending_;
    /** Slots posted since the last commit. */
    std::vector<char> posted_;
    std::vector<std::vector<FabricDemand>> committed_;
    /** Distinct transfer ids in the committed view. */
    std::vector<std::uint64_t> committed_groups_;
    std::uint64_t epoch_ = 0;
    std::uint64_t next_group_ = 1;
    std::int64_t outstanding_ = 0;
    bool injected_ = false;  ///< host-injected demand pending/active
    /** distinctDemand's seen-list; keeps its capacity across calls. */
    mutable std::vector<std::uint64_t> seen_;
};

}  // namespace fingrav::sim

#endif  // FINGRAV_SIM_FABRIC_HPP_
