#ifndef FINGRAV_KERNELS_COLLECTIVE_HPP_
#define FINGRAV_KERNELS_COLLECTIVE_HPP_

/**
 * @file
 * RCCL-like collective-communication kernel model.
 *
 * Prices ring all-gather and all-reduce across the node fabric
 * (sim::FabricModel) and reports the power-relevant utilization signature
 * the paper measures in Fig. 10: negligible XCD load (slightly higher for
 * all-reduce, which runs reduction math), heavy Infinity-Fabric (and hence
 * IOD) utilization for bandwidth-bound sizes, and substantial HBM traffic
 * from the chunked ring pipeline (payload is read, staged and written
 * several times per hop — kChunkTrafficFactor).
 *
 * Latency- vs bandwidth-bound classification follows the paper's
 * Section V-A definition: a size is latency-bound while total latency does
 * not yet grow commensurately with payload, i.e. while the alpha
 * (per-hop/setup) term dominates the beta (bandwidth) term.
 *
 * The produced KernelWork is tagged as one shared-node-fabric transfer
 * (KernelWork::fabric_group): when several collectives run concurrently on
 * a node, sim::NodeFabric fair-shares bandwidth between them, stretching
 * completion and saturating the links — contended phases run longer at
 * higher IOD power than the same collectives back-to-back.
 */

#include <string>

#include "kernels/kernel_model.hpp"
#include "sim/fabric.hpp"
#include "sim/machine_config.hpp"
#include "support/units.hpp"

namespace fingrav::kernels {

/** Supported collective operations. */
enum class CollectiveOp {
    kAllGather,
    kAllReduce,
};

/** Printable name ("AG"/"AR"). */
const char* toString(CollectiveOp op);

/** Latency- vs bandwidth-bound classification (paper Section V-A). */
enum class CollectiveBoundedness {
    kLatencyBound,
    kBandwidthBound,
};

/** Printable name. */
const char* toString(CollectiveBoundedness b);

/** Ring-collective cost model (see file comment). */
class CollectiveKernel : public KernelModel {
  public:
    /**
     * @param op     Operation.
     * @param bytes  Payload size (> 0; fatal otherwise).
     * @param cfg    Machine description (copied; fabric fields used).
     */
    CollectiveKernel(CollectiveOp op, support::Bytes bytes,
                     const sim::MachineConfig& cfg);

    sim::KernelWork workAt(double warmth) const override;

    /** Communication kernels have no meaningful FLOP:byte ratio. */
    double opsPerByte() const override { return 0.0; }

    /** Collectives run on every GPU of the node. */
    bool isCollective() const override { return true; }

    /** The operation. */
    CollectiveOp op() const { return op_; }

    /** Payload bytes. */
    support::Bytes bytes() const { return bytes_; }

    /** Latency- vs bandwidth-bound at this size. */
    CollectiveBoundedness boundedness() const;

    /** Fraction of total time spent in the alpha (latency) term. */
    double alphaShare() const;

  private:
    /** End-to-end duration from the fabric model. */
    support::Duration baseDuration() const;

    /** "AG-"/"AR-" and the payload in the largest whole decimal unit. */
    std::string formatLabel() const;

    CollectiveOp op_;
    support::Bytes bytes_;
    sim::MachineConfig cfg_;
    sim::FabricModel fabric_;
};

}  // namespace fingrav::kernels

#endif  // FINGRAV_KERNELS_COLLECTIVE_HPP_
