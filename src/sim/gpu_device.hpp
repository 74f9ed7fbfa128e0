#ifndef FINGRAV_SIM_GPU_DEVICE_HPP_
#define FINGRAV_SIM_GPU_DEVICE_HPP_

/**
 * @file
 * The simulated GPU: execution engine + power/thermal/DVFS integration.
 *
 * A GpuDevice advances along the master time axis in *stretches*: maximal
 * intervals over which the set of resident kernels, their progress rates
 * and the instantaneous rail power are all constant.  A stretch ends at
 * the earliest of: the exact completion of a running kernel, the next
 * kernel-ready time, a capturing logger's next window-grid boundary, a
 * governor state event (idle park, excursion-hold expiry, boost-budget
 * expiry), the advancement limit, a thermal-feedback bound (power is held
 * constant per stretch while temperature feeds back into leakage power,
 * so a stretch may only run as far as temperature can drift by a small
 * epsilon; the cap loosens as the thermal RC converges), and — while the
 * DVFS governor is actively moving the clock — a bounded integration
 * quantum (MachineConfig::power_step) that preserves the legacy
 * control-loop dynamics.  Per stretch the device evaluates rail power once, feeds the
 * power loggers, steps the governor and thermal models with the exact
 * stretch length (both are exact-exponential and step-size independent),
 * and advances kernel progress analytically.  Idle and steady-state
 * stretches therefore cost one slice instead of thousands, while kernel
 * completions still split time exactly, so recorded execution intervals
 * are nanosecond-accurate (the execution-time binning methodology, tenet
 * S3, depends on measuring genuine sub-percent run-to-run variation).
 *
 * The legacy fixed-quantum engine (SteppingMode::kQuantum, retired after
 * one release as scheduled in ROADMAP.md) replayed the same stretch
 * schedule with a sub-sliced logger feed; the logger's grouping-invariant
 * accounting made both bit-identical, so the retirement changed no
 * output.  tests/stepping_equivalence_test.cpp now locks the event
 * engine against recorded golden outputs instead.
 *
 * Devices advance independently *within a fabric epoch*; the runtime
 * (src/runtime/) aligns them with the host timeline at interaction points
 * (launch, sync, log start), and Simulation's node stepper bounds each
 * advance at the next shared-fabric demand change (a remote collective
 * starting or completing), the fabric-demand stretch terminator.  When
 * attached to a NodeFabric the device posts the demand of its running
 * node-fabric kernels, folds the committed fair-share oversubscription
 * into its contention scalar, and re-prices whenever the fabric epoch
 * moves (docs/ARCHITECTURE.md).
 */

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "sim/clock_domain.hpp"
#include "sim/dvfs_governor.hpp"
#include "sim/fabric.hpp"
#include "sim/kernel_work.hpp"
#include "sim/machine_config.hpp"
#include "sim/power_logger.hpp"
#include "sim/power_model.hpp"
#include "sim/thermal.hpp"
#include "support/rng.hpp"
#include "support/time_types.hpp"

namespace fingrav::sim {

/** One simulated GPU with execution queues, power model and telemetry. */
class GpuDevice {
  public:
    /**
     * @param cfg        Machine description (copied).
     * @param rng        Device-private random stream (clock offset, noise).
     * @param device_id  Position in the node (0-based).
     */
    GpuDevice(const MachineConfig& cfg, support::Rng rng,
              std::size_t device_id);

    GpuDevice(const GpuDevice&) = delete;
    GpuDevice& operator=(const GpuDevice&) = delete;

    /** Completed execution, named by its submit() id, exact bounds. */
    struct ExecutionRecord {
        std::uint64_t id = 0;
        support::SimTime start;  ///< first cycle of execution (master time)
        support::SimTime end;    ///< completion (master time)
        std::size_t queue = 0;
    };

    /** Advancement-cost counters (stepping_equivalence_test,
     *  golden_digest_test and perfbench's sim.stretches read them). */
    struct StepStats {
        /** Constant-power intervals integrated; each feeds every logger
         *  one slice. */
        std::uint64_t stretches = 0;
    };

    /**
     * Enqueue a kernel.
     *
     * @param work      The kernel invocation.
     * @param ready_at  Master time at which it may start (launch overhead
     *                  is applied by the runtime before calling this).
     * @param queue     Hardware queue; kernels in one queue run in order,
     *                  different queues run concurrently (with contention).
     * @return Execution id for matching against executionLog().
     */
    std::uint64_t submit(const KernelWork& work, support::SimTime ready_at,
                         std::size_t queue = 0);

    /** Advance the device state to `master` (never backwards). */
    void advanceTo(support::SimTime master);

    /**
     * Advance until all queues drain or `limit` is reached.
     *
     * @return The exact master time the device went idle (or `limit`).
     */
    support::SimTime advanceUntilIdle(support::SimTime limit);

    // ------------------------------------------------------------------
    // Node-fabric coupling (driven by Simulation's epoch stepper)
    // ------------------------------------------------------------------

    /**
     * Attach the node-level shared-fabric arbiter (Simulation only; must
     * outlive the device).  Unattached devices price fabric contention
     * from local demand alone, as before.
     */
    void attachFabric(NodeFabric* fabric) { fabric_ = fabric; }

    /**
     * Start any ready kernels and post the device's current node-fabric
     * demand, without advancing time.  Called by the node stepper before
     * each fabric commit so demand changes that are already due (starts
     * at the epoch boundary, harvested completions) are visible to it.
     */
    void pollFabricDemand();

    /**
     * Earliest master time at/after which this device's node-fabric
     * demand can change — the next start or completion of a node-fabric
     * kernel at current rates — capped at `limit`.  Refreshes queue state
     * (and fabric pricing) as a side effect; strictly after localNow()
     * whenever the device is behind `limit`.
     */
    support::SimTime nextFabricEvent(support::SimTime limit);

    /** True when nothing is running or queued. */
    bool idle() const;

    /** The device's position on the master time axis. */
    support::SimTime localNow() const { return now_; }

    /** The GPU timestamp-counter clock domain. */
    const ClockDomain& gpuClock() const { return gpu_clock_; }

    /**
     * Attach a power logger with the given averaging window.
     *
     * The device owns the logger; the reference stays valid for the device
     * lifetime.  noise_w < 0 selects the config default.
     */
    PowerLogger& addLogger(support::Duration window, double noise_w = -1.0);

    /** Completed executions in completion order. */
    const std::vector<ExecutionRecord>& executionLog() const
    {
        return execution_log_;
    }

    /** Governor introspection (read-only). */
    const DvfsGovernor& governor() const { return governor_; }

    /** Junction temperature, degrees C. */
    double temperatureC() const { return thermal_.temperature(); }

    /** Instantaneous rail power at the current state. */
    RailPower currentPower() const;

    /** Machine description in force. */
    const MachineConfig& config() const { return cfg_; }

    /** Device id within the node. */
    std::size_t deviceId() const { return device_id_; }

    /** Advancement-cost counters since construction. */
    const StepStats& stepStats() const { return step_stats_; }

  private:
    static constexpr support::SimTime kNever =
        support::SimTime::fromNanos(std::numeric_limits<std::int64_t>::max());

    struct QueueEntry {
        std::uint64_t id;
        KernelWork work;
        support::SimTime ready_at;
        double remaining_s;  ///< nominal-seconds of work left at the anchor
        std::optional<support::SimTime> started;
        /** Progress rate in force since rate_anchor (0 = needs computing). */
        double rate = 0.0;
        /** Progress last harvested into remaining_s at this master time. */
        support::SimTime rate_anchor;
        /** Exact completion time at the current rate. */
        support::SimTime completion_due;
    };

    /**
     * One hardware queue: a FIFO over a vector that keeps its capacity.
     * Kernels stream through a queue a few at a time, where a std::deque
     * would free and reallocate a block every few entries; this buffer
     * drops its consumed prefix when the queue drains (or once the
     * prefix is the larger half) and is reused from then on.
     */
    class HwQueue {
      public:
        bool empty() const { return head_ == items_.size(); }
        QueueEntry& front() { return items_[head_]; }
        const QueueEntry& front() const { return items_[head_]; }
        QueueEntry& emplace_back() { return items_.emplace_back(); }

        void
        pop_front()
        {
            ++head_;
            if (head_ == items_.size()) {
                items_.clear();
                head_ = 0;
            } else if (head_ >= 32 && 2 * head_ >= items_.size()) {
                items_.erase(items_.begin(),
                             items_.begin() +
                                 static_cast<std::ptrdiff_t>(head_));
                head_ = 0;
            }
        }

      private:
        std::vector<QueueEntry> items_;
        std::size_t head_ = 0;  ///< index of the front entry
    };

    /** Aggregate state of the queue fronts, valid while no event fires. */
    struct QueueState {
        bool dirty = true;
        UtilizationVector util;
        double contention = 1.0;
        std::size_t running = 0;
        bool active = false;
    };

    /** Start the queue fronts that are due (none before next_start_). */
    void startReady();

    /** Mark queue state dirty when the fabric epoch moved since last seen. */
    void noteFabricEpoch();

    /** Re-post the running transfers after a node-fabric start/retire. */
    void postFabricDemands();

    /** One pass over the queue fronts: utilization, contention, activity. */
    void refreshQueueState();

    /** Re-anchor progress and completion times of running kernels at `f`. */
    void refreshProgress(double f);

    /** Aggregate utilization and count of running kernels (oracle). */
    UtilizationVector aggregateUtil(std::size_t* running) const;

    /**
     * Earliest capturing-logger window boundary after now_, capped.  Each
     * logger remembers its cut in master time until now_ reaches it, so
     * a stretch pays no clock-domain conversion.
     */
    support::SimTime nextLoggerCut(support::SimTime limit);

    /** Core stepping loop; stops at `limit` or (optionally) on idle. */
    support::SimTime stepLoop(support::SimTime limit, bool stop_on_idle);

    MachineConfig cfg_;
    std::size_t device_id_;
    support::Rng rng_;
    ClockDomain gpu_clock_;
    PowerModel power_;
    DvfsGovernor governor_;
    ThermalModel thermal_;
    NodeFabric* fabric_ = nullptr;        ///< owned by Simulation
    std::uint64_t fabric_epoch_seen_ = 0; ///< last committed view priced
    std::size_t fabric_kernels_ = 0;      ///< queued+running, this device
    /** Running transfers in queue order: the list in this device's
     *  pending fabric slot, unless demands_stale_. */
    std::vector<FabricDemand> fabric_demands_;
    /** A node-fabric front started or retired since the last post. */
    bool demands_stale_ = false;
    /** Fair-share stretch of fabric_demands_ at priced_epoch_, unless a
     *  new list was posted since (price_stale_). */
    double priced_stretch_ = 1.0;
    std::uint64_t priced_epoch_ = 0;
    bool price_stale_ = false;
    /** Clock ratio the front rates were last computed at; NaN = stale
     *  (set whenever the queue state is refreshed). */
    double progress_f_ = std::numeric_limits<double>::quiet_NaN();

    double thermal_cap_num_;  ///< thermal tau (s) x kThermalEpsC (C)

    support::SimTime now_;
    /** Earliest ready time of an unstarted queue front (kNever: none). */
    support::SimTime next_start_ = kNever;
    std::vector<HwQueue> queues_;
    QueueState queue_state_;
    std::vector<ExecutionRecord> execution_log_;
    std::vector<std::unique_ptr<PowerLogger>> loggers_;
    std::uint64_t next_id_ = 1;
    StepStats step_stats_;
};

}  // namespace fingrav::sim

#endif  // FINGRAV_SIM_GPU_DEVICE_HPP_
