#ifndef FINGRAV_RUNTIME_HOST_RUNTIME_HPP_
#define FINGRAV_RUNTIME_HOST_RUNTIME_HPP_

/**
 * @file
 * HIP-like host runtime over the simulated node.
 *
 * Everything the FinGraV instrumentation does on real hardware happens
 * through this API: timing kernels from the CPU side, reading the GPU
 * timestamp counter (with its benchmarkable round-trip delay — tenet S2),
 * starting/stopping the power logger around a run, sleeping random delays
 * between runs, and launching kernels.
 *
 * The runtime owns the host's position on the master time axis (the "CPU
 * thread"); every API call costs simulated time the way a real call costs
 * wall time.  CPU-visible timestamps are readings of the CPU clock domain
 * (arbitrary epoch), *not* master time — profiling code upstream never
 * sees master time, exactly as real tooling never sees a global clock.
 * Oracle accessors (masterNow, device execution logs) exist for tests and
 * error analysis only and are clearly named.
 */

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "runtime/background_channel.hpp"
#include "sim/gpu_device.hpp"
#include "sim/kernel_work.hpp"
#include "sim/power_logger.hpp"
#include "sim/simulation.hpp"
#include "support/rng.hpp"
#include "support/time_types.hpp"

namespace fingrav::runtime {

/** Result of a CPU-side GPU-timestamp-counter read. */
struct TimestampRead {
    std::int64_t gpu_counter = 0;   ///< counter value (ticks)
    std::int64_t cpu_before_ns = 0; ///< CPU clock just before the read call
    std::int64_t cpu_after_ns = 0;  ///< CPU clock just after it returned
};

/** CPU-observed bounds of one kernel execution. */
struct HostTiming {
    std::int64_t cpu_start_ns = 0;  ///< CPU clock when execution began
    std::int64_t cpu_end_ns = 0;    ///< CPU clock at observed completion

    /** CPU-measured execution time. */
    support::Duration
    duration() const
    {
        return support::Duration::nanos(cpu_end_ns - cpu_start_ns);
    }
};

/** Host-side driver of a simulated multi-GPU node. */
class HostRuntime {
  public:
    /**
     * @param sim  The node; must outlive the runtime.
     * @param rng  Host-private randomness (call-latency jitter, etc).
     */
    HostRuntime(sim::Simulation& sim, support::Rng rng);

    HostRuntime(const HostRuntime&) = delete;
    HostRuntime& operator=(const HostRuntime&) = delete;

    // ------------------------------------------------------------------
    // Host time
    // ------------------------------------------------------------------

    /** Read the CPU clock (costs a small amount of simulated time). */
    std::int64_t cpuNowNs();

    /** Block the host thread for `d`. */
    void sleep(support::Duration d);

    // ------------------------------------------------------------------
    // Kernel execution
    // ------------------------------------------------------------------

    /**
     * Asynchronously launch a kernel.
     *
     * Costs the host the launch-call time; the kernel becomes ready on the
     * device after the configured launch overhead.
     *
     * @return Device execution id (matches GpuDevice::ExecutionRecord::id).
     */
    std::uint64_t launch(const sim::KernelWork& work, std::size_t device = 0,
                         std::size_t queue = 0);

    /**
     * Launch the same work on every device simultaneously (collectives).
     *
     * @return Execution id on device 0.
     */
    std::uint64_t launchOnAllDevices(const sim::KernelWork& work,
                                     std::size_t queue = 0);

    /**
     * Block until `device` drains; host time advances to completion.
     * While node-fabric transfers are outstanding (collectives in
     * flight), the drain steps the whole node in fabric epochs so
     * shared-fabric contention is priced from live sibling demand.
     */
    void synchronize(std::size_t device = 0);

    /** Block until every device drains. */
    void synchronizeAll();

    /**
     * Catch every device up to the host present in one batched loop —
     * node-scale sweeps use this instead of per-device catch-up calls.
     */
    void advanceAllDevices();

    /**
     * Launch + synchronize with CPU-side timing instrumentation — the
     * paper's step-2 "timing the kernel start/end" measurement.  The
     * returned bounds carry launch/sync overhead and CPU timer noise, as
     * on real hardware.
     */
    HostTiming timedRun(const sim::KernelWork& work, std::size_t device = 0);

    /**
     * timedRun for a collective: launch on every device, synchronize
     * `device` and time it there, as the paper does for node-wide runs.
     */
    HostTiming timedRunOnAllDevices(const sim::KernelWork& work,
                                    std::size_t device = 0);

    // ------------------------------------------------------------------
    // Background-launch channel (scenario environments)
    // ------------------------------------------------------------------

    /**
     * Arm the background-launch channel with compiled streams (see
     * fingrav/scenario.hpp).  The channel is a deterministic environment
     * driver: events fire at their scheduled master times, interleaved
     * with foreground drains, off the dedicated `rng` stream.  Empty
     * stream lists are a no-op, so an isolated scenario's runtime is
     * bitwise indistinguishable from a pre-scenario one.  May be armed
     * at most once, before any background event is due.
     */
    void armBackground(std::vector<BackgroundStream> streams,
                       support::Rng rng);

    /** True when a background channel is armed. */
    bool backgroundArmed() const { return background_ != nullptr; }

    /**
     * Background-active CPU-clock intervals overlapping [from_ns, to_ns]
     * (merged, ascending); empty without an armed channel.  This is the
     * contention-state record the stitcher annotates LOIs with.
     */
    std::vector<std::pair<std::int64_t, std::int64_t>>
    backgroundActiveCpuIntervals(std::int64_t from_ns, std::int64_t to_ns);

    // ------------------------------------------------------------------
    // GPU timestamp counter (tenet S2)
    // ------------------------------------------------------------------

    /** Read the GPU timestamp counter from the host (round-trip delay). */
    TimestampRead readGpuTimestamp(std::size_t device = 0);

    /**
     * Estimate the timestamp read delay by timing `iterations`
     * back-to-back reads — the paper's "separately benchmark the delay".
     */
    support::Duration benchmarkTimestampReadDelay(std::size_t device = 0,
                                                  std::size_t iterations = 64);

    // ------------------------------------------------------------------
    // Power logging (tenet S1)
    // ------------------------------------------------------------------

    /**
     * Start capturing power samples on `device` through a logger with the
     * given averaging window (window <= 0 selects the machine default of
     * 1 ms).  A device may run several loggers with distinct windows
     * concurrently — the multi-window capture RecordedCampaign's window
     * sweeps restitch from; the logger for a window is created on first
     * use and persists for the device lifetime.
     */
    void startPowerLog(std::size_t device = 0,
                       support::Duration window = support::Duration());

    /**
     * Stop a capture and return the samples accumulated since start.
     *
     * @param window  Which logger to stop; <= 0 addresses the single
     *                capturing logger (fatal when several are capturing —
     *                multi-window captures must address each by window).
     */
    sim::SampleColumns
    stopPowerLog(std::size_t device = 0,
                 support::Duration window = support::Duration());

    /** GPU timestamp-counter tick length (public hardware knowledge). */
    support::Duration
    timestampTick(std::size_t device = 0) const
    {
        return sim_.device(device).gpuClock().tick();
    }

    /**
     * The averaging window of the device's *primary* power logger — the
     * first one created on `device`, or the machine default when none
     * exists yet.  Energy integration over returned samples must use
     * this, not the config default.
     */
    support::Duration
    powerLogWindow(std::size_t device = 0) const
    {
        return !loggers_[device].empty() ? loggers_[device].front()->window()
                                         : sim_.config().logger_window;
    }

    // ------------------------------------------------------------------
    // Oracle accessors — tests & error analysis only
    // ------------------------------------------------------------------

    /** The host's true position on the master axis. */
    support::SimTime masterNow() const { return cpu_now_; }

    /** Exact device-side execution records. */
    const std::vector<sim::GpuDevice::ExecutionRecord>&
    deviceExecutionLog(std::size_t device = 0) const
    {
        return sim_.device(device).executionLog();
    }

    /** Translate a master time into the CPU clock (oracle). */
    std::int64_t cpuClockAt(support::SimTime master) const;

    /** Underlying simulation. */
    sim::Simulation& simulation() { return sim_; }

  private:
    /**
     * Advance a device's state up to the host present (the whole node
     * when fabric-coupled — see synchronize).  `pump_background` is
     * false only inside synchronizeAll's no-pump drains, so an idle
     * device's catch-up there cannot feed the channel either.
     */
    void catchUpDevice(std::size_t device, bool pump_background = true);

    /**
     * Drain one device.  With `pump_background`, the drain is split at
     * background due times so environment events land mid-drain (the
     * per-execution synchronize); without, the device drains against the
     * already-submitted environment only (the end-of-run synchronizeAll
     * — the environment never drains, so feeding it there would never
     * terminate).
     */
    void synchronizeImpl(std::size_t device, bool pump_background);

    /** Fire background events due at or before `horizon` (if armed). */
    void pumpBackground(support::SimTime horizon);

    /** CPU clock reading for the current host time. */
    std::int64_t readCpuClock() const;

    /** Logger for (device, window), created on first use; null = absent. */
    sim::PowerLogger* findLogger(std::size_t device,
                                 support::Duration window) const;

    sim::Simulation& sim_;
    support::Rng rng_;
    support::SimTime cpu_now_;
    /** Per device: loggers in creation order (front = primary window). */
    std::vector<std::vector<sim::PowerLogger*>> loggers_;
    /** Scenario environment driver; null = no background (legacy path). */
    std::unique_ptr<BackgroundChannel> background_;
};

}  // namespace fingrav::runtime

#endif  // FINGRAV_RUNTIME_HOST_RUNTIME_HPP_
