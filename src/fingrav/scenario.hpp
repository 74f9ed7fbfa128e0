#ifndef FINGRAV_FINGRAV_SCENARIO_HPP_
#define FINGRAV_FINGRAV_SCENARIO_HPP_

/**
 * @file
 * Declarative profiling scenarios: foreground kernel + environment.
 *
 * The paper profiles every kernel in isolation, but per-phase SSP
 * visibility is most valuable exactly when phases *interact*: a
 * collective stretched by competing fabric traffic changes shape in ways
 * isolated profiling cannot see.  A ScenarioSpec describes one profiling
 * campaign *and the environment it runs in*: the foreground kernel taken
 * through the nine-step methodology, plus any number of BackgroundLoads
 * — kernels executing on other devices of the node, or raw bandwidth
 * demand injected on the shared node fabric — with phase/offset/
 * duty-cycle scheduling.  The campaign engine (CampaignNode,
 * CampaignRunner, RecordedCampaign) builds nodes from scenarios; the
 * classic isolated campaign is simply a scenario with an empty
 * background list, whose node is bitwise the hand-built
 * Simulation + HostRuntime + Profiler of streams 7 and 8
 * (tests/scenario_test.cpp).
 *
 * Determinism: background launches are driven by the runtime's
 * background channel off a dedicated root-RNG stream (stream 9; the
 * runtime holds 7 and the profiler 8), so a scenario's trajectory stays
 * a pure function of (spec, machine config) — bit-identical for any
 * CampaignRunner thread count, any spec order and any completion order.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "fingrav/profiler.hpp"
#include "runtime/background_channel.hpp"
#include "support/time_types.hpp"

namespace fingrav::sim {
class Simulation;
}

namespace fingrav::core {

/** What kind of environment load a BackgroundLoad schedules. */
enum class BackgroundKind {
    /**
     * Kernel executions on a background device.  A collective label
     * (e.g. "AR-512MB") runs as one inter-GPU *transfer* submitted on
     * `device` with its own transfer id per launch — the configurable
     * background traffic that contends the shared node fabric with the
     * foreground collective.  Compute labels model busy co-tenants.
     */
    kKernel,
    /**
     * Raw bandwidth demand injected on the node fabric (no kernel):
     * `demand` is posted as a distinct transfer for the active span of
     * each cycle.  The cheapest way to model external fabric pressure.
     */
    kFabricDemand,
};

/** Printable kind name. */
const char* toString(BackgroundKind kind);

/**
 * One scheduled environment load of a scenario.
 *
 * Scheduling: cycle k starts at scenario time `offset + k * period` and
 * is active for `duty_cycle * period`.  Kernel loads queue enough
 * launches per cycle (back-to-back in one device queue) to occupy
 * roughly the active span; demand loads hold the injected demand for
 * exactly the active span.  `period <= 0` declares a one-shot load: a
 * single burst for kernels, an always-on injection for demand loads.
 * Cycle starts falling inside an end-of-run drain slip to the next host
 * interaction (runtime/background_channel.hpp).
 */
struct BackgroundLoad {
    BackgroundKind kind = BackgroundKind::kKernel;
    /** Paper kernel label (kKernel; see kernels::kernelByLabel). */
    std::string kernel;
    /** Fraction of one GPU's achievable fabric bandwidth (kFabricDemand). */
    double demand = 0.5;
    /** Executing device (kKernel).  May equal the profiled device to
     *  model a co-located tenant; continuous same-device loads will trip
     *  the synchronize watchdog. */
    std::size_t device = 1;
    /** Device queue; a non-zero default keeps background work concurrent
     *  with (not serialized behind) foreground copies on the device. */
    std::size_t queue = 1;
    /** Phase offset of cycle 0 from scenario start. */
    support::Duration offset;
    /** Cycle length; <= 0 = one-shot (see above). */
    support::Duration period;
    /** Active fraction of each cycle, in (0, 1]. */
    double duty_cycle = 1.0;
    /** Number of cycles; 0 = repeat for the whole campaign. */
    std::size_t cycles = 0;
    /** Per-launch lognormal duration jitter sigma; < 0 = machine default
     *  (kKernel only). */
    double jitter_sigma = -1.0;
};

/**
 * One declarative profiling scenario, plain data: the unified spec type
 * every figure/table bench rides, and the unit the codec serializes
 * whole (fingrav/codec.hpp) for the fleet wire and the cache key.  The
 * paper's baselines are ProfilerOptions settings (fingrav/profiler.hpp).
 */
struct ScenarioSpec {
    std::string label;          ///< foreground kernel label
    std::uint64_t seed = 1;     ///< root seed; scenarios are bit-reproducible
    ProfilerOptions opts;       ///< methodology knobs
    /** GPUs to instantiate; 0 = auto (full node for collectives or when
     *  any background load needs one, 1 GPU otherwise). */
    std::size_t devices = 0;
    /** Environment loads active while the foreground is profiled. */
    std::vector<BackgroundLoad> background;
};

/**
 * Compile a scenario's background loads into runtime background streams
 * for `sim` (labels resolved, bursts sized, devices validated).  Empty
 * when the scenario profiles in isolation.
 */
std::vector<runtime::BackgroundStream> buildBackgroundStreams(
    const ScenarioSpec& spec, sim::Simulation& sim);

}  // namespace fingrav::core

#endif  // FINGRAV_FINGRAV_SCENARIO_HPP_
