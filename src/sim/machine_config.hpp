#ifndef FINGRAV_SIM_MACHINE_CONFIG_HPP_
#define FINGRAV_SIM_MACHINE_CONFIG_HPP_

/**
 * @file
 * Static description of the simulated GPU and node.
 *
 * The defaults (mi300xConfig()) model an AMD Instinct MI300X-class part as
 * described in the paper's Section II-A and the CDNA3 whitepaper: 8 XCDs of
 * 38 CUs, 4 IODs with a 256 MB memory-side Infinity Cache, 8 HBM stacks at
 * a combined 5.3 TB/s, and 7 Infinity-Fabric links of 64 GB/s each to the
 * other GPUs of an 8-GPU fully-connected node.  Power numbers are *not* the
 * paper's (it reports only relative power); they are plausible absolute
 * values calibrated so that every relative relationship the paper reports
 * holds (see tests/power_model_test.cpp and bench/bench_table2).
 */

#include <cstddef>

#include "sim/dvfs_governor.hpp"
#include "sim/power_model.hpp"
#include "sim/thermal.hpp"
#include "support/time_types.hpp"
#include "support/units.hpp"

namespace fingrav::sim {

/** Compute/memory/interconnect envelope and simulation knobs of one GPU. */
struct MachineConfig {
    // --- topology (paper Section II-A) ---
    std::size_t num_xcds = 8;          ///< accelerator complex dies
    std::size_t cus_per_xcd = 38;      ///< active compute units per XCD
    std::size_t num_iods = 4;          ///< I/O dies
    std::size_t num_hbm_stacks = 8;    ///< HBM stacks

    // --- capacities / throughputs at boost clock ---
    support::FlopsPerSecond peak_matrix_flops = 1.3e15;  ///< fp16/bf16 MFMA peak
    support::FlopsPerSecond peak_vector_flops = 1.6e14;  ///< fp32 vector peak
    support::BytesPerSecond hbm_bandwidth = 5.3e12;      ///< peak HBM bandwidth
    support::BytesPerSecond llc_bandwidth = 1.7e13;      ///< peak Infinity-Cache bw
    support::Bytes llc_capacity = 256LL * 1024 * 1024;   ///< Infinity Cache
    support::Bytes l2_capacity_per_xcd = 4LL * 1024 * 1024;
    support::Bytes hbm_capacity = 192LL * 1024 * 1024 * 1024;

    // --- node-level fabric (8-GPU Infinity Platform) ---
    std::size_t node_gpus = 8;                            ///< GPUs per node
    std::size_t fabric_links = 7;                         ///< links per GPU
    support::BytesPerSecond fabric_link_bandwidth = 64e9; ///< unidirectional per link

    // --- clocks ---
    double boost_frequency_hz = 2.1e9;   ///< peak XCD engine clock
    double nominal_frequency_hz = 2.1e9; ///< clock at which peaks are quoted
    double idle_frequency_hz = 0.5e9;    ///< clock parked when idle

    /** GPU timestamp-counter resolution (100 MHz counter = 10 ns/tick). */
    support::Duration timestamp_tick = support::Duration::nanos(10);

    /** GPU clock drift vs the CPU clock, parts-per-million. */
    double gpu_clock_drift_ppm = 4.0;

    /**
     * Integration bound while the DVFS governor is actively moving the
     * clock (recovery slew, sustained backoff): stretches are capped at
     * this quantum so the control-loop dynamics stay step-size calibrated.
     * Quiescent stretches integrate in one exact step regardless.
     */
    support::Duration power_step = support::Duration::micros(2.0);

    /** Floor of the thermal-feedback stretch cap (sim/gpu_device.cpp). */
    support::Duration idle_step = support::Duration::micros(50.0);

    /** Default averaging window of the on-GPU power logger (paper: 1 ms). */
    support::Duration logger_window = support::Duration::millis(1.0);

    /** Std-dev of per-sample logger measurement noise, watts per rail. */
    double logger_noise_w = 1.2;

    /** Host-visible kernel-launch overhead (enqueue to start of execution). */
    support::Duration launch_overhead = support::Duration::micros(2.5);

    /** Host synchronization return latency after kernel completion. */
    support::Duration sync_overhead = support::Duration::micros(2.0);

    /** GPU timestamp read round-trip latency from the host. */
    support::Duration timestamp_read_delay = support::Duration::micros(1.5);

    /** Relative jitter of the timestamp read latency. */
    double timestamp_read_jitter = 0.15;

    /** Per-execution lognormal execution-time jitter (sigma). */
    double exec_time_sigma = 0.010;

    /** Probability that a run draws an allocation-pattern outlier factor. */
    double outlier_run_probability = 0.06;

    /** Outlier slowdown range (uniform multiplier). */
    double outlier_slowdown_min = 1.10;
    double outlier_slowdown_max = 1.35;

    PowerModelParams power;     ///< rail power coefficients
    DvfsGovernorParams dvfs;    ///< power-management firmware behaviour
    ThermalParams thermal;      ///< package thermal RC model

    /** Machine balance in FLOP per byte (compute-bound threshold). */
    double
    machineOpsPerByte() const
    {
        return peak_matrix_flops / hbm_bandwidth;
    }

    /** Total CU count across all XCDs. */
    std::size_t
    totalCus() const
    {
        return num_xcds * cus_per_xcd;
    }
};

/** Calibrated MI300X-class default configuration. */
MachineConfig mi300xConfig();

}  // namespace fingrav::sim

#endif  // FINGRAV_SIM_MACHINE_CONFIG_HPP_
