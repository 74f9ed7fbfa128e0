#ifndef FINGRAV_FINGRAV_RUN_EXECUTOR_HPP_
#define FINGRAV_FINGRAV_RUN_EXECUTOR_HPP_

/**
 * @file
 * Executes instrumented profiling runs (paper steps 2 and 5).
 *
 * A *run* is one instrumented batch: a random idle delay (step 5 — this is
 * what decorrelates the logger's window grid from kernel start so LOIs land
 * at unique TOIs), power-log start, a sequence of kernel executions with
 * CPU-side timing of each (step 2), and power-log stop.  Runs model fresh
 * process invocations: caches start cold (warmth ramps over the first
 * executions) and each run draws its own memory-allocation pattern, a small
 * fraction of which are outliers (the execution-time variation of paper
 * challenge C3).
 *
 * A run may interleave *prelude* kernels before the profiled kernel
 * (Section V-C3's interleaved-execution experiments) and may repeat the
 * [prelude, main] block several times.
 */

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "kernels/kernel_model.hpp"
#include "runtime/host_runtime.hpp"
#include "sim/machine_config.hpp"
#include "sim/power_logger.hpp"
#include "support/rng.hpp"
#include "support/time_types.hpp"

namespace fingrav::core {

/** One interleaved prelude element: run `count` executions of `model`. */
struct InterleaveItem {
    kernels::KernelModelPtr model;
    std::size_t count = 1;
};

/** What a run executes. */
struct RunPlan {
    kernels::KernelModelPtr main;          ///< the profiled kernel
    std::vector<InterleaveItem> prelude;   ///< executed before main, per block
    std::size_t blocks = 1;                ///< block repetitions
    std::size_t main_execs_per_block = 1;  ///< main executions per block
    std::size_t device = 0;                ///< profiled device
    support::Duration min_delay = support::Duration::micros(200.0);
    support::Duration max_delay = support::Duration::millis(2.0);
    /** Logger averaging window; <= 0 selects the machine default (1 ms). */
    support::Duration logger_window;
    /**
     * Additional logger windows captured *simultaneously* with the
     * primary one (multi-window capture: the same execution observed at
     * several averaging granularities, e.g. the on-GPU 1 ms logger next
     * to an amd-smi-style 50 ms one).  Windows must be positive, distinct
     * from each other and from the primary.  The pre/post capture idle
     * sleeps span the longest window so every capture engages.  Samples
     * land in RunRecord::extra_samples, parallel to this list.
     */
    std::vector<support::Duration> extra_windows;
};

/** One observed kernel execution (CPU-domain bounds). */
struct ExecObservation {
    runtime::HostTiming timing;
    bool is_main = false;  ///< true for executions of the profiled kernel
};

/** Everything one run produced. */
struct RunRecord {
    std::size_t run_index = 0;
    std::vector<ExecObservation> execs;         ///< in execution order
    std::vector<std::size_t> main_exec_indices; ///< indices into execs
    /** The run's power log, columnar end to end from capture. */
    sim::SampleColumns samples;
    /** Per extra window (RunPlan::extra_windows order): that logger's log. */
    std::vector<sim::SampleColumns> extra_samples;
    std::int64_t run_start_cpu_ns = 0;          ///< first execution start
    std::int64_t log_start_cpu_ns = 0;          ///< power-log start call
    /**
     * Contention state active during the run: background-active CPU-clock
     * intervals (merged, ascending) overlapping the run's capture, from
     * the runtime's background channel.  Empty for isolated campaigns.
     * The stitcher annotates each LOI against these intervals.
     */
    std::vector<std::pair<std::int64_t, std::int64_t>> contended_cpu_ns;

    /** Window w's log: 0 = samples, w > 0 = extra_samples[w - 1]. */
    const sim::SampleColumns& windowSamples(std::size_t w) const
    {
        return w == 0 ? samples : extra_samples[w - 1];
    }

    /** CPU-measured duration of the i-th main execution. */
    support::Duration mainExecDuration(std::size_t i) const;

    /** True when the CPU-clock instant fell inside a contended interval. */
    bool contendedAt(std::int64_t cpu_ns) const;
};

/** Executes RunPlans against a host runtime. */
class RunExecutor {
  public:
    /**
     * @param host  Runtime to drive.
     * @param rng   Stream for delays, jitter and allocation outliers.
     */
    RunExecutor(runtime::HostRuntime& host, support::Rng rng);

    /**
     * Execute one run.
     *
     * @param plan        What to execute.
     * @param run_index   Stored in the record (and used for diagnostics).
     * @param with_power  Capture the power log (off for pure-timing runs).
     */
    RunRecord executeRun(const RunPlan& plan, std::size_t run_index,
                         bool with_power = true);

    /**
     * Materialize a kernel invocation: cost at the current warmth, scaled
     * by the run's allocation factor and per-execution jitter.
     *
     * @param appearance  How many times this kernel has already executed
     *                    in the current run (drives warmth).
     */
    sim::KernelWork sampleWork(const kernels::KernelModel& model,
                               std::size_t appearance, double alloc_factor);

  private:
    runtime::HostRuntime& host_;
    support::Rng rng_;
};

}  // namespace fingrav::core

#endif  // FINGRAV_FINGRAV_RUN_EXECUTOR_HPP_
