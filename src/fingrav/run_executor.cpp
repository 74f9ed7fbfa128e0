#include "fingrav/run_executor.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "support/logging.hpp"

namespace fingrav::core {

support::Duration
RunRecord::mainExecDuration(std::size_t i) const
{
    FINGRAV_ASSERT(i < main_exec_indices.size(),
                   "main exec index ", i, " out of range");
    return execs[main_exec_indices[i]].timing.duration();
}

bool
RunRecord::contendedAt(std::int64_t cpu_ns) const
{
    // Intervals are merged and ascending: binary-search the first
    // interval ending after the instant and test containment.
    const auto it = std::upper_bound(
        contended_cpu_ns.begin(), contended_cpu_ns.end(), cpu_ns,
        [](std::int64_t t, const std::pair<std::int64_t, std::int64_t>& iv) {
            return t < iv.second;
        });
    return it != contended_cpu_ns.end() && cpu_ns >= it->first;
}

RunExecutor::RunExecutor(runtime::HostRuntime& host, support::Rng rng)
    : host_(host), rng_(std::move(rng))
{
}

sim::KernelWork
RunExecutor::sampleWork(const kernels::KernelModel& model,
                        std::size_t appearance, double alloc_factor)
{
    const auto& cfg = host_.simulation().config();
    const double warmth =
        std::min(1.0, static_cast<double>(appearance) / 3.0);
    sim::KernelWork work = model.workAt(warmth);
    const double jitter = rng_.lognormalJitter(cfg.exec_time_sigma);
    work.nominal_duration =
        work.nominal_duration * (alloc_factor * jitter);
    if (alloc_factor > 1.0) {
        // An unlucky allocation stretches the execution because the kernel
        // *stalls* more: the same work issues over a longer period (lower
        // issue/LLC rates) while the cause — extra refetch traffic — keeps
        // HBM busier.  Execution-time outliers therefore carry a power
        // signature of their own, which is exactly why binning (tenet S3)
        // must discard them from the common-case profile.
        work.util.xcd_issue /= alloc_factor;
        work.util.llc_bw /= alloc_factor;
        work.util.hbm_bw =
            std::min(1.0, work.util.hbm_bw * std::sqrt(alloc_factor) * 1.4);
    }
    return work;
}

RunRecord
RunExecutor::executeRun(const RunPlan& plan, std::size_t run_index,
                        bool with_power)
{
    if (!plan.main)
        support::fatal("RunExecutor: plan has no main kernel");
    if (plan.blocks == 0 || plan.main_execs_per_block == 0)
        support::fatal("RunExecutor: plan executes nothing");
    if (plan.max_delay < plan.min_delay)
        support::fatal("RunExecutor: max_delay below min_delay");

    const auto& cfg = host_.simulation().config();

    RunRecord rec;
    rec.run_index = run_index;

    // Fresh-process model: this run's allocation pattern; a small fraction
    // are outliers (challenge C3's "slight differences in memory
    // allocation").
    double alloc = 1.0;
    if (rng_.bernoulli(cfg.outlier_run_probability)) {
        alloc = rng_.uniform(cfg.outlier_slowdown_min,
                             cfg.outlier_slowdown_max);
    }

    const auto window = plan.logger_window.nanos() > 0 ? plan.logger_window
                                                       : cfg.logger_window;
    auto longest = window;
    for (std::size_t i = 0; i < plan.extra_windows.size(); ++i) {
        const auto& w = plan.extra_windows[i];
        if (w.nanos() <= 0)
            support::fatal("RunExecutor: non-positive extra logger window");
        if (w == window)
            support::fatal("RunExecutor: extra window duplicates the "
                           "primary (", w.toMicros(), "us)");
        for (std::size_t j = 0; j < i; ++j) {
            if (plan.extra_windows[j] == w)
                support::fatal("RunExecutor: duplicate extra window (",
                               w.toMicros(), "us)");
        }
        longest = std::max(longest, w);
    }
    if (with_power) {
        rec.log_start_cpu_ns = host_.cpuNowNs();
        host_.startPowerLog(plan.device, window);
        for (const auto& w : plan.extra_windows)
            host_.startPowerLog(plan.device, w);
        // Capture engages at the next window-grid boundary; idle past one
        // full window (the longest, under multi-window capture) so every
        // logger has the run's ramp-up inside its capture.
        host_.sleep(longest);
    }

    // Step 5's random delay: decorrelates kernel start from the window
    // grid so each run lands LOIs at unique TOIs.
    const double delay_us = rng_.uniform(plan.min_delay.toMicros(),
                                         plan.max_delay.toMicros());
    host_.sleep(support::Duration::micros(delay_us));

    // Per-model appearance counts drive cache warmth within the run.
    std::vector<std::pair<const kernels::KernelModel*, std::size_t>> warm;
    auto appearances = [&warm](const kernels::KernelModel* m) {
        for (auto& [model, count] : warm) {
            if (model == m)
                return count++;
        }
        warm.emplace_back(m, 1);
        return std::size_t{0};
    };

    auto run_one = [&](const kernels::KernelModel& model, bool is_main) {
        const auto work =
            sampleWork(model, appearances(&model), alloc);
        ExecObservation obs;
        obs.label = work.label;
        obs.is_main = is_main;
        // Collectives execute node-wide; timing is observed on the
        // profiled device as usual.
        obs.timing = model.isCollective()
                         ? host_.timedRunOnAllDevices(work, plan.device)
                         : host_.timedRun(work, plan.device);
        if (is_main)
            rec.main_exec_indices.push_back(rec.execs.size());
        rec.execs.push_back(std::move(obs));
    };

    for (std::size_t block = 0; block < plan.blocks; ++block) {
        for (const auto& item : plan.prelude) {
            FINGRAV_ASSERT(item.model != nullptr, "null prelude model");
            for (std::size_t i = 0; i < item.count; ++i)
                run_one(*item.model, /*is_main=*/false);
        }
        for (std::size_t i = 0; i < plan.main_execs_per_block; ++i)
            run_one(*plan.main, /*is_main=*/true);
    }

    FINGRAV_ASSERT(!rec.execs.empty(), "run executed nothing");
    rec.run_start_cpu_ns = rec.execs.front().timing.cpu_start_ns;

    if (with_power) {
        // Let the window containing the final execution close before
        // stopping, so trailing LOIs are not lost with the partial window.
        host_.sleep(longest + support::Duration::micros(50.0));
        rec.samples = host_.stopPowerLog(plan.device, window);
        rec.extra_samples.reserve(plan.extra_windows.size());
        for (const auto& w : plan.extra_windows)
            rec.extra_samples.push_back(host_.stopPowerLog(plan.device, w));
    }

    // Drain any remaining devices (collectives) and return to idle.
    host_.synchronizeAll();

    // Scenario environments: attach the contention state that was live
    // during the run's capture (everything the channel launched has
    // completed by now — the drain above waited for it — so kernel
    // intervals carry exact bounds).
    if (with_power && host_.backgroundArmed()) {
        rec.contended_cpu_ns = host_.backgroundActiveCpuIntervals(
            rec.log_start_cpu_ns, host_.cpuClockAt(host_.masterNow()));
    }
    return rec;
}

}  // namespace fingrav::core
