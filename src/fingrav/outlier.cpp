#include "fingrav/outlier.hpp"

#include <algorithm>
#include <sstream>
#include <utility>
#include <vector>

#include "support/logging.hpp"
#include "support/statistics.hpp"

namespace fingrav::core {

OutlierProfiler::OutlierProfiler(runtime::HostRuntime& host,
                                 ProfilerOptions opts, support::Rng rng)
    : host_(host), opts_(opts), rng_(std::move(rng))
{
}

OutlierProfileResult
OutlierProfiler::profile(const kernels::KernelModelPtr& kernel,
                         double min_outlier_gap)
{
    if (min_outlier_gap <= 0.0)
        support::fatal("OutlierProfiler: min_outlier_gap must be positive");

    OutlierProfileResult result;

    // Stage 1: the standard common-case campaign.  Its binning result
    // tells us both the modal time and which runs fell outside.
    ProfilerOptions common_opts = opts_;
    common_opts.target_bin.reset();
    common_opts.binning = true;
    {
        Profiler profiler(host_, common_opts, rng_.fork(1));
        result.common = profiler.profile(kernel);
    }

    // Identify the slowest outlier cluster: the paper's outliers are
    // slower executions (allocation-unlucky runs).  We approximate the
    // cluster centre as the median of times that exceed the modal bin by
    // min_outlier_gap.
    const double modal_us = result.common.binning.bin_center.toMicros();
    // Re-deriving per-run times from the profile points would undercount
    // discarded runs, so run a light timing-only probe: execute extra runs
    // and collect SSP execution times without power capture.
    RunExecutor exec(host_, rng_.fork(2));
    RunPlan plan;
    plan.main = kernel;
    plan.device = opts_.device;
    plan.main_execs_per_block = result.common.ssp_exec_index + 1;
    std::vector<double> outlier_times_us;
    const std::size_t probes =
        std::max<std::size_t>(60, result.common.runs_executed / 2);
    for (std::size_t r = 0; r < probes; ++r) {
        const auto rec = exec.executeRun(plan, r, /*with_power=*/false);
        const double t =
            rec.mainExecDuration(rec.main_exec_indices.size() - 1)
                .toMicros();
        if (t > modal_us * (1.0 + min_outlier_gap))
            outlier_times_us.push_back(t);
    }

    if (outlier_times_us.empty()) {
        support::warn("OutlierProfiler: no outlier executions beyond ",
                      min_outlier_gap * 100.0, "% of the modal time in ",
                      probes, " probe runs");
        result.outlier_found = false;
        return result;
    }
    result.outlier_found = true;
    result.outlier_target =
        support::Duration::micros(support::medianInPlace(outlier_times_us));

    // Stage 2: re-run with step 6 redirected at the outlier bin.  More
    // runs are necessary, as the paper warns — the bin is sparsely
    // populated (we scale by the inverse outlier rate, capped at 3x).
    ProfilerOptions outlier_opts = opts_;
    outlier_opts.target_bin = result.outlier_target;
    const double outlier_rate =
        static_cast<double>(outlier_times_us.size()) /
        static_cast<double>(probes);
    const double scale =
        std::clamp(0.25 / std::max(outlier_rate, 0.02), 1.0, 3.0);
    const std::size_t base_runs =
        opts_.runs_override.value_or(result.common.guidance.runs);
    outlier_opts.runs_override = static_cast<std::size_t>(
        static_cast<double>(base_runs) * scale);
    {
        Profiler profiler(host_, outlier_opts, rng_.fork(3));
        result.outlier = profiler.profile(kernel);
    }
    return result;
}

}  // namespace fingrav::core

namespace fingrav::kernels {

PhaseSlice::PhaseSlice(KernelModelPtr base, double from, double to)
    : base_(std::move(base)), from_(from), to_(to)
{
    if (!base_)
        fingrav::support::fatal("PhaseSlice: null base kernel");
    if (from < 0.0 || to > 1.0 || to <= from)
        fingrav::support::fatal("PhaseSlice: invalid slice [", from, ", ",
                                to, ")");
    std::ostringstream oss;
    oss << base_->label() << "[" << static_cast<int>(from_ * 100.0) << "-"
        << static_cast<int>(to_ * 100.0) << "%]";
    setLabel(oss.str());
}

sim::KernelWork
PhaseSlice::workAt(double warmth) const
{
    sim::KernelWork work = base_->workAt(warmth);
    work.label = label();
    // The slice executes its share of the workgroups; utilization is that
    // of the base kernel while resident.  The artificial termination adds
    // a small drain/relaunch overhead at the cut (idle wavefront drain).
    const double frac = to_ - from_;
    work.nominal_duration =
        work.nominal_duration * frac +
        support::Duration::micros(1.0);
    return work;
}

}  // namespace fingrav::kernels
