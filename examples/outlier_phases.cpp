/**
 * @file
 * Section VI of the paper, implemented: profiling outlier executions and
 * splitting kernels into phases.
 *
 * Part 1 — outlier profiling: FinGraV's common-case profile discards the
 * slow allocation-outlier runs; redirecting step 6 at the outlier bin
 * (OutlierProfiler) recovers their power profile, at the cost of more
 * runs.  Slow outliers stall more: same occupancy, lower issue-rate power,
 * busier HBM — visible in the rail breakdown.
 *
 * Part 2 — phase splitting: "the kernel can be artificially terminated
 * after half the number of workgroups are completed and each half of the
 * execution can be studied separately."  PhaseSlice profiles each half
 * and compares per-phase execution-time variation to the whole kernel's.
 */

#include <iostream>
#include <memory>
#include <vector>

#include "fingrav/campaign_runner.hpp"
#include "fingrav/outlier.hpp"
#include "fingrav/profiler.hpp"
#include "kernels/workloads.hpp"
#include "support/statistics.hpp"
#include "support/table.hpp"

namespace fc = fingrav::core;
namespace fk = fingrav::kernels;
namespace fs = fingrav::support;

int
main()
{
    const auto cfg = fingrav::sim::mi300xConfig();
    const auto kernel = fk::kernelByLabel("CB-4K-GEMM", cfg);

    // --- Part 1: the outlier bin ------------------------------------------
    std::cout << "Part 1 - profiling the outlier execution-time bin\n";
    fc::ProfilerOptions opts;
    opts.runs_override = 150;
    fc::CampaignNode campaign({"CB-4K-GEMM", 61, opts}, cfg);
    fc::OutlierProfiler outlier_profiler(campaign.host(), opts,
                                         campaign.profilerRng());
    const auto result = outlier_profiler.profile(kernel);

    if (!result.outlier_found) {
        std::cout << "no outlier cluster surfaced in this campaign\n";
    } else {
        fs::TableWriter table({"bin", "exec (us)", "golden runs",
                               "SSP LOIs", "total (W)", "XCD (W)",
                               "HBM (W)"});
        table.addRow(
            {"common",
             fs::TableWriter::num(result.common.binning.bin_center.toMicros(), 1),
             std::to_string(result.common.binning.golden_runs.size()),
             std::to_string(result.common.ssp.size()),
             fs::TableWriter::num(result.common.ssp.meanPower(), 1),
             fs::TableWriter::num(result.common.ssp.meanPower(fc::Rail::kXcd), 1),
             fs::TableWriter::num(result.common.ssp.meanPower(fc::Rail::kHbm), 1)});
        table.addRow(
            {"outlier",
             fs::TableWriter::num(result.outlier_target.toMicros(), 1),
             std::to_string(result.outlier.binning.golden_runs.size()),
             std::to_string(result.outlier.ssp.size()),
             fs::TableWriter::num(result.outlier.ssp.meanPower(), 1),
             fs::TableWriter::num(result.outlier.ssp.meanPower(fc::Rail::kXcd), 1),
             fs::TableWriter::num(result.outlier.ssp.meanPower(fc::Rail::kHbm), 1)});
        table.print(std::cout);
        std::cout << "outlier runs executed: "
                  << result.outlier.runs_executed
                  << " (vs " << result.common.runs_executed
                  << " common) - the paper's cost warning\n";
        std::cout << "slow outliers stall: lower XCD power, busier HBM\n";
    }

    // --- Part 2: phase splitting --------------------------------------------
    std::cout << "\nPart 2 - splitting the kernel at half its workgroups\n";
    const auto first_half =
        std::make_shared<fk::PhaseSlice>(kernel, 0.0, 0.5);
    const auto second_half =
        std::make_shared<fk::PhaseSlice>(kernel, 0.5, 1.0);

    fc::ProfilerOptions phase_opts;
    phase_opts.runs_override = 120;
    fs::TableWriter phases({"kernel", "exec (us)", "exec-time CV (%)",
                            "SSP (W)"});
    std::uint64_t seed = 62;
    for (const auto& k : std::vector<fk::KernelModelPtr>{
             kernel, first_half, second_half}) {
        // A half has no label of its own: every campaign runs on the node
        // of the CB-4K-GEMM label the halves wrap.
        fc::CampaignNode c({"CB-4K-GEMM", seed++, phase_opts}, cfg);
        const auto set =
            fc::Profiler(c.host(), phase_opts, c.profilerRng()).profile(k);
        // Execution-time variation within the golden bin, from the
        // stitched LOI population's run-relative spread: re-probe with a
        // light timing-only pass for a clean CV.
        fc::RunExecutor exec(c.host(), c.simulation().forkRng(9));
        fc::RunPlan plan;
        plan.main = k;
        plan.main_execs_per_block = 6;
        std::vector<double> times;
        for (std::size_t r = 0; r < 60; ++r) {
            const auto rec = exec.executeRun(plan, r, false);
            times.push_back(rec.mainExecDuration(5).toMicros());
        }
        phases.addRow(
            {k->label(),
             fs::TableWriter::num(set.measured_exec_time.toMicros(), 1),
             fs::TableWriter::num(fs::coefficientOfVariation(times) * 100.0, 2),
             fs::TableWriter::num(set.ssp.meanPower(), 1)});
    }
    phases.print(std::cout);
    std::cout << "\nPer-phase profiles let outlier analysis localize which "
                 "half of a kernel carries the variation (paper Section "
                 "VI, left to future work there).\n";
    return 0;
}
