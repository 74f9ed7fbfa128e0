#include "analysis/report.hpp"

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <sstream>

#include "kernels/workloads.hpp"
#include "support/logging.hpp"
#include "support/table.hpp"

namespace fingrav::analysis {

std::vector<core::ScenarioSpec>
fig10ScenarioSet(std::size_t runs, bool with_contended)
{
    core::ProfilerOptions opts;
    opts.runs_override = runs;
    opts.collect_extra_runs = false;

    std::vector<core::ScenarioSpec> specs;
    std::uint64_t seed = 10001;  // bench_fig10's seeds
    for (const char* label :
         {"AG-64KB", "AG-128KB", "AG-512MB", "AG-1GB", "AR-64KB",
          "AR-128KB", "AR-512MB", "AR-1GB", "CB-8K-GEMM"}) {
        core::ScenarioSpec spec;
        spec.label = label;
        spec.seed = seed++;
        spec.opts = opts;
        specs.push_back(std::move(spec));
    }
    if (with_contended) {
        core::ScenarioSpec contended;
        contended.label = "AR-512MB";
        contended.seed = seed;
        contended.opts = opts;
        core::BackgroundLoad demand;
        demand.kind = core::BackgroundKind::kFabricDemand;
        demand.demand = 0.6;
        contended.background.push_back(demand);
        specs.push_back(std::move(contended));
    }
    return specs;
}

std::string
summarize(const core::ProfileSet& set)
{
    std::ostringstream oss;
    oss << set.label << ": exec " << set.measured_exec_time.toMicros()
        << " us, runs " << set.runs_executed << " (golden "
        << set.binning.golden_runs.size() << ", "
        << set.binning.outlierCount() << " outliers), SSE idx "
        << set.sse_exec_index << ", SSP idx " << set.ssp_exec_index
        << ", LOIs sse/ssp " << set.sse.size() << "/" << set.ssp.size();
    // A set that never consulted the guidance table has no target.
    if (set.loi_target > 0) {
        oss << ", LOI yield " << set.ssp.size() << "/" << set.loi_target
            << " (" << static_cast<int>(set.loiYield() * 100.0 + 0.5)
            << "%)";
    }
    oss << ", SSP power " << set.ssp.meanPower() << " W";
    if (const auto contended = set.ssp.contendedCount(); contended > 0)
        oss << ", contended LOIs " << contended << "/" << set.ssp.size();
    return oss.str();
}

std::string
summarize(const core::ProfileSet& set,
          const core::AutotuneResult& autotune)
{
    std::ostringstream oss;
    oss << summarize(set) << ", autotuned runs " << autotune.runs_needed
        << " vs Table I " << autotune.recommended_runs << " (target "
        << autotune.loi_target << " LOIs ";
    if (autotune.target_met) {
        oss << "met";
        if (autotune.budgetDelta() > 0)
            oss << ", " << autotune.budgetDelta() << " runs to spare";
    } else {
        oss << "NOT met within the " << autotune.pool_runs << "-run pool";
    }
    oss << ")";
    return oss.str();
}

double
ContentionPhase::deltaPct() const
{
    if (isolated_lois == 0 || contended_lois == 0 || isolated_w == 0.0)
        return 0.0;
    return (contended_w - isolated_w) / isolated_w * 100.0;
}

ContentionDelta
contentionDelta(const core::ProfileSet& isolated,
                const core::ProfileSet& contended, std::size_t phases)
{
    if (phases == 0)
        support::fatal("contentionDelta: need at least one phase");
    if (isolated.label != contended.label)
        support::warn("contentionDelta: comparing different kernels (",
                      isolated.label, " vs ", contended.label, ")");

    ContentionDelta out;
    if (isolated.ssp_exec_time.nanos() > 0) {
        out.exec_stretch = contended.ssp_exec_time.toMicros() /
                           isolated.ssp_exec_time.toMicros();
    }
    const double iso_w = isolated.ssp.meanPower();
    if (iso_w > 0.0) {
        out.ssp_delta_pct =
            (contended.ssp.meanPower() - iso_w) / iso_w * 100.0;
    }
    if (!contended.ssp.empty()) {
        out.contended_loi_frac =
            static_cast<double>(contended.ssp.contendedCount()) /
            static_cast<double>(contended.ssp.size());
    }

    // Phases are normalized-TOI bins: the contended execution is longer,
    // so absolute TOIs do not correspond — fractions of each execution do.
    out.phases.resize(phases);
    for (std::size_t i = 0; i < phases; ++i) {
        out.phases[i].frac_lo =
            static_cast<double>(i) / static_cast<double>(phases);
        out.phases[i].frac_hi =
            static_cast<double>(i + 1) / static_cast<double>(phases);
    }
    auto bin_of = [&](double frac) {
        const auto b = static_cast<std::size_t>(
            std::clamp(frac, 0.0, 1.0) * static_cast<double>(phases));
        return std::min(b, phases - 1);
    };
    // Histogram fill straight off the toi_frac / total_w columns, in
    // point order (sums reproduce the former point-loop bit for bit).
    {
        const auto& frac = isolated.ssp.toiFrac();
        const auto& watts = isolated.ssp.railColumn(core::Rail::kTotal);
        for (std::size_t i = 0; i < frac.size(); ++i) {
            auto& phase = out.phases[bin_of(frac[i])];
            phase.isolated_w += watts[i];
            ++phase.isolated_lois;
        }
    }
    {
        const auto& frac = contended.ssp.toiFrac();
        const auto& watts = contended.ssp.railColumn(core::Rail::kTotal);
        for (std::size_t i = 0; i < frac.size(); ++i) {
            auto& phase = out.phases[bin_of(frac[i])];
            phase.contended_w += watts[i];
            ++phase.contended_lois;
        }
    }
    for (auto& phase : out.phases) {
        if (phase.isolated_lois > 0)
            phase.isolated_w /= static_cast<double>(phase.isolated_lois);
        if (phase.contended_lois > 0)
            phase.contended_w /= static_cast<double>(phase.contended_lois);
    }
    return out;
}

std::string
contentionReport(const ContentionDelta& delta)
{
    std::ostringstream oss;
    oss << "exec stretch " << delta.exec_stretch << "x, SSP power shift "
        << delta.ssp_delta_pct << " %, contended LOI coverage "
        << delta.contended_loi_frac * 100.0 << " %\n";
    support::TableWriter table({"phase (frac of exec)", "isolated (W)",
                                "contended (W)", "delta (%)",
                                "LOIs iso/cont"});
    for (const auto& p : delta.phases) {
        std::ostringstream range;
        range << p.frac_lo << "-" << p.frac_hi;
        table.addRow({range.str(),
                      support::TableWriter::num(p.isolated_w, 1),
                      support::TableWriter::num(p.contended_w, 1),
                      support::TableWriter::num(p.deltaPct(), 1),
                      std::to_string(p.isolated_lois) + "/" +
                          std::to_string(p.contended_lois)});
    }
    table.print(oss);
    return oss.str();
}

void
dumpProfileCsv(const core::PowerProfile& profile, const std::string& name)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories("fingrav_out", ec);
    if (ec) {
        support::warn("dumpProfileCsv: cannot create fingrav_out: ",
                      ec.message());
        return;
    }
    support::CsvWriter csv({"toi_us", "toi_frac", "run_time_us", "total_w",
                            "xcd_w", "iod_w", "hbm_w", "run", "exec"});
    for (const auto& p : profile.points()) {
        csv.addNumericRow({p.toi_us, p.toi_frac, p.run_time_us,
                           p.sample.total_w, p.sample.xcd_w, p.sample.iod_w,
                           p.sample.hbm_w,
                           static_cast<double>(p.run_index),
                           static_cast<double>(p.exec_index)});
    }
    csv.writeFile("fingrav_out/" + name + ".csv");
}

void
printHeader(const std::string& experiment, const std::string& claim)
{
    std::cout << "\n=============================================================\n"
              << experiment << "\n" << claim << "\n"
              << "=============================================================\n";
}

}  // namespace fingrav::analysis
