#include "analysis/report.hpp"

#include <algorithm>
#include <charconv>
#include <concepts>
#include <filesystem>
#include <iostream>
#include <string_view>

#include "kernels/workloads.hpp"
#include "support/logging.hpp"
#include "support/table.hpp"

namespace fingrav::analysis {

namespace {

void
putOne(std::string& out, std::string_view text)
{
    out += text;
}

void
putOne(std::string& out, double v)
{
    support::appendGeneral(out, v);
}

template <std::integral T>
void
putOne(std::string& out, T v)
{
    char buf[24];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    out.append(buf, r.ptr);
}

/** Append each part as a stream with default flags prints it. */
template <typename... Parts>
void
put(std::string& out, const Parts&... parts)
{
    (putOne(out, parts), ...);
}

}  // namespace

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
    std::string out;
    put(out, set.label, ": exec ", set.measured_exec_time.toMicros(),
        " us, runs ", set.runs_executed, " (golden ",
        set.binning.golden_runs.size(), ", ", set.binning.outlierCount(),
        " outliers), SSE idx ", set.sse_exec_index, ", SSP idx ",
        set.ssp_exec_index, ", LOIs sse/ssp ", set.sse.size(), "/",
        set.ssp.size());
    // A set that never consulted the guidance table has no target.
    if (set.loi_target > 0) {
        put(out, ", LOI yield ", set.ssp.size(), "/", set.loi_target, " (",
            static_cast<int>(set.loiYield() * 100.0 + 0.5), "%)");
    }
    put(out, ", SSP power ", set.ssp.meanPower(), " W");
    if (const auto contended = set.ssp.contendedCount(); contended > 0)
        put(out, ", contended LOIs ", contended, "/", set.ssp.size());
    return out;
}

std::string
summarize(const core::ProfileSet& set,
          const core::AutotuneResult& autotune)
{
    std::string out = summarize(set);
    put(out, ", autotuned runs ", autotune.runs_needed, " vs Table I ",
        autotune.recommended_runs, " (target ", autotune.loi_target,
        " LOIs ");
    if (autotune.target_met) {
        out += "met";
        if (autotune.budgetDelta() > 0)
            put(out, ", ", autotune.budgetDelta(), " runs to spare");
    } else {
        put(out, "NOT met within the ", autotune.pool_runs, "-run pool");
    }
    out += ')';
    return out;
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
    std::string out;
    put(out, "exec stretch ", delta.exec_stretch, "x, SSP power shift ",
        delta.ssp_delta_pct, " %, contended LOI coverage ",
        delta.contended_loi_frac * 100.0, " %\n");
    support::TableWriter table({"phase (frac of exec)", "isolated (W)",
                                "contended (W)", "delta (%)",
                                "LOIs iso/cont"});
    for (const auto& p : delta.phases) {
        std::string range, lois;
        put(range, p.frac_lo, "-", p.frac_hi);
        put(lois, p.isolated_lois, "/", p.contended_lois);
        table.addRow({std::move(range),
                      support::TableWriter::num(p.isolated_w, 1),
                      support::TableWriter::num(p.contended_w, 1),
                      support::TableWriter::num(p.deltaPct(), 1),
                      std::move(lois)});
    }
    table.render(out);
    return out;
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
