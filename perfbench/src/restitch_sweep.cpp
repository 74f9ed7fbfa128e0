/**
 * @file
 * Workload restitch_sweep: stitch-time sweep studies over recorded runs.
 *
 * Set-up records three campaigns with extra logger windows through
 * RecordedCampaign::record: a short-exec kernel at a 400-run budget
 * (MB-2K-GEMV), a long-exec GEMM, and a collective under injected fabric
 * demand.  Each pass restitches a grid of SweepPoints on every recording
 * (window x sync mode x margin x binning on/off x run-budget prefix) and
 * runs the analysis a sweep study applies to every point; each point is
 * one operation, and so is the budget autotune that ends every
 * recording's grid.  Simulation does no work after set-up, so this
 * measures stitching, binning, time sync, profile and analysis, plus the
 * memory the recorded run pools hold.
 *
 * The run seed orders the operations; the recorded specs keep fixed seeds.
 *
 * Checks: every pass reproduces the first pass's points bit for bit, and
 * one point per recording reproduces on the re-recording every later
 * set-up performs.
 */

#include <optional>

#include "analysis/report.hpp"
#include "bench.hpp"
#include "fingrav/recorded_campaign.hpp"
#include "support/statistics.hpp"

namespace perfbench {
namespace {

using namespace fingrav::support::literals;
namespace an = fingrav::analysis;

/** Which grid dimensions a point moves off the recording's defaults. */
enum Dim { kWindow, kSync, kMargin, kBinningOff, kPrefix, kDims };

const char* const kDimMetric[kDims] = {
    "stitcher.restitch_ms.window", "stitcher.restitch_ms.sync_mode",
    "stitcher.restitch_ms.margin", "stitcher.restitch_ms.binning_off",
    "stitcher.restitch_ms.runs_prefix"};

struct GridPoint {
    core::SweepPoint point;
    bool moved[kDims] = {};
};

struct Recording {
    std::optional<core::RecordedCampaign> recorded;
    /** What each point's contention report compares against. */
    core::ProfileSet baseline;
    std::vector<GridPoint> grid;
};

class RestitchSweep final : public Workload {
  public:
    const char* opName() const override
    {
        return "sweep-point or autotune";
    }

    void
    setup(Context& ctx, std::size_t rep, Counters& counters) override
    {
        // Release the previous set-up's run pools before recording anew.
        recordings_.clear();
        std::vector<core::ScenarioSpec> specs = recordedSpecs();
        const std::vector<fingrav::support::Duration> extra{2_ms, 10_ms};

        std::vector<std::uint64_t> check_digests;
        for (std::size_t r = 0; r < specs.size(); ++r) {
            Recording rec;
            const double rss0 = currentRssMb();
            const auto t0 = nowNs();
            rec.recorded.emplace(
                core::RecordedCampaign::record(specs[r], extra, ctx.cfg));
            record_ms_.push_back(msSince(t0));
            // Later set-ups reuse the pages earlier ones freed.
            if (rep == 0)
                rss_mb_.push_back(currentRssMb() - rss0);
            counters["recorded.runs." + specs[r].label] =
                static_cast<double>(rec.recorded->runCount());

            // An isolated campaign for a contended recording, the
            // recording's own default point otherwise.
            if (specs[r].background.empty()) {
                rec.baseline = rec.recorded->restitch({});
            } else {
                core::ScenarioSpec isolated = specs[r];
                isolated.background.clear();
                rec.baseline = core::CampaignRunner::runOne(isolated, ctx.cfg);
            }
            rec.grid = makeGrid(*rec.recorded);
            counters["grid_points." + specs[r].label] =
                static_cast<double>(rec.grid.size());

            // One non-default point per recording, compared against the
            // first set-up's recording of the same spec.
            CheckScope check(ctx);
            check_digests.push_back(
                digest(rec.recorded->restitch(rec.grid.back().point)));
            recordings_.push_back(std::move(rec));
        }
        // Every grid point plus one budget autotune per recording, in an
        // order the run seed draws.
        std::vector<std::pair<std::size_t, std::size_t>> ops;
        for (std::size_t r = 0; r < recordings_.size(); ++r) {
            for (std::size_t g = 0; g <= recordings_[r].grid.size(); ++g)
                ops.emplace_back(r, g);
        }
        ops_.clear();
        for (const std::size_t k : seededOrder(ops.size(), ctx.opts.seed))
            ops_.push_back(ops[k]);

        if (rep == 0) {
            check_digests_ = check_digests;
            specs_ = specs;
            return;
        }
        CheckScope check(ctx);
        for (std::size_t r = 0; r < specs.size(); ++r) {
            ctx.check.expect(check_digests[r] == check_digests_[r],
                             specs[r].label + ": restitched point differs "
                                              "from a fresh re-recording");
        }
    }

    void
    pass(Context& ctx, PassResult& result) override
    {
        const bool traced = ctx.tracer.enabled();
        const bool first = pass_digests_.empty();
        double points = 0.0, lois = 0.0, chars = 0.0, runs_needed = 0.0;
        for (std::size_t k = 0; k < ops_.size(); ++k) {
            const auto [r, g] = ops_[k];
            auto& rec = recordings_[r];
            const std::uint64_t id = ctx.newId();
            if (g == rec.grid.size()) {
                core::AutotuneResult tuned;
                const auto t0 = nowNs();
                {
                    Scope s(ctx.tracer, "fingrav.recorded.autotune", id);
                    tuned = rec.recorded->autotuneBudget();
                }
                result.op_ms.push_back(msSince(t0));
                runs_needed += static_cast<double>(tuned.runs_needed);
                continue;
            }
            const auto& gp = rec.grid[g];
            core::ProfileSet set;
            const auto t0 = nowNs();
            {
                Scope point(ctx.tracer, "workload.sweep_point", id);
                const auto r0 = nowNs();
                {
                    Scope s(ctx.tracer, "fingrav.stitcher.restitch", id);
                    set = rec.recorded->restitch(gp.point);
                }
                const double restitch_ms = msSince(r0);
                {
                    Scope s(ctx.tracer, "analysis.summarize", id);
                    chars += static_cast<double>(an::summarize(set).size());
                }
                {
                    Scope s(ctx.tracer, "analysis.rail_stats", id);
                    chars += static_cast<double>(
                        set.ssp.railStats(core::Rail::kTotal).count);
                }
                {
                    Scope s(ctx.tracer, "analysis.percentile", id);
                    const double p95 = fingrav::support::percentile(
                        set.ssp.railColumn(core::Rail::kTotal), 95.0);
                    chars += p95 > 0.0 ? 1.0 : 0.0;
                }
                {
                    Scope s(ctx.tracer, "analysis.contention_report", id);
                    chars += static_cast<double>(
                        an::contentionReport(
                            an::contentionDelta(rec.baseline, set))
                            .size());
                }
                if (traced) {
                    for (int d = 0; d < kDims; ++d) {
                        if (gp.moved[d])
                            dim_ms_[d].push_back(restitch_ms);
                    }
                    restitch_ns_ += restitch_ms * 1e6;
                    restitch_lois_ +=
                        static_cast<double>(set.sse.size() + set.ssp.size());
                    ++traced_points_;
                }
            }
            result.op_ms.push_back(msSince(t0));
            points += 1.0;
            lois += static_cast<double>(set.sse.size() + set.ssp.size());

            CheckScope check(ctx, id);
            const std::uint64_t d = digest(set);
            if (first) {
                pass_digests_.push_back(d);
                if (g == 0)
                    sample_sets_.push_back(std::move(set));
            } else {
                ctx.check.expect(pass_digests_.at(static_cast<std::size_t>(
                                     points) - 1) == d,
                                 "sweep point " + std::to_string(k) +
                                     " differs from the first pass");
            }
        }
        result.counters["sweep_points"] = points;
        result.counters["lois"] = lois;
        result.counters["analysis.output"] = chars;
        result.counters["autotune.runs_needed"] = runs_needed;
    }

    void
    layers(Context& ctx, LayerValues& out) override
    {
        out["recorded.record_ms"] = median(record_ms_);
        out["recorded.rss_mb_per_recording"] = median(rss_mb_);
        out["recorded.autotune_ms"] =
            spanTotal(ctx.tracer, "fingrav.recorded.autotune").perCallMs();
        for (int d = 0; d < kDims; ++d)
            out[kDimMetric[d]] = median(dim_ms_[d]);
        out["stitcher.lois_per_point"] =
            traced_points_ ? restitch_lois_ / traced_points_ : 0.0;
        out["stitcher.ns_per_loi"] =
            restitch_lois_ > 0.0 ? restitch_ns_ / restitch_lois_ : 0.0;

        resultSetLayers(sample_sets_, out);
        // The analysis calls were timed inside the passes; the probes
        // below cover the codec and cost model, then the in-pass figures
        // replace the probed analysis ones.
        probeCommonLayers(ctx, specs_, sample_sets_, out);
        for (const char* name :
             {"analysis.rail_stats", "analysis.percentile",
              "analysis.summarize", "analysis.contention_report"}) {
            double total = 0.0;
            std::size_t calls = 0;
            for (const auto& span : ctx.tracer.spans()) {
                if (std::string_view(span.name) != name || span.parent < 0)
                    continue;
                const auto& parent =
                    ctx.tracer.spans()[static_cast<std::size_t>(span.parent)];
                if (std::string_view(parent.name) != "workload.sweep_point")
                    continue;
                total += static_cast<double>(span.end_ns - span.start_ns);
                ++calls;
            }
            out[std::string(name) + "_us"] = calls ? total / calls / 1e3 : 0.0;
        }
    }

  private:
    static std::vector<core::ScenarioSpec>
    recordedSpecs()
    {
        std::vector<core::ScenarioSpec> specs(3);
        specs[0].label = "MB-2K-GEMV";
        specs[0].opts.runs_override = 400;
        specs[0].opts.max_extra_run_factor = 0.25;
        specs[1].label = "CB-8K-GEMM";
        specs[1].opts.runs_override = 100;
        specs[1].opts.max_extra_run_factor = 0.25;
        specs[2].label = "AR-512MB";
        specs[2].opts.runs_override = 60;
        specs[2].opts.max_extra_run_factor = 0.25;
        core::BackgroundLoad demand;
        demand.kind = core::BackgroundKind::kFabricDemand;
        demand.demand = 0.6;
        specs[2].background.push_back(demand);
        for (std::size_t i = 0; i < specs.size(); ++i)
            specs[i].seed = 20001 + i;
        return specs;
    }

    /** window x sync x margin x binning x run-budget prefix. */
    static std::vector<GridPoint>
    makeGrid(const core::RecordedCampaign& recorded)
    {
        std::vector<GridPoint> grid;
        const std::size_t windows = recorded.windows().size();
        for (std::size_t w = 0; w < windows; ++w)
            for (int sync = 0; sync < 2; ++sync)
                for (int margin = 0; margin < 2; ++margin)
                    for (int binning = 0; binning < 2; ++binning)
                        for (int prefix = 0; prefix < 2; ++prefix) {
                            GridPoint gp;
                            gp.point.window_index = w;
                            if (sync)
                                gp.point.sync_mode =
                                    core::SyncMode::kNoDelayAccounting;
                            if (margin)
                                gp.point.margin = 0.10;
                            if (binning)
                                gp.point.binning = false;
                            if (prefix)
                                gp.point.runs = recorded.baseRuns() / 2;
                            gp.moved[kWindow] = w != 0;
                            gp.moved[kSync] = sync;
                            gp.moved[kMargin] = margin;
                            gp.moved[kBinningOff] = binning;
                            gp.moved[kPrefix] = prefix;
                            grid.push_back(gp);
                        }
        return grid;
    }

    std::vector<core::ScenarioSpec> specs_;
    std::vector<Recording> recordings_;
    /** (recording, grid index) per operation; index == grid size is the
     *  recording's budget autotune. */
    std::vector<std::pair<std::size_t, std::size_t>> ops_;
    std::vector<std::uint64_t> check_digests_;
    std::vector<std::uint64_t> pass_digests_;
    std::vector<core::ProfileSet> sample_sets_;
    std::vector<double> record_ms_;
    std::vector<double> rss_mb_;
    std::vector<double> dim_ms_[kDims];
    double restitch_ns_ = 0.0;
    double restitch_lois_ = 0.0;
    std::size_t traced_points_ = 0;
};

}  // namespace

std::unique_ptr<Workload>
makeRestitchSweep()
{
    return std::make_unique<RestitchSweep>();
}

}  // namespace perfbench
