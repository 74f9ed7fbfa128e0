/**
 * @file
 * Workload paper_campaigns: what `fingrav_cli campaign` does, serially.
 *
 * The fourteen paper kernels plus one AR-512MB scenario under injected
 * fabric demand, each on a fresh node, at a 50-run base budget
 * (`fingrav_cli campaign --runs 50`) with the step-8 top-up: about a
 * quarter of Table I's budgets, so a run fits four times as many passes
 * (an operation's time is its best pass), and several kernels need the
 * top-up to meet their LOI targets.  Simulation is most of a campaign.  The six
 * GEMM/GEMV kernels run on a 1-GPU node and the collectives on the 8-GPU
 * node, so a node-stepping change shows on one half and not the other.
 *
 * Campaigns are built from CampaignNode + Profiler::profile (exactly what
 * CampaignRunner::runOne does) so the node's device counters stay
 * readable.  Set-up runs every spec through CampaignRunner::runOne; each
 * pass must reproduce those sets bit for bit and meet every LOI target.
 * The specs carry bench_fig10's seed convention (10001 on); the run seed
 * orders the campaigns.  The traced run also dispatches the same specs
 * through a two-worker fleet (fleet_probe.cpp).
 */

#include <algorithm>
#include <limits>
#include <optional>

#include "bench.hpp"
#include "kernels/workloads.hpp"

namespace perfbench {
namespace {

/** Base run budget of every campaign (the top-up may add as many). */
constexpr std::size_t kBaseRuns = 50;

/** Host cost and simulated work of one class of campaigns. */
struct SimTally {
    double profile_ns = 0.0;
    double stretches = 0.0;
    double sibling_stretches = 0.0;
    double sim_s = 0.0;
};

class PaperCampaigns final : public Workload {
  public:
    const char* opName() const override { return "campaign"; }

    void
    setup(Context& ctx, std::size_t rep, Counters& counters) override
    {
        specs_.clear();
        const auto kernels = fingrav::kernels::paperKernels(ctx.cfg);
        for (const auto& kernel : kernels) {
            core::ScenarioSpec spec;
            spec.label = kernel->label();
            spec.seed = 10001 + specs_.size();
            spec.opts.runs_override = kBaseRuns;
            specs_.push_back(std::move(spec));
        }
        core::ScenarioSpec contended;
        contended.label = "AR-512MB";
        contended.seed = 10001 + specs_.size();
        contended.opts.runs_override = kBaseRuns;
        core::BackgroundLoad demand;
        demand.kind = core::BackgroundKind::kFabricDemand;
        demand.demand = 0.6;
        contended.background.push_back(demand);
        specs_.push_back(std::move(contended));
        order_ = seededOrder(specs_.size(), ctx.opts.seed);
        best_ms_.assign(specs_.size(), std::numeric_limits<double>::max());

        std::vector<core::ProfileSet> sets;
        for (const auto& spec : specs_)
            sets.push_back(core::CampaignRunner::runOne(spec, ctx.cfg));
        counters["campaigns"] = static_cast<double>(sets.size());
        if (rep == 0) {
            references_ = std::move(sets);
            return;
        }
        CheckScope check(ctx);
        for (std::size_t i = 0; i < sets.size(); ++i) {
            ctx.check.expect(core::identicalProfileSets(sets[i], references_[i]),
                             specs_[i].label + ": runOne differs between "
                                               "set-ups");
        }
    }

    void
    pass(Context& ctx, PassResult& result) override
    {
        const bool traced = ctx.tracer.enabled();
        double stretches = 0.0, sim_s = 0.0;
        for (const std::size_t i : order_) {
            const auto& spec = specs_[i];
            const std::uint64_t id = ctx.newId();
            core::ProfileSet set;
            double node_stretches = 0.0, node_siblings = 0.0, node_sim_s = 0.0;
            bool collective = false;
            std::int64_t profile_ns = 0;
            const auto t0 = nowNs();
            {
                Scope campaign(ctx.tracer, "workload.campaign", id);
                std::optional<core::CampaignNode> node;
                {
                    Scope s(ctx.tracer, "runtime.node_build", id);
                    node.emplace(spec, ctx.cfg);
                }
                {
                    Scope s(ctx.tracer, "fingrav.profiler.profile", id);
                    const auto p0 = nowNs();
                    set = core::Profiler(node->host(), spec.opts,
                                         node->profilerRng())
                              .profile(node->kernel());
                    profile_ns = nowNs() - p0;
                }
                auto& simulation = node->simulation();
                collective = node->kernel()->isCollective();
                for (std::size_t d = 0; d < simulation.deviceCount(); ++d) {
                    const auto& device = simulation.device(d);
                    const auto n =
                        static_cast<double>(device.stepStats().stretches);
                    node_stretches += n;
                    if (d != spec.opts.device)
                        node_siblings += n;
                    node_sim_s = std::max(node_sim_s,
                                          device.localNow().toSeconds());
                }
                Scope s(ctx.tracer, "runtime.node_teardown", id);
                node.reset();
            }
            result.op_ms.push_back(msSince(t0));
            best_ms_[i] = std::min(best_ms_[i], result.op_ms.back());
            stretches += node_stretches;
            sim_s += node_sim_s;
            if (traced) {
                auto& tally = collective ? collective_ : compute_;
                tally.profile_ns += static_cast<double>(profile_ns);
                tally.stretches += node_stretches;
                tally.sibling_stretches += node_siblings;
                tally.sim_s += node_sim_s;
            }

            CheckScope check(ctx, id);
            ctx.check.expect(core::identicalProfileSets(set, references_[i]),
                             spec.label + ": campaign differs from "
                                          "CampaignRunner::runOne");
            ctx.check.expect(set.loi_target > 0 &&
                                 set.ssp.size() >= set.loi_target,
                             spec.label + ": LOI target not met");
        }
        result.counters["campaigns"] = static_cast<double>(specs_.size());
        result.counters["sim.stretches"] = stretches;
        result.counters["sim.sim_s"] = sim_s;
    }

    void
    layers(Context& ctx, LayerValues& out) override
    {
        const auto perStretch = [](const SimTally& t) {
            return t.stretches > 0.0 ? t.profile_ns / t.stretches : 0.0;
        };
        SimTally all;
        all.profile_ns = compute_.profile_ns + collective_.profile_ns;
        all.stretches = compute_.stretches + collective_.stretches;
        all.sim_s = compute_.sim_s + collective_.sim_s;
        const auto traced_passes = spanTotal(ctx.tracer, kPassSpan).calls;
        const double passes = std::max<double>(1.0, traced_passes);
        out["sim.stretches"] = all.stretches / passes;
        out["sim.sim_s"] = all.sim_s / passes;
        out["sim.sim_s_per_host_s"] =
            all.profile_ns > 0.0 ? all.sim_s / (all.profile_ns / 1e9) : 0.0;
        out["sim.host_ns_per_stretch"] = perStretch(all);
        out["sim.compute.host_ns_per_stretch"] = perStretch(compute_);
        out["sim.collective.host_ns_per_stretch"] = perStretch(collective_);
        out["sim.collective.sibling_stretch_share"] =
            collective_.stretches > 0.0
                ? collective_.sibling_stretches / collective_.stretches
                : 0.0;
        out["runtime.node_build_ms"] =
            spanTotal(ctx.tracer, "runtime.node_build").perCallMs();
        out["profiler.profile_ms"] =
            spanTotal(ctx.tracer, "fingrav.profiler.profile").perCallMs();

        resultSetLayers(references_, out);
        probeCommonLayers(ctx, specs_, references_, out);
        probeFleet(ctx, specs_, references_, best_ms_, out);
    }

  private:
    std::vector<core::ScenarioSpec> specs_;
    std::vector<std::size_t> order_;
    std::vector<core::ProfileSet> references_;
    /** Each campaign's best in-process time over the passes. */
    std::vector<double> best_ms_;
    SimTally compute_;
    SimTally collective_;
};

}  // namespace

std::unique_ptr<Workload>
makePaperCampaigns()
{
    return std::make_unique<PaperCampaigns>();
}

}  // namespace perfbench
