/**
 * @file
 * The fleet layer, probed from the paper_campaigns traced run.
 *
 * A FleetBackend with two `fingrav_cli --serve` workers dispatches the
 * workload's own specs (no cache): one warm-up dispatch, then measured
 * ones.  This crosses the process boundary: wire codec, pipe I/O, pull
 * scheduling and CostModel ordering.  A workload of its own measured the
 * same path, but the dispatch time of three processes on a shared host
 * spread too far between runs to bound (see perfbench/README.md).
 *
 * Checks per dispatch: results equal the in-process references, every
 * spec crossed the wire, no worker was spawned after the fleet warmed up,
 * and the degradation journal is empty.
 */

#include <algorithm>

#include "bench.hpp"
#include "fingrav/codec.hpp"
#include "fingrav/cost_model.hpp"
#include "fingrav/worker_fleet.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kDispatches = 3;  ///< after the warm-up

void
checkDispatch(Context& ctx, const core::FleetBackend& backend,
              const std::vector<core::ProfileSet>& sets,
              const std::vector<core::ProfileSet>& references)
{
    CheckScope check(ctx);
    const auto& stats = backend.lastStats();
    bool identical = sets.size() == references.size();
    for (std::size_t i = 0; identical && i < sets.size(); ++i)
        identical = core::identicalProfileSets(sets[i], references[i]);
    ctx.check.expect(identical, "fleet results differ from in-process "
                                "execution");
    ctx.check.expect(stats.remote_specs == references.size() &&
                         stats.fallback_specs == 0 && stats.local_specs == 0,
                     "not every spec crossed the wire");
    ctx.check.expect(stats.workers_spawned == 0,
                     "a dispatch spawned workers into a warm fleet");
    ctx.check.expect(stats.journal.empty() && stats.retried_specs == 0,
                     "fleet journal not empty: " + stats.journal.report());
}

}  // namespace

void
probeFleet(Context& ctx, const std::vector<core::ScenarioSpec>& specs,
           const std::vector<core::ProfileSet>& references,
           const std::vector<double>& inproc_ms, LayerValues& out)
{
    Scope probe(ctx.tracer, kProbeSpan);
    core::FleetOptions opts;
    opts.workers = kWorkers;
    opts.worker_command = core::defaultServeCommand(ctx.opts.self_path);
    opts.fallback_threads = 1;
    auto backend = std::make_shared<core::FleetBackend>(opts);
    const core::CampaignRunner runner(backend);

    const auto t0 = nowNs();
    {
        Scope s(ctx.tracer, "fingrav.worker_fleet.spawn");
        for (std::size_t seat = 0; seat < kWorkers; ++seat) {
            ctx.check.expect(backend->fleet().ensure(seat) ==
                                 core::WorkerFleet::Ensure::kSpawned,
                             "fleet worker failed to spawn");
        }
    }
    out["fleet.spawn_ms"] = msSince(t0);

    checkDispatch(ctx, *backend, runner.run(specs, ctx.cfg), references);
    std::vector<double> dispatch_ms;
    double remote = 0.0, fallback = 0.0, pulls = 0.0, retried = 0.0,
           journal = 0.0, spawned = 0.0;
    for (std::size_t k = 0; k < kDispatches; ++k) {
        std::vector<core::ProfileSet> sets;
        const auto d0 = nowNs();
        {
            Scope s(ctx.tracer, "fingrav.worker_fleet.dispatch", k);
            sets = runner.run(specs, ctx.cfg);
        }
        dispatch_ms.push_back(msSince(d0));
        checkDispatch(ctx, *backend, sets, references);
        const auto& stats = backend->lastStats();
        remote += static_cast<double>(stats.remote_specs);
        fallback += static_cast<double>(stats.fallback_specs);
        pulls += static_cast<double>(stats.pulls);
        retried += static_cast<double>(stats.retried_specs);
        journal += static_cast<double>(stats.journal.size());
        spawned += static_cast<double>(stats.workers_spawned);
    }
    const double n = static_cast<double>(kDispatches);
    out["fleet.remote_specs"] = remote / n;
    out["fleet.fallback_specs"] = fallback / n;
    out["fleet.pulls"] = pulls / n;
    out["fleet.retried_specs"] = retried / n;
    out["fleet.journal_events"] = journal / n;
    out["fleet.workers_spawned_warm"] = spawned / n;

    // Wire bytes of one dispatch, in the fleet's frame layout: one request
    // (MachineConfig + count + slot + spec) and one result (slot +
    // ProfileSet) per spec, plus the done frame.
    double wire = 0.0;
    const auto cfg_bytes = core::codec::encode(ctx.cfg).size();
    for (std::size_t i = 0; i < specs.size(); ++i) {
        wire += static_cast<double>(core::codec::kFrameHeaderBytes +
                                    cfg_bytes + 4 + 8 +
                                    core::codec::encode(specs[i]).size());
        wire += static_cast<double>(core::codec::kFrameHeaderBytes + 8 +
                                    core::codec::encode(references[i]).size());
        wire += static_cast<double>(core::codec::kFrameHeaderBytes + 4);
    }
    out["fleet.wire_bytes_per_dispatch"] = wire;

    // The greedy longest-predicted-first schedule of the in-process
    // per-spec costs on the fleet's workers, and how well the prediction
    // ranks those costs.
    const core::CostModel model;
    std::vector<double> predicted;
    for (const auto& spec : specs)
        predicted.push_back(model.predict(spec, ctx.cfg));
    std::vector<std::size_t> order(specs.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return predicted[a] > predicted[b];
                     });
    std::vector<double> free_at(kWorkers, 0.0);
    for (const auto slot : order)
        *std::min_element(free_at.begin(), free_at.end()) += inproc_ms[slot];
    const double makespan = *std::max_element(free_at.begin(), free_at.end());
    out["fleet.overhead_ms"] = median(dispatch_ms) - makespan;

    double agree = 0.0, pairs = 0.0;
    for (std::size_t a = 0; a < specs.size(); ++a) {
        for (std::size_t b = a + 1; b < specs.size(); ++b) {
            pairs += 1.0;
            if ((predicted[a] > predicted[b]) ==
                (inproc_ms[a] > inproc_ms[b]))
                agree += 1.0;
        }
    }
    out["cost_model.rank_agreement"] = pairs > 0.0 ? agree / pairs : 0.0;
    // The backend's destructor shuts the workers down and reaps them.
}

}  // namespace perfbench
