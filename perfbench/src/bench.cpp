#include "bench.hpp"

#include <algorithm>
#include <fstream>
#include <iostream>

#include <sys/resource.h>
#include <unistd.h>

#include "analysis/report.hpp"
#include "fingrav/campaign_cache.hpp"
#include "fingrav/codec.hpp"
#include "fingrav/cost_model.hpp"
#include "support/rng.hpp"
#include "support/statistics.hpp"

namespace perfbench {

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

double
msSince(std::int64_t t0_ns)
{
    return static_cast<double>(nowNs() - t0_ns) / 1e6;
}

int
Tracer::open(const char* name, std::uint64_t id)
{
    if (!enabled_)
        return -1;
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.id = id;
    const auto index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(span);
    stack_.push_back(index);
    // Stamp last, so the span's own bookkeeping stays outside it.
    spans_.back().start_ns = nowNs();
    return index;
}

void
Tracer::close(int index)
{
    if (index < 0)
        return;
    spans_[static_cast<std::size_t>(index)].end_ns = nowNs();
    stack_.pop_back();
}

SpanTotal
spanTotal(const Tracer& tracer, const char* name)
{
    SpanTotal total;
    for (const auto& span : tracer.spans()) {
        if (std::string_view(span.name) != name)
            continue;
        total.total_ms += static_cast<double>(span.end_ns - span.start_ns) / 1e6;
        ++total.calls;
    }
    return total;
}

bool
Checker::expect(bool ok, const std::string& what)
{
    if (!ok) {
        if (failures_ < 20)
            std::cerr << "perfbench: check failed: " << what << "\n";
        ++failures_;
    }
    return ok;
}

std::vector<std::size_t>
seededOrder(std::size_t n, std::uint64_t run_seed)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    fingrav::support::Rng rng(run_seed);
    for (std::size_t k = n; k > 1; --k) {
        const auto j = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(k) - 1));
        std::swap(order[k - 1], order[j]);
    }
    return order;
}

std::uint64_t
digest(const core::ProfileSet& set)
{
    const auto bytes = core::codec::encode(set);
    return core::codec::fnv1a64(bytes.data(), bytes.size());
}

double
median(std::vector<double> xs)
{
    return xs.empty() ? 0.0 : fingrav::support::median(std::move(xs));
}

double
percentile(std::vector<double> xs, double p)
{
    return xs.empty() ? 0.0 : fingrav::support::percentile(std::move(xs), p);
}

double
currentRssMb()
{
    std::ifstream statm("/proc/self/statm");
    long pages_total = 0;
    long pages_resident = 0;
    if (!(statm >> pages_total >> pages_resident))
        return 0.0;
    return static_cast<double>(pages_resident) *
           static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double
peakRssMb()
{
    struct rusage usage {};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void
resultSetLayers(const std::vector<core::ProfileSet>& sets, LayerValues& out)
{
    double runs = 0.0;
    double execs = 0.0;
    double lois = 0.0;
    double ssp = 0.0;
    double target = 0.0;
    double golden = 0.0;
    double examined = 0.0;
    for (const auto& set : sets) {
        runs += static_cast<double>(set.runs_executed);
        execs += static_cast<double>(set.execs_per_run);
        lois += static_cast<double>(set.sse.size() + set.ssp.size());
        ssp += static_cast<double>(set.ssp.size());
        target += static_cast<double>(set.loi_target);
        golden += static_cast<double>(set.binning.golden_runs.size());
        examined += static_cast<double>(set.binning.total_runs);
    }
    const double n = std::max<double>(1.0, static_cast<double>(sets.size()));
    out["profiler.runs"] = runs;
    out["profiler.execs_per_run"] = execs / n;
    out["profiler.lois"] = lois;
    out["profiler.loi_yield"] = target > 0.0 ? ssp / target : 0.0;
    out["binning.golden_share"] = examined > 0.0 ? golden / examined : 0.0;
}

namespace {

/** Repeat `fn` over every item until at least `min_ms` of host time. */
template <typename Fn>
double
perCallUs(Tracer& tracer, const char* span, std::size_t items, Fn fn,
          double min_ms = 5.0)
{
    if (items == 0)
        return 0.0;
    std::size_t calls = 0;
    const auto t0 = nowNs();
    do {
        for (std::size_t i = 0; i < items; ++i) {
            Scope s(tracer, span, i);
            fn(i);
        }
        calls += items;
    } while (msSince(t0) < min_ms);
    return msSince(t0) * 1e3 / static_cast<double>(calls);
}

}  // namespace

void
probeCommonLayers(Context& ctx, const std::vector<core::ScenarioSpec>& specs,
                  const std::vector<core::ProfileSet>& sets, LayerValues& out)
{
    Scope probe(ctx.tracer, kProbeSpan);
    std::size_t sink = 0;

    out["codec.key_us"] = perCallUs(ctx.tracer, "fingrav.codec.key",
                                    specs.size(), [&](std::size_t i) {
        sink += core::CampaignCache::key(specs[i], ctx.cfg).size();
    });

    std::vector<std::vector<std::uint8_t>> encoded(sets.size());
    double bytes = 0.0;
    for (std::size_t i = 0; i < sets.size(); ++i) {
        encoded[i] = core::codec::encode(sets[i]);
        bytes += static_cast<double>(encoded[i].size());
    }
    const double mean_mb =
        sets.empty() ? 0.0 : bytes / static_cast<double>(sets.size()) / 1e6;
    const double encode_us = perCallUs(
        ctx.tracer, "fingrav.codec.encode", sets.size(),
        [&](std::size_t i) { sink += core::codec::encode(sets[i]).size(); });
    const double decode_us = perCallUs(
        ctx.tracer, "fingrav.codec.decode", sets.size(), [&](std::size_t i) {
            sink += core::codec::decodeProfileSet(encoded[i]).ssp.size();
        });
    out["codec.encode_mb_per_s"] = encode_us > 0.0 ? mean_mb / (encode_us / 1e6) : 0.0;
    out["codec.decode_mb_per_s"] = decode_us > 0.0 ? mean_mb / (decode_us / 1e6) : 0.0;

    // Analysis layer on this workload's sets.  The restitch sweep times
    // the same calls inside its passes and overrides these.
    namespace an = fingrav::analysis;
    out["analysis.rail_stats_us"] = perCallUs(
        ctx.tracer, "analysis.rail_stats", sets.size(), [&](std::size_t i) {
            sink += sets[i].ssp.railStats(core::Rail::kTotal).count;
        });
    out["analysis.percentile_us"] = perCallUs(
        ctx.tracer, "analysis.percentile", sets.size(), [&](std::size_t i) {
            sink += static_cast<std::size_t>(fingrav::support::percentile(
                sets[i].ssp.railColumn(core::Rail::kTotal), 95.0));
        });
    out["analysis.summarize_us"] = perCallUs(
        ctx.tracer, "analysis.summarize", sets.size(),
        [&](std::size_t i) { sink += an::summarize(sets[i]).size(); });
    out["analysis.contention_report_us"] = perCallUs(
        ctx.tracer, "analysis.contention_report", sets.size(),
        [&](std::size_t i) {
            // A set against itself: the cost of the analysis, not a study.
            sink += an::contentionReport(an::contentionDelta(sets[i], sets[i]))
                        .size();
        });

    const core::CostModel model;
    out["cost_model.predict_us"] = perCallUs(
        ctx.tracer, "fingrav.cost_model.predict", specs.size(),
        [&](std::size_t i) {
            sink += static_cast<std::size_t>(model.predict(specs[i], ctx.cfg));
        });

    // Keep the probed calls observable.
    if (sink == 0)
        std::cerr << "perfbench: probes produced no output\n";
}

}  // namespace perfbench
