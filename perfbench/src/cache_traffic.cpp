/**
 * @file
 * Workload cache_traffic: the content-addressed campaign cache.
 *
 * Set-up executes a set of distinct specs once, at reduced run budgets,
 * so the encoded ProfileSets span a few hundred KB to about 1 MB.  Each
 * pass then
 *   1. stores every result into a fresh on-disk store (writes),
 *   2. looks every result up through a fresh CampaignCache over that
 *      store (disk reads), and
 *   3. replays lookups in a fixed skewed (Zipf 1.3) order with a memory
 *      bound of half the working set, so memory hits, evictions and disk
 *      re-reads mix.
 * The run seed orders the stores; the specs keep fixed seeds.
 * It is the one workload where codec, cache key and store dominate.
 *
 * Checks: every hit equals its stored set, scanDir reports every blob
 * valid, and there are no misses and no corrupt misses.
 */

#include <algorithm>
#include <cmath>
#include <filesystem>

#include <unistd.h>

#include "bench.hpp"
#include "fingrav/campaign_cache.hpp"
#include "fingrav/codec.hpp"

namespace perfbench {
namespace {

namespace stdfs = std::filesystem;

/** Lookups replayed per pass, per distinct spec. */
constexpr std::size_t kReplayPerSpec = 16;

class CacheTraffic final : public Workload {
  public:
    const char* opName() const override { return "cache call"; }

    void
    setup(Context& ctx, std::size_t rep, Counters& counters) override
    {
        specs_.clear();
        // Distinct specs whose encoded sets span ~0.15 MB to ~1 MB.
        const struct {
            const char* label;
            std::size_t runs;
        } kinds[] = {
            {"CB-4K-GEMM", 200}, {"AG-512MB", 60},  {"CB-8K-GEMM", 100},
            {"AG-512MB", 200},   {"CB-4K-GEMM", 300}, {"AR-512MB", 100},
            {"AG-1GB", 200},     {"CB-8K-GEMM", 200}, {"AR-512MB", 200},
            {"AG-512MB", 120},   {"AR-1GB", 100},    {"CB-4K-GEMM", 120},
        };
        for (const auto& kind : kinds) {
            core::ScenarioSpec spec;
            spec.label = kind.label;
            spec.seed = 30001 + specs_.size();
            spec.opts.runs_override = kind.runs;
            spec.opts.collect_extra_runs = false;
            specs_.push_back(std::move(spec));
        }
        std::vector<core::ProfileSet> sets;
        working_set_ = 0;
        for (const auto& spec : specs_) {
            sets.push_back(core::CampaignRunner::runOne(spec, ctx.cfg));
            working_set_ += core::codec::encode(sets.back()).size();
        }
        counters["specs"] = static_cast<double>(specs_.size());
        counters["working_set_bytes"] = static_cast<double>(working_set_);

        // The skewed replay: spec i is looked up in proportion to
        // 1 / (i + 1)^1.3, in one fixed shuffled order.  The lookup order
        // decides how many lookups hit memory and how many bytes are
        // re-read from disk (by a third between orders), so the lookups
        // run in the same order for every run seed; the run seed orders
        // the stores.
        std::vector<double> weight;
        double total = 0.0;
        for (std::size_t i = 0; i < specs_.size(); ++i) {
            weight.push_back(1.0 / std::pow(static_cast<double>(i + 1), 1.3));
            total += weight.back();
        }
        replay_.clear();
        const double lookups = static_cast<double>(kReplayPerSpec * specs_.size());
        for (std::size_t i = 0; i < specs_.size(); ++i) {
            const auto n = static_cast<std::size_t>(
                std::lround(lookups * weight[i] / total));
            replay_.insert(replay_.end(), std::max<std::size_t>(n, 1), i);
        }
        std::vector<std::size_t> shuffled;
        for (const std::size_t k : seededOrder(replay_.size(), 299))
            shuffled.push_back(replay_[k]);
        replay_ = std::move(shuffled);
        store_order_ = seededOrder(specs_.size(), ctx.opts.seed);
        counters["replay_lookups"] = static_cast<double>(replay_.size());

        if (rep == 0) {
            sets_ = std::move(sets);
            return;
        }
        CheckScope check(ctx);
        for (std::size_t i = 0; i < sets.size(); ++i) {
            ctx.check.expect(core::identicalProfileSets(sets[i], sets_[i]),
                             specs_[i].label + ": result differs between "
                                               "set-ups");
        }
    }

    void
    pass(Context& ctx, PassResult& result) override
    {
        const bool traced = ctx.tracer.enabled();
        const std::string dir = storeDir(ctx);
        std::error_code ec;
        stdfs::remove_all(dir, ec);

        // 1. Writes into a fresh store (no memory tier).
        core::CacheOptions write_opts;
        write_opts.dir = dir;
        write_opts.memory_capacity_bytes = 0;
        core::CampaignCache writer(write_opts);
        for (const std::size_t i : store_order_) {
            const auto id = ctx.newId();
            const auto t0 = nowNs();
            {
                Scope s(ctx.tracer, "fingrav.campaign_cache.store", id);
                writer.store(specs_[i], ctx.cfg, sets_[i]);
            }
            result.op_ms.push_back(msSince(t0));
            if (traced)
                store_us_.push_back(result.op_ms.back() * 1e3);
        }

        // 2. + 3. Disk reads through a fresh cache, then the skewed replay.
        core::CacheOptions read_opts;
        read_opts.dir = dir;
        read_opts.memory_capacity_bytes = working_set_ / 2;
        core::CampaignCache reader(read_opts);
        const auto lookup = [&](std::size_t i, const char* span) {
            const auto id = ctx.newId();
            const auto hits_before = reader.stats().memory_hits;
            const auto t0 = nowNs();
            std::optional<core::ProfileSet> hit;
            {
                Scope s(ctx.tracer, span, id);
                hit = reader.lookup(specs_[i], ctx.cfg);
            }
            const double ms = msSince(t0);
            result.op_ms.push_back(ms);
            CheckScope check(ctx, id);
            if (traced) {
                (reader.stats().memory_hits > hits_before ? memory_us_
                                                          : disk_us_)
                    .push_back(ms * 1e3);
            }
            ctx.check.expect(hit.has_value() &&
                                 core::identicalProfileSets(*hit, sets_[i]),
                             specs_[i].label + ": cache hit differs from the "
                                               "stored set");
        };
        for (std::size_t i = 0; i < specs_.size(); ++i)
            lookup(i, "fingrav.campaign_cache.disk_lookup");
        for (const std::size_t i : replay_)
            lookup(i, "fingrav.campaign_cache.replay_lookup");

        const auto w = writer.stats();
        const auto r = reader.stats();
        {
            CheckScope check(ctx);
            const auto scan = core::CampaignCache::scanDir(dir);
            ctx.check.expect(scan.entries == specs_.size() &&
                                 scan.valid_entries == specs_.size() &&
                                 scan.corrupt_entries == 0 &&
                                 scan.temp_files == 0,
                             "scanDir: store not fully valid");
            ctx.check.expect(r.misses == 0 && r.corrupt_misses == 0 &&
                                 w.store_failures == 0,
                             "cache reported misses or store failures");
        }
        stdfs::remove_all(dir, ec);

        auto& c = result.counters;
        c["cache.memory_hits"] = static_cast<double>(r.memory_hits);
        c["cache.disk_hits"] = static_cast<double>(r.disk_hits);
        c["cache.misses"] = static_cast<double>(r.misses);
        c["cache.corrupt_misses"] = static_cast<double>(r.corrupt_misses);
        c["cache.evictions"] = static_cast<double>(r.evictions);
        c["cache.stores"] = static_cast<double>(w.stores + r.stores);
        c["cache.store_failures"] =
            static_cast<double>(w.store_failures + r.store_failures);
        c["cache.disk_bytes_read"] = static_cast<double>(r.disk_bytes_read);
        c["cache.disk_bytes_written"] =
            static_cast<double>(w.disk_bytes_written + r.disk_bytes_written);
        c["cache.hit_ratio"] =
            r.lookups() ? static_cast<double>(r.hits()) / r.lookups() : 0.0;
        last_counters_ = c;
    }

    void
    layers(Context& ctx, LayerValues& out) override
    {
        for (const auto& [name, value] : last_counters_)
            out[name] = value;
        out["cache.store_us"] = median(store_us_);
        out["cache.disk_lookup_us"] = median(disk_us_);
        out["cache.memory_lookup_us"] = median(memory_us_);
        resultSetLayers(sets_, out);
        probeCommonLayers(ctx, specs_, sets_, out);
    }

    void
    finish(Context& ctx) override
    {
        std::error_code ec;
        stdfs::remove_all(storeDir(ctx), ec);
    }

  private:
    static std::string
    storeDir(const Context& ctx)
    {
        return (stdfs::path(ctx.opts.state_dir) /
                ("cache-store-" + std::to_string(::getpid())))
            .string();
    }

    std::vector<core::ScenarioSpec> specs_;
    std::vector<core::ProfileSet> sets_;
    std::size_t working_set_ = 0;
    std::vector<std::size_t> store_order_;
    std::vector<std::size_t> replay_;
    Counters last_counters_;
    std::vector<double> store_us_;
    std::vector<double> disk_us_;
    std::vector<double> memory_us_;
};

}  // namespace

std::unique_ptr<Workload>
makeCacheTraffic()
{
    return std::make_unique<CacheTraffic>();
}

}  // namespace perfbench
