/**
 * @file
 * CampaignCache contract: memoization must be invisible in the results.
 *
 * The gates, in order of importance:
 *  - a warm cache serves repeated sweeps with ZERO re-executions (the
 *    stats observable) and bit-identical ProfileSets, under both the
 *    thread-pool and the fleet backend — a fresh fleet over a warm store
 *    must not even spawn workers;
 *  - the on-disk tier survives the process boundary (a fresh cache
 *    instance over the same store serves disk hits) and is shared
 *    between backends and with worker processes;
 *  - the content key separates every input that can change a result
 *    (spec fields, machine config) — near-miss lookups never collide —
 *    and nothing that only places work (advance_threads);
 *  - profile_fn specs bypass the cache entirely, mirroring the wire;
 *  - the memory tier honours its byte bound via LRU eviction.
 *
 * The worker binary is the real `fingrav_cli --serve`, resolved via
 * the FINGRAV_CLI_PATH compile definition (CMakeLists.txt).
 */

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fingrav/campaign_cache.hpp"
#include "fingrav/campaign_runner.hpp"
#include "fingrav/execution_backend.hpp"
#include "fingrav/worker_fleet.hpp"
#include "support/logging.hpp"
#include "tests/test_fixtures.hpp"

#ifndef FINGRAV_CLI_PATH
#error "FINGRAV_CLI_PATH must point at the fingrav_cli binary"
#endif

namespace fc = fingrav::core;
namespace fs = fingrav::support;

namespace {

using fingrav::testing::TempDir;
using fingrav::testing::expectAllIdentical;

/** The shared Fig. 10 gate set at a cache-test-sized run budget. */
std::vector<fc::ScenarioSpec>
fig10Specs()
{
    return fingrav::testing::fig10Specs(4);
}

/** A fleet of real `fingrav_cli --serve` workers, plus extra argv. */
std::shared_ptr<fc::FleetBackend>
makeFleetBackend(std::size_t workers,
                 const std::vector<std::string>& extra_args = {})
{
    fc::FleetOptions opts;
    opts.workers = workers;
    opts.worker_command = fc::defaultServeCommand(FINGRAV_CLI_PATH);
    opts.worker_command.insert(opts.worker_command.end(),
                               extra_args.begin(), extra_args.end());
    return std::make_shared<fc::FleetBackend>(opts);
}

}  // namespace

TEST(CampaignCache, WarmSweepZeroReexecutionsThreadPool)
{
    // The acceptance gate: a repeated sweep through CampaignRunner with
    // a warm cache performs zero re-executions, bitwise invisibly.
    const auto specs = fig10Specs();
    const auto reference = fc::CampaignRunner(1).run(specs);

    TempDir dir("fingrav_cache");
    fc::CacheOptions copts;
    copts.dir = dir.path();
    auto cache = std::make_shared<fc::CampaignCache>(copts);
    const fc::CampaignRunner runner(4);
    runner.attachCache(cache);

    // Pass 1 (cold): every spec misses, executes and is stored.
    expectAllIdentical(reference, runner.run(specs), specs, "cold pass");
    const auto cold = cache->stats();
    EXPECT_EQ(cold.misses, specs.size());
    EXPECT_EQ(cold.stores, specs.size());
    EXPECT_EQ(cold.hits(), 0u);

    // Passes 2..6 (warm): zero re-executions — no misses, no stores —
    // and bit-identical results every time.
    for (int pass = 2; pass <= 6; ++pass) {
        expectAllIdentical(reference, runner.run(specs), specs,
                           "warm pass");
        const auto warm = cache->stats();
        EXPECT_EQ(warm.misses, cold.misses) << "pass " << pass;
        EXPECT_EQ(warm.stores, cold.stores) << "pass " << pass;
    }
    const auto final_stats = cache->stats();
    EXPECT_EQ(final_stats.hits(), 5 * specs.size());
    EXPECT_EQ(final_stats.memory_hits, 5 * specs.size())
        << "warm passes must be served from the memory tier";
}

TEST(CampaignCache, WarmSweepZeroWorkersFleet)
{
    // Same gate through the fleet: a fully cached run must not place
    // anything.  Residents would hide a spawn on a reused backend, so
    // every warm pass gets a fresh fleet — which must never fork a
    // worker and must put zero specs on the wire.
    auto specs = fig10Specs();
    specs.resize(4);
    const auto reference = fc::CampaignRunner(1).run(specs);

    TempDir dir("fingrav_cache");
    fc::CacheOptions copts;
    copts.dir = dir.path();
    const auto cache = std::make_shared<fc::CampaignCache>(copts);

    auto cold = makeFleetBackend(2);
    cold->attachCache(cache);
    expectAllIdentical(reference, fc::CampaignRunner(cold).run(specs),
                       specs, "cold fleet");
    EXPECT_EQ(cold->lastStats().remote_specs, specs.size());
    EXPECT_EQ(cold->lastStats().cached_specs, 0u);

    for (int pass = 2; pass <= 6; ++pass) {
        auto warm = makeFleetBackend(2);
        warm->attachCache(cache);
        expectAllIdentical(reference, fc::CampaignRunner(warm).run(specs),
                           specs, "warm fleet");
        EXPECT_EQ(warm->lastStats().workers_spawned, 0u)
            << "pass " << pass
            << ": a warm run must not spawn worker processes";
        EXPECT_EQ(warm->fleet().lifetimeSpawns(), 0u) << "pass " << pass;
        EXPECT_EQ(warm->lastStats().remote_specs, 0u);
        EXPECT_EQ(warm->lastStats().cached_specs, specs.size());
    }
}

TEST(CampaignCache, CachedFleetBitIdenticalAcrossWorkerCounts)
{
    // Cached-vs-uncached identity for every placement: serial reference
    // vs cold-cached and warm-cached execution at 1/2/4 workers.
    auto specs = fig10Specs();
    specs.resize(6);
    const auto reference = fc::CampaignRunner(1).run(specs);

    for (const std::size_t workers : {1u, 2u, 4u}) {
        TempDir dir("fingrav_cache");
        fc::CacheOptions copts;
        copts.dir = dir.path();
        auto backend = makeFleetBackend(workers);
        backend->attachCache(std::make_shared<fc::CampaignCache>(copts));
        const fc::CampaignRunner runner(backend);
        expectAllIdentical(reference, runner.run(specs), specs,
                           "cold cached fleet");
        expectAllIdentical(reference, runner.run(specs), specs,
                           "warm cached fleet");
        EXPECT_EQ(backend->lastStats().cached_specs, specs.size())
            << workers << " workers";
    }
}

TEST(CampaignCache, DiskTierSurvivesProcessBoundary)
{
    // A fresh cache instance over the same store (the "new process"
    // case) must serve everything from disk, bit-identically.
    auto specs = fig10Specs();
    specs.resize(3);
    const auto reference = fc::CampaignRunner(1).run(specs);

    TempDir dir("fingrav_cache");
    fc::CacheOptions copts;
    copts.dir = dir.path();
    {
        const fc::CampaignRunner writer(2);
        writer.attachCache(std::make_shared<fc::CampaignCache>(copts));
        writer.run(specs);
    }

    auto cache = std::make_shared<fc::CampaignCache>(copts);
    const fc::CampaignRunner reader(2);
    reader.attachCache(cache);
    expectAllIdentical(reference, reader.run(specs), specs,
                       "fresh instance over warm store");
    const auto stats = cache->stats();
    EXPECT_EQ(stats.disk_hits, specs.size());
    EXPECT_EQ(stats.misses, 0u);
    EXPECT_EQ(stats.stores, 0u);
    EXPECT_GT(stats.disk_bytes_read, 0u);

    // And the store itself fully revalidates.
    const auto scan = fc::CampaignCache::scanDir(dir.path());
    EXPECT_EQ(scan.entries, specs.size());
    EXPECT_EQ(scan.valid_entries, specs.size());
    EXPECT_EQ(scan.corrupt_entries, 0u);
    EXPECT_EQ(scan.temp_files, 0u);
}

TEST(CampaignCache, StoreIsSharedAcrossBackends)
{
    // Warm written by the thread pool, served to the fleet backend (and
    // the reverse order implicitly via the zero-worker observable).
    auto specs = fig10Specs();
    specs.resize(4);
    const auto reference = fc::CampaignRunner(1).run(specs);

    TempDir dir("fingrav_cache");
    fc::CacheOptions copts;
    copts.dir = dir.path();
    {
        const fc::CampaignRunner pool_runner(4);
        pool_runner.attachCache(std::make_shared<fc::CampaignCache>(copts));
        pool_runner.run(specs);
    }

    auto backend = makeFleetBackend(2);
    backend->attachCache(std::make_shared<fc::CampaignCache>(copts));
    expectAllIdentical(reference,
                       fc::CampaignRunner(backend).run(specs), specs,
                       "fleet backend over pool-written store");
    EXPECT_EQ(backend->lastStats().workers_spawned, 0u);
    EXPECT_EQ(backend->fleet().lifetimeSpawns(), 0u);
    EXPECT_EQ(backend->lastStats().cached_specs, specs.size());
}

TEST(CampaignCache, WorkerProcessesShareTheStore)
{
    // Workers spawned with --serve --cache-dir feed the same store the
    // driver uses: one fleet dispatch populates it end to end.
    auto specs = fig10Specs();
    specs.resize(4);
    const auto reference = fc::CampaignRunner(1).run(specs);

    TempDir dir("fingrav_cache");
    auto backend = makeFleetBackend(2, {"--cache-dir", dir.path()});
    expectAllIdentical(reference,
                       fc::CampaignRunner(backend).run(specs), specs,
                       "workers with --cache-dir");
    EXPECT_EQ(backend->lastStats().remote_specs, specs.size());

    const auto scan = fc::CampaignCache::scanDir(dir.path());
    EXPECT_EQ(scan.valid_entries, specs.size());
    EXPECT_EQ(scan.corrupt_entries, 0u);

    // A cached driver over the worker-written store re-executes nothing.
    fc::CacheOptions copts;
    copts.dir = dir.path();
    auto cache = std::make_shared<fc::CampaignCache>(copts);
    const fc::CampaignRunner runner(2);
    runner.attachCache(cache);
    expectAllIdentical(reference, runner.run(specs), specs,
                       "driver over worker-written store");
    EXPECT_EQ(cache->stats().disk_hits, specs.size());
    EXPECT_EQ(cache->stats().misses, 0u);
}

TEST(CampaignCache, KeySeparatesEveryResultShapingInput)
{
    const auto cfg = fingrav::sim::mi300xConfig();
    auto specs = fig10Specs();
    fc::ScenarioSpec base = specs.front();
    const auto k0 = fc::CampaignCache::key(base, cfg);

    fc::ScenarioSpec seed = base;
    seed.seed += 1;
    EXPECT_NE(fc::CampaignCache::key(seed, cfg), k0);

    fc::ScenarioSpec label = base;
    label.label = "AR-64KB";
    EXPECT_NE(fc::CampaignCache::key(label, cfg), k0);

    fc::ScenarioSpec opts = base;
    opts.opts.runs_override = *opts.opts.runs_override + 1;
    EXPECT_NE(fc::CampaignCache::key(opts, cfg), k0);

    fc::ScenarioSpec background = base;
    fc::BackgroundLoad demand;
    demand.kind = fc::BackgroundKind::kFabricDemand;
    demand.demand = 0.4;
    background.background.push_back(demand);
    EXPECT_NE(fc::CampaignCache::key(background, cfg), k0);

    auto other_cfg = cfg;
    other_cfg.node_gpus = cfg.node_gpus / 2;
    EXPECT_NE(fc::CampaignCache::key(base, other_cfg), k0);

    // A near-miss lookup against a warm cache must miss, not collide.
    fc::CampaignCache cache;
    cache.store(base, cfg, fc::CampaignRunner::runOne(base, cfg));
    EXPECT_TRUE(cache.lookup(base, cfg).has_value());
    EXPECT_FALSE(cache.lookup(seed, cfg).has_value());
    EXPECT_FALSE(cache.lookup(base, other_cfg).has_value());
}

TEST(CampaignCache, KeyIgnoresPlacementOnlyAdvanceThreads)
{
    // advance_threads only places device stepping on threads, so one
    // campaign must have one key on every host: a store written under 8
    // threads (or a capped worker count) serves a lookup at 1.
    const auto spec = fig10Specs().front();
    const auto at = [](std::size_t threads) {
        auto cfg = fingrav::sim::mi300xConfig();
        cfg.advance_threads = threads;
        return cfg;
    };
    const auto k1 = fc::CampaignCache::key(spec, at(1));
    EXPECT_EQ(fc::CampaignCache::key(spec, at(2)), k1);
    EXPECT_EQ(fc::CampaignCache::key(spec, at(8)), k1);
    EXPECT_EQ(fc::CampaignCache::key(spec, fingrav::sim::mi300xConfig()), k1)
        << "the default config's key must keep its bytes";

    TempDir dir("fingrav_cache");
    fc::CacheOptions copts;
    copts.dir = dir.path();
    const auto set = fc::CampaignRunner::runOne(spec, at(8));
    fc::CampaignCache(copts).store(spec, at(8), set);
    fc::CampaignCache reader(copts);
    const auto hit = reader.lookup(spec, at(1));
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(fc::identicalProfileSets(*hit, set));
    EXPECT_EQ(reader.stats().disk_hits, 1u);
    EXPECT_EQ(reader.stats().misses, 0u);
}

TEST(CampaignCache, ProfileFnSpecsBypassTheCache)
{
    // A custom profiling procedure has no canonical bytes; it must
    // bypass the cache (counted) while its siblings are served.
    auto specs = fig10Specs();
    specs.resize(3);
    fc::ScenarioSpec custom = specs[1];
    custom.profile_fn = fc::makeProfileFn(
        [](fingrav::runtime::HostRuntime& host,
           const fc::ProfilerOptions& opts, fs::Rng rng) {
            return fc::Profiler(host, opts, std::move(rng));
        });
    specs[1] = custom;
    const auto reference = fc::CampaignRunner(1).run(specs);

    EXPECT_FALSE(fc::CampaignCache::cacheable(custom));
    EXPECT_THROW(fc::CampaignCache::key(custom,
                                        fingrav::sim::mi300xConfig()),
                 fs::FatalError);

    auto cache = std::make_shared<fc::CampaignCache>();
    const fc::CampaignRunner runner(2);
    runner.attachCache(cache);
    expectAllIdentical(reference, runner.run(specs), specs, "cold mixed");
    expectAllIdentical(reference, runner.run(specs), specs, "warm mixed");
    const auto stats = cache->stats();
    EXPECT_EQ(stats.stores, 2u) << "the profile_fn spec must not be stored";
    EXPECT_EQ(stats.uncacheable, 2u) << "one bypass per pass";
    EXPECT_EQ(stats.hits(), 2u) << "the two wire-safe specs, second pass";
}

TEST(CampaignCache, MemoryTierHonoursByteBoundViaLru)
{
    auto specs = fig10Specs();
    specs.resize(4);
    const auto cfg = fingrav::sim::mi300xConfig();

    // First find the real entry weights, then bound the cache to hold
    // only some of them.
    fc::CampaignCache probe;
    for (const auto& spec : specs)
        probe.store(spec, cfg, fc::CampaignRunner::runOne(spec, cfg));
    const auto all_bytes = probe.stats().memory_bytes;
    ASSERT_GT(all_bytes, 0u);

    fc::CacheOptions copts;
    copts.memory_capacity_bytes = all_bytes / 2;
    fc::CampaignCache cache(copts);
    for (const auto& spec : specs)
        cache.store(spec, cfg, fc::CampaignRunner::runOne(spec, cfg));
    const auto stats = cache.stats();
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_LE(stats.memory_bytes, copts.memory_capacity_bytes);
    EXPECT_LT(stats.memory_entries, specs.size());

    // With no disk tier, evicted entries are genuinely gone: the
    // oldest (never-touched) entry is always the first victim.  An
    // oversized newest entry may legitimately evict even itself, so no
    // survival is asserted — only the bound and the eviction order.
    EXPECT_FALSE(cache.lookup(specs.front(), cfg).has_value());
}

TEST(CampaignCache, ZeroCapacityMemoryTierStillServesDisk)
{
    // memory_capacity_bytes = 0 turns the LRU off; the disk tier alone
    // must still serve bit-identical results.
    auto specs = fig10Specs();
    specs.resize(2);
    const auto reference = fc::CampaignRunner(1).run(specs);

    TempDir dir("fingrav_cache");
    fc::CacheOptions copts;
    copts.dir = dir.path();
    copts.memory_capacity_bytes = 0;
    auto cache = std::make_shared<fc::CampaignCache>(copts);
    const fc::CampaignRunner runner(1);
    runner.attachCache(cache);
    expectAllIdentical(reference, runner.run(specs), specs, "cold");
    expectAllIdentical(reference, runner.run(specs), specs, "warm");
    const auto stats = cache->stats();
    EXPECT_EQ(stats.disk_hits, specs.size());
    EXPECT_EQ(stats.memory_hits, 0u);
    EXPECT_EQ(stats.memory_entries, 0u);
}
