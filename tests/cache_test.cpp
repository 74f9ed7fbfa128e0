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
 *    between backends; under the fleet the driver alone fills it;
 *  - the content key separates every input that can change a result
 *    (spec fields, machine config) — near-miss lookups never collide;
 *  - the memory tier honours its byte bound via LRU eviction.
 *
 * The worker binary is the real `fingrav_cli --serve`, resolved via
 * the FINGRAV_CLI_PATH compile definition (CMakeLists.txt).
 */

#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "fingrav/campaign_cache.hpp"
#include "fingrav/campaign_runner.hpp"
#include "fingrav/codec.hpp"
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

/** A fleet of real `fingrav_cli --serve` workers. */
std::shared_ptr<fc::FleetBackend>
makeFleetBackend(std::size_t workers)
{
    fc::FleetOptions opts;
    opts.workers = workers;
    opts.worker_command = fc::defaultServeCommand(FINGRAV_CLI_PATH);
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

TEST(CampaignCache, FleetDriverFillsTheStore)
{
    // The driver owns the cache: a fleet dispatch stores each fresh
    // result once, from the driver, and the store it leaves serves a
    // later run in full.
    auto specs = fig10Specs();
    specs.resize(4);
    const auto reference = fc::CampaignRunner(1).run(specs);

    TempDir dir("fingrav_cache");
    fc::CacheOptions copts;
    copts.dir = dir.path();
    const auto driver_cache = std::make_shared<fc::CampaignCache>(copts);
    auto backend = makeFleetBackend(2);
    backend->attachCache(driver_cache);
    expectAllIdentical(reference, fc::CampaignRunner(backend).run(specs),
                       specs, "cached fleet");
    EXPECT_EQ(backend->lastStats().remote_specs, specs.size());
    EXPECT_EQ(driver_cache->stats().misses, specs.size());
    EXPECT_EQ(driver_cache->stats().stores, specs.size());
    EXPECT_EQ(driver_cache->stats().store_failures, 0u);

    const auto scan = fc::CampaignCache::scanDir(dir.path());
    EXPECT_EQ(scan.entries, specs.size());
    EXPECT_EQ(scan.valid_entries, specs.size());
    EXPECT_EQ(scan.corrupt_entries, 0u);
    EXPECT_EQ(scan.temp_files, 0u);

    // A fresh cache over the fleet-filled store re-executes nothing.
    auto cache = std::make_shared<fc::CampaignCache>(copts);
    const fc::CampaignRunner runner(2);
    runner.attachCache(cache);
    expectAllIdentical(reference, runner.run(specs), specs,
                       "fresh cache over the fleet-filled store");
    EXPECT_EQ(cache->stats().disk_hits, specs.size());
    EXPECT_EQ(cache->stats().misses, 0u);
}

namespace {

/** Everything CampaignCache::key reads. */
struct KeyInputs {
    fc::ScenarioSpec spec;
    fingrav::sim::MachineConfig cfg = fingrav::sim::mi300xConfig();
};

/** A spec with every optional set and one background load per kind. */
KeyInputs
richKeyInputs()
{
    KeyInputs in;
    in.spec.label = "AR-512MB";
    in.spec.seed = 31;
    in.spec.devices = 8;
    in.spec.opts.runs_override = 6;
    in.spec.opts.margin_override = 0.08;
    in.spec.opts.target_bin = fs::Duration::micros(120.0);
    fc::BackgroundLoad kernel;
    kernel.kernel = "CB-8K-GEMM";
    kernel.period = fs::Duration::millis(4.0);
    fc::BackgroundLoad demand;
    demand.kind = fc::BackgroundKind::kFabricDemand;
    in.spec.background = {kernel, demand};
    return in;
}

/** Change a field to another value of its type. */
template <typename T>
void
perturb(T& v)
{
    if constexpr (std::is_same_v<T, bool>) {
        v = !v;
    } else if constexpr (std::is_enum_v<T>) {
        v = static_cast<T>(static_cast<int>(v) == 0 ? 1 : 0);
    } else if constexpr (std::is_arithmetic_v<T>) {
        v = static_cast<T>(v + 1);
    } else if constexpr (std::is_same_v<T, fs::Duration>) {
        v = v + fs::Duration::nanos(1);
    } else if constexpr (std::is_same_v<T, std::string>) {
        v += "'";
    } else {
        perturb(v.value());  // every optional of richKeyInputs is set
    }
}

struct KeyMutation {
    const char* field;
    void (*mutate)(KeyInputs&);
};

#define FINGRAV_FIELD(path) {#path, [](KeyInputs& in) { perturb(in.path); }}

/** One mutator per field of every type the key encodes. */
const KeyMutation kKeyMutations[] = {
    FINGRAV_FIELD(spec.label),
    FINGRAV_FIELD(spec.seed),
    FINGRAV_FIELD(spec.devices),
    {"spec.background", [](KeyInputs& in) { in.spec.background.pop_back(); }},
    FINGRAV_FIELD(spec.opts.device),
    FINGRAV_FIELD(spec.opts.runs_override),
    FINGRAV_FIELD(spec.opts.margin_override),
    FINGRAV_FIELD(spec.opts.sse_executions),
    FINGRAV_FIELD(spec.opts.timing_reps),
    FINGRAV_FIELD(spec.opts.min_delay),
    FINGRAV_FIELD(spec.opts.max_delay),
    FINGRAV_FIELD(spec.opts.sync_mode),
    FINGRAV_FIELD(spec.opts.binning),
    FINGRAV_FIELD(spec.opts.collect_extra_runs),
    FINGRAV_FIELD(spec.opts.max_extra_run_factor),
    FINGRAV_FIELD(spec.opts.stability_eps),
    FINGRAV_FIELD(spec.opts.logger_window),
    FINGRAV_FIELD(spec.opts.target_bin),
    FINGRAV_FIELD(spec.background[0].kind),
    FINGRAV_FIELD(spec.background[0].kernel),
    FINGRAV_FIELD(spec.background[1].demand),
    FINGRAV_FIELD(spec.background[0].device),
    FINGRAV_FIELD(spec.background[0].queue),
    FINGRAV_FIELD(spec.background[0].offset),
    FINGRAV_FIELD(spec.background[0].period),
    FINGRAV_FIELD(spec.background[0].duty_cycle),
    FINGRAV_FIELD(spec.background[0].cycles),
    FINGRAV_FIELD(spec.background[0].jitter_sigma),
    FINGRAV_FIELD(cfg.num_xcds),
    FINGRAV_FIELD(cfg.cus_per_xcd),
    FINGRAV_FIELD(cfg.num_iods),
    FINGRAV_FIELD(cfg.num_hbm_stacks),
    FINGRAV_FIELD(cfg.peak_matrix_flops),
    FINGRAV_FIELD(cfg.peak_vector_flops),
    FINGRAV_FIELD(cfg.hbm_bandwidth),
    FINGRAV_FIELD(cfg.llc_bandwidth),
    FINGRAV_FIELD(cfg.llc_capacity),
    FINGRAV_FIELD(cfg.l2_capacity_per_xcd),
    FINGRAV_FIELD(cfg.hbm_capacity),
    FINGRAV_FIELD(cfg.node_gpus),
    FINGRAV_FIELD(cfg.fabric_links),
    FINGRAV_FIELD(cfg.fabric_link_bandwidth),
    FINGRAV_FIELD(cfg.boost_frequency_hz),
    FINGRAV_FIELD(cfg.nominal_frequency_hz),
    FINGRAV_FIELD(cfg.idle_frequency_hz),
    FINGRAV_FIELD(cfg.timestamp_tick),
    FINGRAV_FIELD(cfg.gpu_clock_drift_ppm),
    FINGRAV_FIELD(cfg.power_step),
    FINGRAV_FIELD(cfg.idle_step),
    FINGRAV_FIELD(cfg.logger_window),
    FINGRAV_FIELD(cfg.logger_noise_w),
    FINGRAV_FIELD(cfg.launch_overhead),
    FINGRAV_FIELD(cfg.sync_overhead),
    FINGRAV_FIELD(cfg.timestamp_read_delay),
    FINGRAV_FIELD(cfg.timestamp_read_jitter),
    FINGRAV_FIELD(cfg.exec_time_sigma),
    FINGRAV_FIELD(cfg.outlier_run_probability),
    FINGRAV_FIELD(cfg.outlier_slowdown_min),
    FINGRAV_FIELD(cfg.outlier_slowdown_max),
    FINGRAV_FIELD(cfg.power.xcd_idle_w),
    FINGRAV_FIELD(cfg.power.iod_idle_w),
    FINGRAV_FIELD(cfg.power.hbm_idle_w),
    FINGRAV_FIELD(cfg.power.misc_w),
    FINGRAV_FIELD(cfg.power.xcd_dyn_w),
    FINGRAV_FIELD(cfg.power.xcd_residency_weight),
    FINGRAV_FIELD(cfg.power.xcd_issue_weight),
    FINGRAV_FIELD(cfg.power.iod_llc_w),
    FINGRAV_FIELD(cfg.power.iod_hbmphy_w),
    FINGRAV_FIELD(cfg.power.iod_fabric_w),
    FINGRAV_FIELD(cfg.power.hbm_dyn_w),
    FINGRAV_FIELD(cfg.power.leakage_fraction),
    FINGRAV_FIELD(cfg.power.leakage_temp_coeff),
    FINGRAV_FIELD(cfg.power.t_ref_c),
    FINGRAV_FIELD(cfg.power.voltage_floor),
    FINGRAV_FIELD(cfg.dvfs.boost_ratio),
    FINGRAV_FIELD(cfg.dvfs.min_ratio),
    FINGRAV_FIELD(cfg.dvfs.idle_ratio),
    FINGRAV_FIELD(cfg.dvfs.sustained_limit_w),
    FINGRAV_FIELD(cfg.dvfs.peak_limit_w),
    FINGRAV_FIELD(cfg.dvfs.fast_tau),
    FINGRAV_FIELD(cfg.dvfs.slow_tau),
    FINGRAV_FIELD(cfg.dvfs.excursion_cut),
    FINGRAV_FIELD(cfg.dvfs.excursion_hold),
    FINGRAV_FIELD(cfg.dvfs.kp_per_us),
    FINGRAV_FIELD(cfg.dvfs.recovery_per_us),
    FINGRAV_FIELD(cfg.dvfs.idle_park_delay),
    FINGRAV_FIELD(cfg.dvfs.boost_budget),
    FINGRAV_FIELD(cfg.dvfs.nominal_ratio),
    FINGRAV_FIELD(cfg.dvfs.recovery_guard),
    FINGRAV_FIELD(cfg.thermal.ambient_c),
    FINGRAV_FIELD(cfg.thermal.resistance_c_per_w),
    FINGRAV_FIELD(cfg.thermal.time_constant),
};

#undef FINGRAV_FIELD

}  // namespace

TEST(CampaignCache, KeySeparatesEveryField)
{
    // Every result-shaping input splits the key, and a near-miss lookup
    // against a warm cache misses instead of colliding.
    const KeyInputs base = richKeyInputs();
    const auto k0 = fc::CampaignCache::key(base.spec, base.cfg);
    TempDir dir("fingrav_cache");
    fc::CacheOptions copts;
    copts.dir = dir.path();
    fc::CampaignCache warm(copts);
    fc::ProfileSet stored;
    stored.label = base.spec.label;
    stored.read_delay_us = -0.0;
    warm.store(base.spec, base.cfg, stored);

    for (const auto& m : kKeyMutations) {
        KeyInputs in = base;
        m.mutate(in);
        const auto k = fc::CampaignCache::key(in.spec, in.cfg);
        EXPECT_NE(k, k0) << m.field;
        // The mutated value survives the codec, so the key re-derives
        // from the decoded inputs.
        const auto spec = fc::codec::encode(in.spec);
        const auto cfg = fc::codec::encode(in.cfg);
        EXPECT_EQ(fc::CampaignCache::key(
                      fc::codec::decode<fc::ScenarioSpec>(spec),
                      fc::codec::decode<fingrav::sim::MachineConfig>(cfg)),
                  k)
            << m.field;
        EXPECT_FALSE(warm.lookup(in.spec, in.cfg).has_value()) << m.field;
    }
    EXPECT_EQ(k0, fc::CampaignCache::key(base.spec, base.cfg));
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
