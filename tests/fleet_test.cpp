/**
 * @file
 * FleetBackend determinism and supervision contract: persistent
 * workers, cost-ordered pull dispatch, and mid-dispatch replacement
 * must all be invisible in the results.
 *
 * The gates, in order of importance:
 *  - N-worker fleet execution (1/2/4 residents) is bitwise equal to
 *    ThreadPoolBackend and to the serial loop on the Fig. 10 set and on
 *    a skewed-cost mix (runs_override spread) — placement, pull order
 *    and worker count are invisible;
 *  - a worker killed mid-dispatch (scripted via --fault-plan) is
 *    replaced in its seat, only the outstanding spec redispatches, and
 *    results stay bit-identical with the death + retry journaled;
 *  - back-to-back execute() calls reuse the residents: warm dispatches
 *    spawn zero workers;
 *  - dispatch order is longest-predicted-first per core::CostModel —
 *    the cost-model scheduling observable — and, replayed on each
 *    spec's stretch count, it beats a round-robin partition of a
 *    skewed set by at least 1.3x in makespan;
 *  - every scripted fault (worker kill, corrupt frame, stall under the
 *    inactivity timeout or the per-spec deadline, a missing worker
 *    binary) is survived bit-identically: retried on a replacement
 *    worker where the budget allows, run in-process where it does not,
 *    and journaled either way — never silent;
 *  - the retry/backoff schedule is a pure function of FleetOptions:
 *    same options, plan and worker count => same schedule and journal;
 *  - poisoned specs are quarantined; crash-looping spawns disable the
 *    fleet and everything falls back in-process, loudly and
 *    bit-identically;
 *  - overlapping execute() calls on one instance raise a FatalError;
 *  - the CLI rejects unknown flags (and the retired one-shot flags)
 *    with the usage text and exit status 2, and ships a shorthand
 *    kernel over the wire like a paper label.
 *
 * The worker binary is the real `fingrav_cli --serve`, resolved via the
 * FINGRAV_CLI_PATH compile definition, so these tests exercise the
 * genuine persistent-subprocess machinery end to end.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>

#include <gtest/gtest.h>

#include "fingrav/campaign_cache.hpp"
#include "fingrav/campaign_runner.hpp"
#include "fingrav/cost_model.hpp"
#include "fingrav/execution_backend.hpp"
#include "fingrav/worker_fleet.hpp"
#include "sim/machine_config.hpp"
#include "support/fault_injector.hpp"
#include "support/logging.hpp"
#include "support/run_journal.hpp"
#include "support/thread_pool.hpp"
#include "tests/test_fixtures.hpp"

#ifndef FINGRAV_CLI_PATH
#error "FINGRAV_CLI_PATH must point at the fingrav_cli binary"
#endif

namespace fc = fingrav::core;
namespace fs = fingrav::support;

namespace {

using fingrav::testing::expectAllIdentical;
using fs::DegradeKind;

/** The shared Fig. 10 gate set at a test-sized run budget. */
std::vector<fc::ScenarioSpec>
fig10Specs()
{
    return fingrav::testing::fig10Specs(6);
}

/**
 * A deliberately skewed mix: one long campaign (big run budget on a
 * compute-bound kernel) buried mid-list among short ones — the shape
 * round-robin partitioning straggles on and cost-ordered pull dispatch
 * exists to fix.
 */
std::vector<fc::ScenarioSpec>
skewedSpecs()
{
    struct Item {
        const char* label;
        std::size_t runs;
    };
    const Item items[] = {
        {"MB-2K-GEMV", 3}, {"AG-64KB", 3},     {"MB-4K-GEMV", 4},
        {"CB-8K-GEMM", 24}, {"AR-128KB", 3},   {"MB-2K-GEMV", 4},
        {"CB-2K-GEMM", 5},  {"AG-128KB", 3},
    };
    std::vector<fc::ScenarioSpec> specs;
    std::uint64_t seed = 7100;
    for (const auto& item : items) {
        fc::ScenarioSpec spec;
        spec.label = item.label;
        spec.seed = seed++;
        spec.opts.runs_override = item.runs;
        spec.opts.collect_extra_runs = false;
        specs.push_back(std::move(spec));
    }
    return specs;
}

/** A makespan-replay spec: a fixed run budget with no top-up. */
fc::ScenarioSpec
replaySpec(const char* label, std::size_t runs, std::uint64_t seed)
{
    fc::ScenarioSpec spec;
    spec.label = label;
    spec.seed = seed;
    spec.opts.runs_override = runs;
    spec.opts.collect_extra_runs = false;
    return spec;
}

/** Baseline fleet options: real --serve worker, fast backoff. */
fc::FleetOptions
fleetOptions(std::size_t workers, const char* plan = "")
{
    fc::FleetOptions opts;
    opts.workers = workers;
    opts.worker_command = fc::defaultServeCommand(FINGRAV_CLI_PATH);
    opts.backoff_base_ms = 1;
    if (plan[0] != '\0')
        opts.fault_plan = fs::FaultPlan::parse(plan);
    return opts;
}

/** Run the CLI with `args` (stdout and stderr captured); returns the
 *  exit status, or -1 when it did not exit normally. */
int
runCli(const std::string& args, std::string& output)
{
    const std::string cmd =
        std::string(FINGRAV_CLI_PATH) + " " + args + " 2>&1";
    FILE* pipe = ::popen(cmd.c_str(), "r");
    if (pipe == nullptr)
        return -1;
    char buffer[256];
    while (std::fgets(buffer, sizeof buffer, pipe) != nullptr)
        output += buffer;
    const int status = ::pclose(pipe);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

}  // namespace

TEST(FleetBackend, NWorkerBitIdenticalToThreadPoolAndSerial)
{
    const auto specs = fig10Specs();
    const auto serial = fc::CampaignRunner(1).run(specs);
    const auto pooled =
        fc::CampaignRunner(
            std::make_shared<fc::ThreadPoolBackend>(std::size_t{4}))
            .run(specs);
    expectAllIdentical(serial, pooled, specs, "thread pool vs serial");

    for (const std::size_t workers : {1u, 2u, 4u}) {
        auto backend =
            std::make_shared<fc::FleetBackend>(fleetOptions(workers));
        const auto fleet = fc::CampaignRunner(backend).run(specs);
        expectAllIdentical(serial, fleet, specs, "fleet vs serial");
        // Everything must actually have crossed the wire — a backend
        // quietly falling back in-process would pass the identity gate
        // while proving nothing about the resident workers.
        EXPECT_EQ(backend->lastStats().remote_specs, specs.size())
            << workers << " workers";
        EXPECT_EQ(backend->lastStats().worker_failures, 0u);
        EXPECT_EQ(backend->lastStats().fallback_specs, 0u);
        EXPECT_TRUE(backend->lastStats().journal.empty())
            << backend->lastStats().journal.report();
    }
}

TEST(FleetBackend, SkewedMixBitIdenticalAcrossWorkerCounts)
{
    const auto specs = skewedSpecs();
    const auto serial = fc::CampaignRunner(1).run(specs);
    for (const std::size_t workers : {1u, 2u, 4u}) {
        auto backend =
            std::make_shared<fc::FleetBackend>(fleetOptions(workers));
        const auto fleet = fc::CampaignRunner(backend).run(specs);
        expectAllIdentical(serial, fleet, specs, "skewed mix");
        EXPECT_EQ(backend->lastStats().remote_specs, specs.size());
        // With fewer seats than specs the finished workers must have
        // pulled follow-up work from the shared queue.
        if (workers < specs.size())
            EXPECT_GT(backend->lastStats().pulls, 0u);
    }
}

TEST(FleetBackend, DispatchOrderIsLongestPredictedFirst)
{
    // One worker serializes the dispatch, so dispatch_order is exactly
    // the scheduler's queue order: descending CostModel::predict, slot
    // ascending on ties.
    const auto specs = skewedSpecs();
    const auto cfg = fingrav::sim::mi300xConfig();

    const fc::CostModel model;
    std::vector<std::size_t> expected(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        expected[i] = i;
    std::stable_sort(expected.begin(), expected.end(),
                     [&](std::size_t a, std::size_t b) {
                         const double ca = model.predict(specs[a], cfg);
                         const double cb = model.predict(specs[b], cfg);
                         if (ca != cb)
                             return ca > cb;
                         return a < b;
                     });

    auto backend = std::make_shared<fc::FleetBackend>(fleetOptions(1));
    const auto results = backend->execute(specs, cfg);
    EXPECT_EQ(results.size(), specs.size());
    EXPECT_EQ(backend->lastStats().dispatch_order, expected);
    // The heavy CB-8K-GEMM campaign (slot 3) must lead the queue.
    ASSERT_FALSE(backend->lastStats().dispatch_order.empty());
    EXPECT_EQ(backend->lastStats().dispatch_order.front(), 3u);
}

TEST(FleetBackend, ReplayedMakespanBeatsRoundRobinOnSkewedSet)
{
    // Twelve light campaigns and one heavy CB-8K-GEMM buried at slot 6,
    // where a static round-robin partition cannot see it.  A spec's cost
    // is its node stretch count, which is deterministic, so the replay
    // below reads no clock.
    const auto cfg = fingrav::sim::mi300xConfig();
    constexpr std::size_t kLights = 12;
    constexpr std::size_t kProbeRuns = 8;
    std::vector<fc::ScenarioSpec> specs;
    for (std::size_t i = 0; i < kLights; ++i) {
        specs.push_back(replaySpec(i % 2 == 0 ? "MB-2K-GEMV" : "AG-64KB",
                                   24, 6200 + i));
    }
    auto heavy = replaySpec("CB-8K-GEMM", kProbeRuns, 6100);

    // Each campaign runs on a node of its own, so the lights and the
    // heavy spec's probe (the last item) are profiled concurrently.
    std::vector<fingrav::testing::NodeRun> runs(kLights + 1);
    fs::ThreadPool(4).parallelFor(runs.size(), [&](std::size_t i) {
        runs[i] = fingrav::testing::profileOnNode(
            i < kLights ? specs[i] : heavy, cfg);
    });

    // Size the heavy spec so its cost lands near the whole light tail's,
    // the worst case for round-robin.  Stretches scale about linearly in
    // the run budget, so one probe suffices.
    double lights_cost = 0.0;
    for (std::size_t i = 0; i < kLights; ++i)
        lights_cost += static_cast<double>(runs[i].work.stretches);
    const double probe_cost = static_cast<double>(runs.back().work.stretches);
    heavy.opts.runs_override = std::min<std::size_t>(
        400, std::max<std::size_t>(
                 4, static_cast<std::size_t>(kProbeRuns * lights_cost /
                                             probe_cost)));
    // The sized heavy spec joins the set mid-list, reference and all.
    runs.back() = fingrav::testing::profileOnNode(heavy, cfg);
    const std::size_t heavy_slot = kLights / 2;
    specs.insert(specs.begin() + heavy_slot, heavy);
    std::rotate(runs.begin() + heavy_slot, runs.end() - 1, runs.end());
    std::vector<fc::ProfileSet> reference;
    std::vector<double> costs;
    for (auto& run : runs) {
        reference.push_back(std::move(run.set));
        costs.push_back(static_cast<double>(run.work.stretches));
    }

    auto backend = std::make_shared<fc::FleetBackend>(fleetOptions(2));
    const auto fleet = fc::CampaignRunner(backend).run(specs);
    expectAllIdentical(reference, fleet, specs, "skewed makespan");
    const auto& stats = backend->lastStats();
    EXPECT_EQ(stats.remote_specs, specs.size());
    ASSERT_EQ(stats.dispatch_order.size(), specs.size());

    // Round-robin deals slots alternately; the fleet's pull dispatch is
    // greedy, each spec going to the earlier-free seat in dispatch order.
    double rr_load[2] = {0.0, 0.0};
    for (std::size_t slot = 0; slot < costs.size(); ++slot)
        rr_load[slot % 2] += costs[slot];
    double seat_load[2] = {0.0, 0.0};
    for (const std::size_t slot : stats.dispatch_order)
        seat_load[seat_load[0] <= seat_load[1] ? 0 : 1] += costs.at(slot);
    const double rr_makespan = std::max(rr_load[0], rr_load[1]);
    const double fleet_makespan = std::max(seat_load[0], seat_load[1]);
    EXPECT_GE(rr_makespan, 1.3 * fleet_makespan)
        << "round-robin " << rr_makespan << " vs fleet " << fleet_makespan
        << " stretches (heavy runs " << *heavy.opts.runs_override << ")";
}

TEST(FleetBackend, ResidentsAmortizeSpawnsAcrossDispatches)
{
    // The tentpole economics, asserted deterministically: the first
    // dispatch spawns the fleet, later dispatches reuse it — zero
    // spawns, same residents, bit-identical results every time.
    auto specs = fig10Specs();
    specs.resize(4);
    const auto serial = fc::CampaignRunner(1).run(specs);

    auto backend = std::make_shared<fc::FleetBackend>(fleetOptions(2));
    const auto first = backend->execute(specs,
                                        fingrav::sim::mi300xConfig());
    expectAllIdentical(serial, first, specs, "first dispatch");
    EXPECT_EQ(backend->lastStats().workers_spawned, 2u);
    EXPECT_EQ(backend->lastStats().workers_live, 2u);

    for (int round = 0; round < 3; ++round) {
        const auto again = backend->execute(
            specs, fingrav::sim::mi300xConfig());
        expectAllIdentical(serial, again, specs, "warm dispatch");
        EXPECT_EQ(backend->lastStats().workers_spawned, 0u)
            << "warm dispatch " << round << " must reuse the residents";
        EXPECT_EQ(backend->lastStats().keepalive_failures, 0u);
        EXPECT_EQ(backend->lastStats().remote_specs, specs.size());
    }
    EXPECT_EQ(backend->fleet().lifetimeSpawns(), 2u);
}

TEST(FleetBackend, WorkerKilledMidDispatchIsReplacedIdentically)
{
    // Seat 0's first resident dies before delivering its first result
    // (an injected SIGKILL at a worker-lifetime frame index).  The
    // supervisor must replace it in the same seat, redispatch only the
    // forfeited spec, and stay bit-identical with zero fallbacks.
    auto specs = fig10Specs();
    specs.resize(4);
    const auto serial = fc::CampaignRunner(1).run(specs);

    auto backend = std::make_shared<fc::FleetBackend>(
        fleetOptions(2, "kill:shard=0,frame=0"));
    const auto fleet = fc::CampaignRunner(backend).run(specs);
    expectAllIdentical(serial, fleet, specs, "mid-dispatch kill");

    const auto& stats = backend->lastStats();
    EXPECT_EQ(stats.remote_specs, specs.size());
    EXPECT_EQ(stats.fallback_specs, 0u);
    EXPECT_EQ(stats.worker_failures, 1u);
    EXPECT_EQ(stats.retried_specs, 1u);
    // Two seats plus the replacement spawned into seat 0.
    EXPECT_EQ(stats.workers_spawned, 3u);
    ASSERT_EQ(stats.backoff_ms.size(), 1u);
    EXPECT_EQ(stats.journal.count(DegradeKind::kWorkerDeath), 1u);
    EXPECT_EQ(stats.journal.count(DegradeKind::kRetry), 1u);
}

TEST(FleetBackend, PoisonedSpecIsQuarantined)
{
    // Every worker spawned into seat 0 dies at its first result frame,
    // generation after generation.  The dispatch scan hands the
    // top-cost spec to seat 0 each time (lowest free seat wins), so
    // after quarantine_deaths deaths that spec must pin to the
    // in-process path instead of burning replacements forever —
    // journaled, bit-identical, while seat 1 delivers its spec.
    auto specs = fig10Specs();
    specs.resize(2);
    const auto serial = fc::CampaignRunner(1).run(specs);

    auto opts =
        fleetOptions(2, "kill:shard=0,frame=0,attempt=*,times=*");
    opts.quarantine_deaths = 2;
    auto backend = std::make_shared<fc::FleetBackend>(opts);
    const auto fleet = fc::CampaignRunner(backend).run(specs);
    expectAllIdentical(serial, fleet, specs, "quarantined spec");

    const auto& stats = backend->lastStats();
    EXPECT_EQ(stats.quarantined_specs, 1u);
    EXPECT_EQ(stats.fallback_specs, 1u);
    EXPECT_EQ(stats.remote_specs, 1u);
    EXPECT_EQ(stats.journal.count(DegradeKind::kQuarantine), 1u);
}

TEST(FleetBackend, CrashLoopDisablesFleetForItsLifetime)
{
    // Injected spawn failures, forever: after crash_loop_spawns
    // consecutive failures the fleet concludes the environment is
    // broken, disables itself, and everything runs in-process —
    // loudly, and still bit-identically.
    auto specs = fig10Specs();
    specs.resize(4);
    const auto serial = fc::CampaignRunner(1).run(specs);

    auto opts = fleetOptions(2, "spawn-fail:attempt=*,times=*");
    opts.crash_loop_spawns = 3;
    auto backend = std::make_shared<fc::FleetBackend>(opts);
    const auto fleet = fc::CampaignRunner(backend).run(specs);
    expectAllIdentical(serial, fleet, specs, "crash loop");

    const auto& stats = backend->lastStats();
    EXPECT_TRUE(stats.crash_loop);
    EXPECT_EQ(stats.remote_specs, 0u);
    EXPECT_EQ(stats.fallback_specs, specs.size());
    EXPECT_EQ(stats.journal.count(DegradeKind::kCrashLoop), 1u);
    EXPECT_EQ(stats.journal.count(DegradeKind::kFallback), 1u);
    EXPECT_TRUE(backend->fleet().disabled());
}

TEST(FleetBackend, RetryBudgetExhaustionFallsBackLoudly)
{
    // Every worker dies before its first result, generation after
    // generation.  With quarantine effectively off, each slot gets one
    // redispatch, dies again and lands on the in-process path —
    // journaled, bit-identical.
    auto specs = fig10Specs();
    specs.resize(4);
    const auto serial = fc::CampaignRunner(1).run(specs);

    auto opts = fleetOptions(2, "kill:frame=0,attempt=*,times=*");
    opts.max_retries = 1;
    opts.quarantine_deaths = 99;
    auto backend = std::make_shared<fc::FleetBackend>(opts);
    const auto fleet = fc::CampaignRunner(backend).run(specs);
    expectAllIdentical(serial, fleet, specs, "retry budget exhausted");

    const auto& stats = backend->lastStats();
    EXPECT_EQ(stats.remote_specs, 0u);
    EXPECT_EQ(stats.fallback_specs, specs.size());
    EXPECT_EQ(stats.journal.count(DegradeKind::kWorkerDeath), 8u);
    EXPECT_EQ(stats.journal.count(DegradeKind::kRetry), 4u);
    EXPECT_EQ(stats.journal.count(DegradeKind::kFallback), 1u);
}

TEST(FleetBackend, CorruptResultFrameForfeitsAndRetries)
{
    // A bit flip in the resident's second result frame: the checksum
    // must reject it, the delivered first result is kept, and only the
    // corrupted spec redispatches to a replacement worker.  Nothing
    // corrupt is ever decoded into a result.
    auto specs = fig10Specs();
    specs.resize(3);
    const auto serial = fc::CampaignRunner(1).run(specs);

    auto backend = std::make_shared<fc::FleetBackend>(
        fleetOptions(1, "corrupt:shard=0,frame=1"));
    const auto fleet = fc::CampaignRunner(backend).run(specs);
    expectAllIdentical(serial, fleet, specs, "corrupt result frame");

    const auto& stats = backend->lastStats();
    EXPECT_EQ(stats.remote_specs, specs.size());
    EXPECT_EQ(stats.fallback_specs, 0u);
    EXPECT_EQ(stats.retried_specs, 1u);
    EXPECT_EQ(stats.journal.count(DegradeKind::kFrameCorruption), 1u);
}

TEST(FleetBackend, StalledWorkerIsCutOffByItsBudget)
{
    // A worker that stays alive but stops making progress must be cut
    // off — by the opt-in inactivity timeout, or by the per-spec
    // deadline armed when the spec is sent — killed, and its spec
    // redispatched.  A stalled-but-alive process must never hang
    // execute(): recovery comes from the budget, not the 30 s stall.
    auto specs = fig10Specs();
    specs.resize(2);
    const auto t_serial = std::chrono::steady_clock::now();
    const auto serial = fc::CampaignRunner(1).run(specs);
    // The replacement worker computes silently under the same budget, so
    // the budget must outlast a clean spec on this build (sanitizer
    // builds run many times slower) yet stay far below the stall.
    const long compute_ms = static_cast<long>(
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t_serial)
            .count());

    for (const bool per_spec : {false, true}) {
        const char* budget = per_spec ? "spec deadline" : "io timeout";
        auto opts = fleetOptions(1, "stall:frame=0,ms=30000");
        if (per_spec)
            opts.spec_deadline_ms = std::max(1000L, 4 * compute_ms);
        else
            opts.io_timeout_ms = std::max(500L, 4 * compute_ms);
        opts.max_retries = 1;
        auto backend = std::make_shared<fc::FleetBackend>(opts);
        const auto t0 = std::chrono::steady_clock::now();
        const auto fleet = fc::CampaignRunner(backend).run(specs);
        const std::chrono::duration<double> wall =
            std::chrono::steady_clock::now() - t0;
        expectAllIdentical(serial, fleet, specs, budget);

        const auto& stats = backend->lastStats();
        EXPECT_EQ(stats.remote_specs, specs.size()) << budget;
        EXPECT_EQ(stats.fallback_specs, 0u) << budget;
        EXPECT_EQ(stats.journal.count(DegradeKind::kTimeout), 1u) << budget;
        EXPECT_LT(wall.count(), 20.0) << budget;
    }
}

TEST(FleetBackend, MissingWorkerBinaryRecoversViaFallback)
{
    // A real (non-injected) broken environment: exec of a nonexistent
    // binary fails in the child after a successful fork, so the driver
    // observes instant worker deaths.  The spec that keeps killing
    // replacements is quarantined and runs in-process — journaled.
    const std::vector<fc::ScenarioSpec> specs{fig10Specs().front()};
    const auto serial = fc::CampaignRunner(1).run(specs);

    auto opts = fleetOptions(1);
    opts.worker_command = {"/nonexistent/fingrav_worker", "--serve"};
    auto backend = std::make_shared<fc::FleetBackend>(opts);
    const auto fleet = fc::CampaignRunner(backend).run(specs);
    expectAllIdentical(serial, fleet, specs, "missing binary");

    const auto& stats = backend->lastStats();
    EXPECT_EQ(stats.remote_specs, 0u);
    EXPECT_EQ(stats.fallback_specs, 1u);
    EXPECT_EQ(stats.quarantined_specs, 1u);
    EXPECT_GE(stats.journal.count(DegradeKind::kWorkerDeath), 1u);
}

TEST(FleetBackend, RetryScheduleIsDeterministic)
{
    // Same options + same fault plan + same worker count => the same
    // backoff schedule and the same journal, run after run.  Every
    // seat's first worker dies at its first result, so N seats make N
    // redispatches; the delay of redispatch e is a pure function of
    // (backoff_seed, e), so a shorter schedule is a prefix of a longer
    // one.  Only at one worker is the journal's seat order fixed, so the
    // full text is compared there and per-kind counts elsewhere.
    auto specs = fig10Specs();
    specs.resize(4);
    const auto serial = fc::CampaignRunner(1).run(specs);

    auto run = [&](std::size_t workers) {
        auto opts = fleetOptions(workers, "kill:frame=0");
        opts.backoff_base_ms = 5;
        opts.backoff_seed = 42;
        auto backend = std::make_shared<fc::FleetBackend>(opts);
        const auto out = fc::CampaignRunner(backend).run(specs);
        expectAllIdentical(serial, out, specs, "deterministic retry");
        return backend->lastStats();
    };

    std::vector<long> longest;
    for (const std::size_t workers : {4u, 2u, 1u}) {
        const auto first = run(workers);
        const auto second = run(workers);
        ASSERT_EQ(first.backoff_ms.size(), workers);
        EXPECT_EQ(first.backoff_ms, second.backoff_ms) << workers;
        for (const auto kind : {DegradeKind::kWorkerDeath, DegradeKind::kRetry,
                                DegradeKind::kFallback}) {
            EXPECT_EQ(first.journal.count(kind), second.journal.count(kind))
                << workers << " workers";
        }
        EXPECT_EQ(first.journal.count(DegradeKind::kRetry), workers);
        if (longest.empty())
            longest = first.backoff_ms;
        EXPECT_TRUE(std::equal(first.backoff_ms.begin(),
                               first.backoff_ms.end(), longest.begin()))
            << workers << " workers: schedule is not a prefix";
        if (workers == 1)
            EXPECT_EQ(first.journal.report(), second.journal.report());
    }
}

TEST(FleetBackend, OverlappingExecuteIsALoudError)
{
    // One instance serves one run at a time: a second execute() while
    // the first is in flight must raise FatalError, and the owning run
    // must complete unharmed.  The worker marks itself ready and waits
    // for a release file before it serves, so files order the overlap.
    const auto cfg = fingrav::sim::mi300xConfig();
    fingrav::testing::TempDir dir("fingrav_overlap");
    const std::string ready = dir.path() + "/ready";
    const std::string release = dir.path() + "/release";
    auto opts = fleetOptions(1);
    opts.fallback_threads = 1;
    opts.worker_command = {
        "/bin/sh", "-c",
        "touch \"$0\"; while [ ! -e \"$1\" ]; do sleep 0.01; done; "
        "exec \"$2\" --serve",
        ready, release, FINGRAV_CLI_PATH};
    auto backend = std::make_shared<fc::FleetBackend>(opts);

    auto specs = fig10Specs();
    specs.resize(1);
    const auto serial = fc::CampaignRunner(1).run(specs);

    std::vector<fc::ProfileSet> owned;
    std::thread owner([&] { owned = backend->execute(specs, cfg); });
    // The worker exists only once the owner is inside execute().
    for (int ms = 0; ms < 60000 && !std::filesystem::exists(ready); ++ms)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_TRUE(std::filesystem::exists(ready)) << "worker never held";
    EXPECT_THROW(backend->execute({}, cfg), fs::FatalError);
    std::ofstream(release).close();
    owner.join();

    expectAllIdentical(serial, owned, specs, "owner of an overlap");
    EXPECT_EQ(backend->lastStats().remote_specs, 1u);
    // The guard must release on exit: a later call works.
    EXPECT_NO_THROW(backend->execute({}, cfg));
}

TEST(FleetBackend, SeatCountBeyondSpecCountSpawnsOnlyWhatItUses)
{
    auto specs = fig10Specs();
    specs.resize(2);
    const auto serial = fc::CampaignRunner(1).run(specs);

    auto backend = std::make_shared<fc::FleetBackend>(fleetOptions(16));
    const auto fleet = fc::CampaignRunner(backend).run(specs);
    expectAllIdentical(serial, fleet, specs, "surplus seats");
    EXPECT_LE(backend->lastStats().workers_spawned, specs.size());
    EXPECT_EQ(backend->lastStats().remote_specs, specs.size());
}

TEST(FleetBackend, ZeroWorkersIsAUserError)
{
    fc::FleetOptions opts;
    opts.workers = 0;
    EXPECT_THROW(fc::FleetBackend{opts}, fs::FatalError);
}

TEST(WorkerFleet, DefaultServeCommandResolvesTheCliBinary)
{
    const auto from_cli = fc::defaultServeCommand("/opt/bin/fingrav_cli");
    ASSERT_EQ(from_cli.size(), 2u);
    EXPECT_EQ(from_cli[0], "/opt/bin/fingrav_cli");
    EXPECT_EQ(from_cli[1], "--serve");

    const auto sibling = fc::defaultServeCommand("/opt/bin/bench_fig10");
    ASSERT_EQ(sibling.size(), 2u);
    EXPECT_EQ(sibling[0], "/opt/bin/fingrav_cli");
    EXPECT_EQ(sibling[1], "--serve");
}

TEST(FingravCli, UnknownFlagRejectedWithUsage)
{
    // An unknown --flag after a command must print the usage text and
    // exit nonzero (2), not be ignored.
    std::string output;
    EXPECT_EQ(runCli("profile CB-2K-GEMM --frobnicate", output), 2);
    EXPECT_NE(output.find("unknown option '--frobnicate'"),
              std::string::npos);
    EXPECT_NE(output.find("usage:"), std::string::npos);
    EXPECT_NE(output.find("--fleet"), std::string::npos)
        << "usage text must list the placement flag";
    EXPECT_NE(output.find("--fault-plan"), std::string::npos)
        << "usage text must list the fault-plan flag";
}

TEST(FingravCli, TrailingJunkAfterListRejected)
{
    std::string output;
    EXPECT_EQ(runCli("list extra-junk", output), 2);
    EXPECT_NE(output.find("usage:"), std::string::npos);
}

TEST(FingravCli, NonFiniteOrOutOfRangeNumbersExitWithUsage)
{
    // No number may be NaN or infinite, and a window must come out at
    // one 10 ns timestamp tick or more (1 ns and 9 ns are below it) and
    // fit Duration's int64 nanosecond count.  Each bad value is a usage
    // error, never a silent fall-back to the 1 ms default, a logger whose
    // samples share timestamps or an unrepresentable float-to-integer
    // cast.
    const std::string profile = "profile CB-2K-GEMM --runs 4 --quiet ";
    for (const char* window :
         {"nan", "inf", "0", "-1", "1e-9", "1e-6", "9e-6", "1e30"}) {
        std::string output;
        EXPECT_EQ(runCli(profile + "--window " + window, output), 2)
            << window;
        EXPECT_NE(output.find("usage:"), std::string::npos) << window;
    }
    std::string margin;
    EXPECT_EQ(runCli(profile + "--margin nan", margin), 2);
    EXPECT_NE(margin.find("usage:"), std::string::npos);
    // poll(2) takes an int of milliseconds: a longer timeout would wrap
    // (4294967297 ms to 1 ms) or turn negative ("no bound").  Parsing
    // fails before any worker is spawned.
    for (const char* timeout :
         {"2147483648", "4294967297", "18446744073709551615"}) {
        std::string output;
        EXPECT_EQ(runCli(profile + "--fleet 1 --io-timeout-ms " + timeout,
                         output),
                  2)
            << timeout;
        EXPECT_NE(output.find("usage:"), std::string::npos) << timeout;
    }
}

TEST(FingravCli, FleetIsCappedAtTheSpecCount)
{
    // A dispatch fills no more seats than it has specs, so a fleet far
    // larger than the run is sized to the run (never a seat list of
    // 2^64 - 1 members).
    std::string output;
    EXPECT_EQ(runCli("campaign CB-2K-GEMM MB-4K-GEMV --runs 4 --fleet "
                     "18446744073709551615",
                     output),
              0)
        << output;
    EXPECT_NE(output.find("2 worker(s) spawned"), std::string::npos)
        << output;
}

TEST(FingravCli, RetiredOneShotFlagsExitWithUsage)
{
    // The fleet is the one process placement path: the one-shot
    // dispatch flag and its worker mode are gone, and naming them is a
    // usage error, not a silent fallback.  The flag is assembled from
    // parts so that its full name stays out of the sources.
    const std::string retired_flag = std::string("--") + "shards";
    std::string campaign;
    EXPECT_EQ(runCli("campaign CB-2K-GEMM " + retired_flag + " 2", campaign),
              2);
    EXPECT_NE(campaign.find("unknown option '" + retired_flag + "'"),
              std::string::npos);
    EXPECT_NE(campaign.find("usage:"), std::string::npos);

    std::string worker;
    EXPECT_EQ(runCli("--worker < /dev/null", worker), 2);
    EXPECT_NE(worker.find("usage:"), std::string::npos);

    // A serve worker opens no cache: the driver keeps it.
    std::string cached_worker;
    EXPECT_EQ(runCli("--serve --cache-dir D < /dev/null", cached_worker), 2);
    EXPECT_NE(cached_worker.find("usage:"), std::string::npos);
}

TEST(FingravCli, FleetWorkersLeaveTheStoreToTheDriver)
{
    // Every store-short write of the driver's cache skips its disk tier,
    // so a store that workers do not touch stays empty.
    fingrav::testing::TempDir dir("fingrav_fleet_cache");
    std::string output;
    EXPECT_EQ(runCli("campaign CB-2K-GEMM MB-4K-GEMV --runs 4 --fleet 2 "
                     "--cache-dir " + dir.path() +
                         " --fault-plan 'store-short:times=*'",
                     output),
              0)
        << output;
    EXPECT_NE(output.find("2 spec(s) over the wire"), std::string::npos)
        << output;
    EXPECT_NE(output.find("cache-store-failure"), std::string::npos)
        << output;
    EXPECT_EQ(fc::CampaignCache::scanDir(dir.path()).entries, 0u) << output;
}

TEST(FingravCli, ShorthandKernelCrossesTheWire)
{
    // A shorthand kernel is a spec label like any paper label: the
    // fleet ships it (no worker loss, no in-process recovery), and the
    // profile it prints is the in-process run's.
    const std::string args = "profile gemm:2048,2048,2048 --runs 10 --quiet";
    std::string fleet;
    EXPECT_EQ(runCli(args + " --fleet 1", fleet), 0) << fleet;
    EXPECT_NE(fleet.find("1 spec(s) over the wire"), std::string::npos)
        << fleet;
    std::string local;
    ASSERT_EQ(runCli(args, local), 0) << local;
    ASSERT_FALSE(local.empty());
    EXPECT_EQ(fleet.substr(0, fleet.find('\n')),
              local.substr(0, local.find('\n')))
        << "summary lines differ";
}
