/**
 * @file
 * Persistent-fleet benchmark: cost-scheduled pull dispatch over
 * resident worker processes, with bit-identity verification throughout.
 *
 * Three scenarios track the multi-process leg of the scaling story
 * (after event-driven stepping, parallel node stepping and campaign
 * threading):
 *
 *  1. skewed_makespan — a campaign set with one long scenario buried
 *     among short ones, self-tuned so the heavy spec's wall clock is
 *     comparable to the whole light tail.  A static round-robin
 *     partition over 2 workers straggles: whichever worker draws the
 *     heavy spec also drags half the lights behind it.  Cost-scheduled
 *     pull dispatch (FleetBackend, 2 workers) starts the heavy spec
 *     first and streams the lights through the other worker, so the
 *     makespan collapses toward max(heavy, lights).  Both schedules are
 *     replayed against the measured per-spec costs, so the >= 1.3x
 *     makespan_speedup gate holds on any host.  Any bitwise divergence
 *     from the serial reference is a hard failure.
 *
 *  2. spawn_amortization — five back-to-back dispatches through ONE
 *     FleetBackend vs the placement-matched in-process reference.  The
 *     first dispatch pays worker spawns (first_overhead_ms is the
 *     one-shot dispatch overhead); later dispatches reuse the residents
 *     (workers_spawned must be 0 — enforced), so per-dispatch overhead
 *     must drop >= 2x by the fifth dispatch.
 *
 *  3. degraded_fleet — the supervision gate on the fleet: a scripted
 *     worker kill mid-dispatch must be recovered by a replacement
 *     worker in the same seat, bit-identically, with a non-empty
 *     degradation journal (a silent recovery is a failure).
 *
 * Results go to BENCH_fleet.json via tools/bench_json.hpp; CI feeds the
 * file through tools/bench_regression.py (docs/PERFORMANCE.md).
 *
 * Usage: bench_fleet [--smoke] [--out PATH] [--worker PATH]
 *   --smoke   reduced budgets (CI)
 *   --out     output JSON path (default BENCH_fleet.json)
 *   --worker  fingrav_cli binary (default: next to this executable)
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "fingrav/campaign_runner.hpp"
#include "fingrav/execution_backend.hpp"
#include "fingrav/worker_fleet.hpp"
#include "support/fault_injector.hpp"
#include "tests/test_fixtures.hpp"
#include "tools/bench_json.hpp"

namespace fc = fingrav::core;
namespace fsup = fingrav::support;
namespace tools = fingrav::tools;

namespace {

using fingrav::testing::identicalSets;

std::string g_cli_path;

double
wallMs(const std::chrono::steady_clock::time_point& t0)
{
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

fc::ScenarioSpec
makeSpec(const char* label, std::size_t runs, std::uint64_t seed)
{
    fc::ScenarioSpec spec;
    spec.label = label;
    spec.seed = seed;
    spec.opts.runs_override = runs;
    spec.opts.collect_extra_runs = false;
    return spec;
}

fc::FleetOptions
fleetOptions(std::size_t workers)
{
    fc::FleetOptions opts;
    opts.workers = workers;
    opts.worker_command = {g_cli_path, "--serve"};
    return opts;
}

// ---------------------------------------------------------------------------
// Scenario 1: skewed-campaign makespan, pull dispatch vs round-robin
// ---------------------------------------------------------------------------

bool
runSkewedMakespan(tools::BenchReport& report, bool smoke)
{
    // The light tail: short memory-bound campaigns, cheap but numerous.
    // The run budget keeps per-spec compute well above the wire and
    // spawn overheads, so the makespan ratio measures scheduling.
    const std::size_t n_lights = smoke ? 12 : 16;
    const std::size_t light_runs = smoke ? 24 : 48;
    std::vector<fc::ScenarioSpec> lights;
    for (std::size_t i = 0; i < n_lights; ++i) {
        lights.push_back(makeSpec(i % 2 == 0 ? "MB-2K-GEMV" : "AG-64KB",
                                  light_runs, 6200 + i));
    }

    // Per-spec serial pass: one timed run per campaign gives both the
    // bitwise reference and the measured costs the schedule replay
    // uses.  Campaigns are independent and seeded, so running them one
    // at a time is bit-identical to the batch serial path.
    std::vector<fc::ProfileSet> serial;
    std::vector<double> costs;
    double lights_ms = 0.0;
    for (const auto& light : lights) {
        const auto t0 = std::chrono::steady_clock::now();
        auto one = fc::CampaignRunner(1).run({light});
        costs.push_back(std::max(wallMs(t0), 0.01));
        lights_ms += costs.back();
        serial.push_back(std::move(one.front()));
    }

    // Self-tune the heavy spec so its wall clock lands near the whole
    // light tail's (the worst case for static round-robin; the
    // >= 1.3x window tolerates ~2.5x mistuning either way).  Campaign
    // wall scales ~linearly in the run budget, so one probe suffices.
    const std::size_t probe_runs = 8;
    auto heavy = makeSpec("CB-8K-GEMM", probe_runs, 6100);
    const auto t_probe0 = std::chrono::steady_clock::now();
    fc::CampaignRunner(1).run({heavy});
    const double probe_ms = std::max(wallMs(t_probe0), 0.1);

    const double scaled = static_cast<double>(probe_runs) *
                          (lights_ms / probe_ms);
    const std::size_t heavy_runs = std::min<std::size_t>(
        smoke ? 400 : 1200,
        std::max<std::size_t>(4, static_cast<std::size_t>(scaled)));
    heavy.opts.runs_override = heavy_runs;

    // The heavy spec rides mid-list, where round-robin can't see it.
    const std::size_t heavy_slot = n_lights / 2;
    std::vector<fc::ScenarioSpec> specs = lights;
    specs.insert(specs.begin() + static_cast<long>(heavy_slot), heavy);
    const auto t_heavy0 = std::chrono::steady_clock::now();
    auto heavy_one = fc::CampaignRunner(1).run({heavy});
    costs.insert(costs.begin() + static_cast<long>(heavy_slot),
                 std::max(wallMs(t_heavy0), 0.01));
    serial.insert(serial.begin() + static_cast<long>(heavy_slot),
                  std::move(heavy_one.front()));
    double serial_ms = 0.0;
    for (const double c : costs)
        serial_ms += c;

    auto fleet_backend =
        std::make_shared<fc::FleetBackend>(fleetOptions(2));
    const auto t_fleet0 = std::chrono::steady_clock::now();
    const auto fleet = fc::CampaignRunner(fleet_backend).run(specs);
    const double fleet_ms = wallMs(t_fleet0);
    const auto& stats = fleet_backend->lastStats();

    bool ok = true;
    if (!identicalSets(serial, fleet)) {
        std::cerr << "FAIL: fleet results diverged from serial\n";
        ok = false;
    }
    if (stats.remote_specs != specs.size()) {
        std::cerr << "FAIL: only " << stats.remote_specs << "/"
                  << specs.size() << " specs crossed the fleet wire\n";
        ok = false;
    }

    // Schedule-quality gate, hardware-independent: replay the fleet's
    // ACTUAL dispatch order (pull = greedy earliest-free seat) against
    // the measured per-spec costs and compare with a static round-robin
    // partition's bottleneck worker.  This is the makespan the two
    // schedules impose on parallel hardware, and it must clear the 1.3x
    // floor on any host.
    if (stats.dispatch_order.size() != specs.size()) {
        std::cerr << "FAIL: clean dispatch order covers "
                  << stats.dispatch_order.size() << "/" << specs.size()
                  << " specs; expected exactly one dispatch each\n";
        ok = false;
    }
    double rr_load[2] = {0.0, 0.0};
    for (std::size_t slot = 0; slot < costs.size(); ++slot)
        rr_load[slot % 2] += costs[slot];
    const double rr_sched_ms = std::max(rr_load[0], rr_load[1]);
    double seat_load[2] = {0.0, 0.0};
    for (const std::size_t slot : stats.dispatch_order) {
        if (slot < costs.size())
            seat_load[seat_load[0] <= seat_load[1] ? 0 : 1] +=
                costs[slot];
    }
    const double fleet_sched_ms = std::max(seat_load[0], seat_load[1]);
    const double sched_speedup =
        fleet_sched_ms > 0.0 ? rr_sched_ms / fleet_sched_ms : 0.0;
    const bool sched_floor_met = sched_speedup >= 1.3;
    if (!sched_floor_met) {
        std::cerr << "FAIL: scheduled makespan speedup " << sched_speedup
                  << "x is below the 1.3x floor (round-robin bottleneck "
                  << rr_sched_ms << " ms vs fleet " << fleet_sched_ms
                  << " ms)\n";
    }

    auto& s = report.scenario("skewed_makespan");
    s.note("description",
           "one heavy campaign mid-list among short ones: 2-worker "
           "cost-scheduled fleet pull dispatch vs a 2-worker round-robin "
           "partition, both replayed on measured costs; bitwise identity "
           "enforced");
    s.metric("campaigns", static_cast<std::int64_t>(specs.size()));
    s.metric("heavy_runs", static_cast<std::int64_t>(heavy_runs));
    s.metric("light_tail_wall_ms", lights_ms);
    s.metric("serial_wall_ms", serial_ms);
    s.metric("fleet_wall_ms", fleet_ms);
    s.metric("roundrobin_schedule_ms", rr_sched_ms);
    s.metric("fleet_schedule_ms", fleet_sched_ms);
    s.metric("makespan_speedup", sched_speedup);
    s.note("bit_identical", ok ? "yes" : "NO");
    s.note("floor_1_3x", sched_floor_met ? "yes" : "NO");

    std::cout << "skewed_makespan: serial " << serial_ms
              << " ms; schedule makespan round-robin " << rr_sched_ms
              << " ms vs fleet " << fleet_sched_ms << " ms ("
              << sched_speedup << "x); fleet wall " << fleet_ms
              << " ms; heavy runs " << heavy_runs
              << "; bit-identical: " << (ok ? "yes" : "NO") << "\n";
    return ok && sched_floor_met;
}

// ---------------------------------------------------------------------------
// Scenario 2: spawn amortization across back-to-back dispatches
// ---------------------------------------------------------------------------

bool
runSpawnAmortization(tools::BenchReport& report, bool smoke)
{
    const std::size_t runs = smoke ? 3 : 6;
    const std::vector<fc::ScenarioSpec> specs = {
        makeSpec("MB-2K-GEMV", runs, 6300),
        makeSpec("AG-64KB", runs, 6301),
        makeSpec("CB-2K-GEMM", runs, 6302),
        makeSpec("MB-4K-GEMV", runs, 6303),
    };

    // The placement-matched in-process reference (best of 3 to de-noise
    // the baseline every overhead below subtracts).
    const auto pool = std::make_shared<fc::ThreadPoolBackend>(
        std::size_t{2});
    std::vector<fc::ProfileSet> reference;
    double inproc_ms = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        reference = fc::CampaignRunner(pool).run(specs);
        const double ms = wallMs(t0);
        if (rep == 0 || ms < inproc_ms)
            inproc_ms = ms;
    }

    auto backend = std::make_shared<fc::FleetBackend>(fleetOptions(2));
    constexpr int kDispatches = 5;
    constexpr double kEpsMs = 0.5;  // overhead floor: below this is noise
    bool ok = true;
    double overhead_first = 0.0;
    double overhead_fifth = 0.0;

    auto& s = report.scenario("spawn_amortization");
    for (int d = 1; d <= kDispatches; ++d) {
        const auto t0 = std::chrono::steady_clock::now();
        const auto results = fc::CampaignRunner(backend).run(specs);
        const double ms = wallMs(t0);
        if (!identicalSets(reference, results)) {
            std::cerr << "FAIL: dispatch " << d
                      << " diverged from the in-process reference\n";
            ok = false;
        }
        const auto& stats = backend->lastStats();
        if (d > 1 && stats.workers_spawned != 0) {
            std::cerr << "FAIL: dispatch " << d << " spawned "
                      << stats.workers_spawned
                      << " worker(s); the residents were not reused\n";
            ok = false;
        }
        const double overhead = std::max(ms - inproc_ms, kEpsMs);
        if (d == 1)
            overhead_first = overhead;
        if (d == kDispatches)
            overhead_fifth = overhead;
        s.metric("dispatch" + std::to_string(d) + "_wall_ms", ms);
        s.metric("dispatch" + std::to_string(d) + "_spawns",
                 static_cast<std::int64_t>(stats.workers_spawned));
    }

    const double ratio =
        overhead_fifth > 0.0 ? overhead_first / overhead_fifth : 0.0;
    const bool floor_met = ratio >= 2.0;
    if (!floor_met) {
        std::cerr << "FAIL: amortization ratio " << ratio
                  << "x is below the 2x floor (first dispatch overhead "
                  << overhead_first << " ms, fifth " << overhead_fifth
                  << " ms over the " << inproc_ms
                  << " ms in-process reference)\n";
    }

    s.note("description",
           "five back-to-back dispatches through one persistent fleet: "
           "spawn cost is paid once, warm dispatches must reuse the "
           "residents (zero spawns enforced)");
    s.metric("inproc_wall_ms", inproc_ms);
    s.metric("first_overhead_ms", overhead_first);
    s.metric("fifth_overhead_ms", overhead_fifth);
    s.metric("amortization_speedup", ratio);
    s.note("bit_identical", ok ? "yes" : "NO");
    s.note("floor_2x", floor_met ? "yes" : "NO");

    std::cout << "spawn_amortization: in-process " << inproc_ms
              << " ms, first-dispatch overhead " << overhead_first
              << " ms, fifth " << overhead_fifth << " ms (" << ratio
              << "x), bit-identical: " << (ok ? "yes" : "NO") << "\n";
    return ok && floor_met;
}

// ---------------------------------------------------------------------------
// Scenario 3: bit-identity under an injected mid-dispatch worker kill
// ---------------------------------------------------------------------------

bool
runDegradedFleet(tools::BenchReport& report, bool smoke)
{
    const auto specs = fingrav::testing::fig10Specs(smoke ? 6 : 16);

    const auto t0 = std::chrono::steady_clock::now();
    const auto serial = fc::CampaignRunner(1).run(specs);
    const double clean_ms = wallMs(t0);

    // Seat 0's first resident dies at its first result frame; the
    // replacement must redispatch only the forfeited spec.
    auto opts = fleetOptions(2);
    opts.backoff_base_ms = 1;
    opts.fault_plan = fsup::FaultPlan::parse("kill:shard=0,frame=0");
    auto backend = std::make_shared<fc::FleetBackend>(opts);
    const auto t1 = std::chrono::steady_clock::now();
    const auto degraded = fc::CampaignRunner(backend).run(specs);
    const double degraded_ms = wallMs(t1);

    const auto& stats = backend->lastStats();
    bool ok = true;
    if (!identicalSets(serial, degraded)) {
        std::cerr << "FAIL: degraded fleet run diverged from the clean "
                     "reference\n";
        ok = false;
    }
    if (stats.journal.empty()) {
        std::cerr << "FAIL: degraded fleet run left an empty journal — "
                     "the injected worker kill was recovered silently\n";
        ok = false;
    }
    if (stats.remote_specs != specs.size()) {
        std::cerr << "FAIL: only " << stats.remote_specs << "/"
                  << specs.size() << " specs crossed the wire; the "
                     "replacement worker did not take over\n";
        ok = false;
    }

    auto& s = report.scenario("degraded_fleet");
    s.note("description",
           "Fig. 10 set under an injected mid-dispatch worker kill: "
           "replacement in the same seat, bitwise identity and a "
           "non-empty degradation journal enforced");
    s.metric("campaigns", static_cast<std::int64_t>(specs.size()));
    s.metric("clean_wall_ms", clean_ms);
    s.metric("degraded_wall_ms", degraded_ms);
    s.metric("worker_failures",
             static_cast<std::int64_t>(stats.worker_failures));
    s.metric("journal_events",
             static_cast<std::int64_t>(stats.journal.size()));
    s.note("bit_identical", ok ? "yes" : "NO");
    s.note("journal_nonempty", stats.journal.empty() ? "NO" : "yes");

    std::cout << "degraded_fleet: clean " << clean_ms
              << " ms, degraded " << degraded_ms << " ms, "
              << stats.worker_failures << " worker failure(s), "
              << stats.journal.size()
              << " journal event(s), bit-identical: "
              << (ok ? "yes" : "NO") << "\n";
    return ok;
}

}  // namespace

int
main(int argc, char** argv)
{
    bool smoke = false;
    std::string out_path = "BENCH_fleet.json";
    g_cli_path = fc::defaultServeCommand(argv[0]).front();
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else if (arg == "--worker" && i + 1 < argc) {
            g_cli_path = argv[++i];
        } else {
            std::cerr << "usage: bench_fleet [--smoke] [--out PATH] "
                         "[--worker PATH]\n";
            return 2;
        }
    }

    tools::BenchReport report("fleet");
    bool ok = true;
    ok = runSkewedMakespan(report, smoke) && ok;
    ok = runSpawnAmortization(report, smoke) && ok;
    ok = runDegradedFleet(report, smoke) && ok;

    if (!report.write(out_path)) {
        std::cerr << "bench_fleet: cannot write " << out_path << "\n";
        return 1;
    }
    std::cout << "wrote " << out_path << "\n";
    if (!ok) {
        std::cerr << "bench_fleet: FAILED (divergence, unreused "
                     "residents, or a missed makespan/amortization "
                     "floor)\n";
        return 1;
    }
    return 0;
}
