/**
 * @file
 * Shared-fabric contention + parallel node stepping benchmark.
 *
 * Two scenarios track the node-level machinery added with the NodeFabric
 * arbiter (docs/ARCHITECTURE.md):
 *
 *  1. contended_pair — two independent 512 MB all-reduces on a 2-GPU
 *     node, back-to-back vs concurrent.  Reports the fair-share stretch
 *     (contended/solo latency) and verifies conservation of transferred
 *     bytes (allocated bandwidth x time is payload-invariant).  Hard
 *     failure if the contended pair is NOT slower — the coupling this
 *     bench exists to track would be dead.
 *
 *  2. parallel_stepping — an 8-GPU campaign of contended collectives
 *     plus per-device compute under power logging, advanced serially and
 *     with the thread-pool path.  Wall times and speedup are reported;
 *     any output divergence (execution logs or power samples) is a hard
 *     failure, since the parallel path is only admissible bit-identical.
 *
 * Results go to BENCH_fabric.json via tools/bench_json.hpp; CI uploads
 * the file so the trajectory is tracked (docs/PERFORMANCE.md).
 *
 * Usage: bench_fabric [--smoke] [--out PATH]
 *   --smoke   reduced repetitions (CI); numbers reported, not judged
 *   --out     output JSON path (default BENCH_fabric.json)
 */

#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "kernels/collective.hpp"
#include "kernels/workloads.hpp"
#include "runtime/host_runtime.hpp"
#include "sim/machine_config.hpp"
#include "sim/power_logger.hpp"
#include "sim/simulation.hpp"
#include "support/time_types.hpp"
#include "tools/bench_json.hpp"

namespace fk = fingrav::kernels;
namespace fs = fingrav::support;
namespace rt = fingrav::runtime;
namespace sim = fingrav::sim;
namespace tools = fingrav::tools;

namespace {

double
wallMs(const std::chrono::steady_clock::time_point& t0)
{
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

// ---------------------------------------------------------------------------
// Scenario 1: contended all-reduce pair on a 2-GPU node
// ---------------------------------------------------------------------------

bool
runContendedPair(tools::BenchReport& report)
{
    auto cfg = sim::mi300xConfig();
    cfg.node_gpus = 2;
    const fk::CollectiveKernel ar(fk::CollectiveOp::kAllReduce,
                                  512LL * 1000 * 1000, cfg);
    const auto work = ar.workAt(1.0);
    const double u = work.util.fabric_bw;
    const auto t0 = fs::SimTime::fromNanos(1000);
    const auto limit = t0 + fs::Duration::seconds(10.0);

    auto duration_ns = [](const sim::GpuDevice& dev) {
        const auto& e = dev.executionLog().back();
        return (e.end - e.start).nanos();
    };

    // Back-to-back.
    sim::Simulation solo(cfg, 7, 2);
    auto first = work;
    first.fabric_group = solo.fabric().allocGroup();
    solo.device(0).submit(first, t0);
    solo.advanceAllUntilIdle(limit);
    auto second = work;
    second.fabric_group = solo.fabric().allocGroup();
    solo.device(1).submit(second, solo.device(0).localNow());
    solo.advanceAllUntilIdle(limit);
    const double solo_us =
        static_cast<double>(duration_ns(solo.device(0))) * 1e-3;

    // Concurrent.
    sim::Simulation pair(cfg, 7, 2);
    auto x = work;
    x.fabric_group = pair.fabric().allocGroup();
    auto y = work;
    y.fabric_group = pair.fabric().allocGroup();
    pair.device(0).submit(x, t0);
    pair.device(1).submit(y, t0);
    pair.advanceAllUntilIdle(limit);
    const double cont_us =
        static_cast<double>(duration_ns(pair.device(0))) * 1e-3;

    const double stretch = cont_us / solo_us;
    // Conservation: share x time must match the uncontended transfer.
    const double bytes_ratio =
        (u / std::max(1.0, 2.0 * u) * cont_us) / (u * solo_us);
    const bool conserved =
        bytes_ratio > 0.92 && bytes_ratio < 1.08;
    const bool slower = stretch > 1.2;

    auto& s = report.scenario("contended_pair");
    s.metric("solo_us", solo_us);
    s.metric("contended_us", cont_us);
    s.metric("stretch", stretch);
    s.metric("fabric_demand_each", u);
    s.metric("bytes_ratio", bytes_ratio);
    s.note("bytes_conserved", conserved ? "yes" : "no");
    s.note("contention_live", slower ? "yes" : "no");

    std::cout << "contended_pair: solo " << solo_us << " us, contended "
              << cont_us << " us, stretch " << stretch
              << (conserved ? ", bytes conserved" : ", BYTES NOT CONSERVED")
              << "\n";
    return slower && conserved;
}

// ---------------------------------------------------------------------------
// Scenario 2: serial vs parallel advanceAllTo on an 8-GPU campaign
// ---------------------------------------------------------------------------

struct CampaignResult {
    double wall_ms = 0.0;
    std::vector<sim::SampleColumns> samples;
    std::vector<std::vector<sim::GpuDevice::ExecutionRecord>> logs;
};

CampaignResult
runCampaign(std::size_t threads, int rounds)
{
    auto cfg = sim::mi300xConfig();
    cfg.advance_threads = threads;
    const auto t0 = std::chrono::steady_clock::now();
    sim::Simulation s(cfg, 99, 0);  // full 8-GPU node
    rt::HostRuntime host(s, s.forkRng(1));

    const fk::CollectiveKernel big(fk::CollectiveOp::kAllReduce,
                                   512LL * 1000 * 1000, cfg);
    const fk::CollectiveKernel mid(fk::CollectiveOp::kAllGather,
                                   128LL * 1000 * 1000, cfg);
    const auto gemm = fk::kernelByLabel("CB-8K-GEMM", cfg);

    for (std::size_t d = 0; d < s.deviceCount(); ++d)
        host.startPowerLog(d);
    for (int r = 0; r < rounds; ++r) {
        host.launchOnAllDevices(big.workAt(1.0));
        host.launchOnAllDevices(mid.workAt(0.7), /*queue=*/1);
        for (std::size_t d = 0; d < s.deviceCount(); ++d)
            host.launch(gemm->workAt(1.0), d, /*queue=*/2);
        host.sleep(fs::Duration::micros(400.0));
        host.advanceAllDevices();
        host.synchronizeAll();
        host.sleep(fs::Duration::millis(3.0));
    }
    host.synchronizeAll();

    CampaignResult out;
    for (std::size_t d = 0; d < s.deviceCount(); ++d) {
        out.samples.push_back(host.stopPowerLog(d));
        out.logs.push_back(host.deviceExecutionLog(d));
    }
    out.wall_ms = wallMs(t0);
    return out;
}

bool
identical(const CampaignResult& a, const CampaignResult& b)
{
    if (a.samples.size() != b.samples.size())
        return false;
    for (std::size_t d = 0; d < a.samples.size(); ++d) {
        if (a.samples[d].size() != b.samples[d].size() ||
            a.logs[d].size() != b.logs[d].size())
            return false;
        for (std::size_t i = 0; i < a.samples[d].size(); ++i) {
            if (!(a.samples[d][i] == b.samples[d][i]))
                return false;
        }
        for (std::size_t i = 0; i < a.logs[d].size(); ++i) {
            const auto& x = a.logs[d][i];
            const auto& y = b.logs[d][i];
            if (x.id != y.id || x.start.nanos() != y.start.nanos() ||
                x.end.nanos() != y.end.nanos() || x.queue != y.queue)
                return false;
        }
    }
    return true;
}

bool
runParallelStepping(tools::BenchReport& report, bool smoke)
{
    const int rounds = smoke ? 4 : 40;
    const std::size_t hw = std::thread::hardware_concurrency();
    const std::size_t threads = std::min<std::size_t>(8, hw > 1 ? hw : 2);

    const auto serial = runCampaign(1, rounds);
    const auto parallel = runCampaign(threads, rounds);
    const bool bit_identical = identical(serial, parallel);

    std::size_t samples = 0;
    std::size_t execs = 0;
    for (std::size_t d = 0; d < serial.samples.size(); ++d) {
        samples += serial.samples[d].size();
        execs += serial.logs[d].size();
    }

    auto& s = report.scenario("parallel_stepping");
    s.metric("serial_wall_ms", serial.wall_ms);
    s.metric("parallel_wall_ms", parallel.wall_ms);
    s.metric("speedup", serial.wall_ms / parallel.wall_ms);
    s.metric("threads", static_cast<std::int64_t>(threads));
    s.metric("rounds", static_cast<std::int64_t>(rounds));
    s.metric("samples", static_cast<std::int64_t>(samples));
    s.metric("executions", static_cast<std::int64_t>(execs));
    s.note("bit_identical", bit_identical ? "yes" : "NO");

    std::cout << "parallel_stepping: serial " << serial.wall_ms
              << " ms, parallel(" << threads << ") " << parallel.wall_ms
              << " ms, speedup " << serial.wall_ms / parallel.wall_ms
              << ", bit-identical: " << (bit_identical ? "yes" : "NO")
              << "\n";
    return bit_identical;
}

}  // namespace

int
main(int argc, char** argv)
{
    bool smoke = false;
    std::string out_path = "BENCH_fabric.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::cerr << "usage: bench_fabric [--smoke] [--out PATH]\n";
            return 2;
        }
    }

    tools::BenchReport report("fabric");
    bool ok = true;
    ok = runContendedPair(report) && ok;
    ok = runParallelStepping(report, smoke) && ok;

    if (!report.write(out_path)) {
        std::cerr << "bench_fabric: cannot write " << out_path << "\n";
        return 1;
    }
    std::cout << "wrote " << out_path << "\n";
    if (!ok) {
        std::cerr << "bench_fabric: FAILED (dead coupling or parallel "
                     "divergence)\n";
        return 1;
    }
    return 0;
}
