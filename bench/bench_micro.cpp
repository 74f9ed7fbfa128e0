/**
 * @file
 * Micro-benchmarks (google-benchmark) of the methodology's moving parts:
 * the cost of FinGraV itself, independent of what it measures.
 *
 * Covers: the modal-cluster binning kernel, degree-4 trend fitting,
 * timestamp translation, power-logger slice accounting, simulated-device
 * stepping throughput, and a small end-to-end campaign.
 */

#include <cstdint>
#include <vector>

#include <benchmark/benchmark.h>

#include "fingrav/campaign_runner.hpp"
#include "fingrav/profiler.hpp"
#include "fingrav/time_sync.hpp"
#include "kernels/workloads.hpp"
#include "sim/clock_domain.hpp"
#include "sim/power_logger.hpp"
#include "support/histogram.hpp"
#include "support/polyfit.hpp"
#include "support/rng.hpp"
#include "support/time_types.hpp"

namespace fc = fingrav::core;
namespace fk = fingrav::kernels;
namespace fs = fingrav::support;
namespace sim = fingrav::sim;
using namespace fingrav::support::literals;

namespace {

std::vector<double>
jitteredTimes(std::size_t n)
{
    fs::Rng rng(42);
    std::vector<double> v;
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        v.push_back(100.0 * rng.lognormalJitter(0.01) *
                    (rng.bernoulli(0.06) ? rng.uniform(1.1, 1.35) : 1.0));
    }
    return v;
}

}  // namespace

static void
BM_ModalCluster(benchmark::State& state)
{
    const auto v = jitteredTimes(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(fs::modalCluster(v, 0.05));
    }
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ModalCluster)->Range(64, 16384)->Complexity();

static void
BM_PolyFitDegree4(benchmark::State& state)
{
    fs::Rng rng(7);
    const auto n = static_cast<std::size_t>(state.range(0));
    std::vector<double> xs(n);
    std::vector<double> ys(n);
    for (std::size_t i = 0; i < n; ++i) {
        xs[i] = rng.uniform(0.0, 100.0);
        ys[i] = 600.0 + 0.5 * xs[i] + rng.normal(0.0, 3.0);
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(fs::fitPolynomial(xs, ys, 4));
    }
}
BENCHMARK(BM_PolyFitDegree4)->Range(64, 16384);

static void
BM_TimestampTranslation(benchmark::State& state)
{
    fc::CampaignNode node({"CB-2K-GEMM", 1}, sim::mi300xConfig());
    auto sync = fc::TimeSync::calibrate(node.host());
    std::int64_t counter = 123456789;
    for (auto _ : state) {
        benchmark::DoNotOptimize(sync.gpuCounterToCpuNs(counter));
        counter += 100000;
    }
}
BENCHMARK(BM_TimestampTranslation);

static void
BM_PowerLoggerSlice(benchmark::State& state)
{
    sim::ClockDomain clk(fs::Duration::seconds(5.0), 4.0, 10_ns);
    sim::PowerLogger logger(1_ms, clk, 0.0, fs::Rng(1));
    logger.start(fs::SimTime::fromNanos(0));
    sim::RailPower rails{500.0, 80.0, 60.0, 12.0};
    auto t = fs::SimTime::fromNanos(0);
    for (auto _ : state) {
        logger.addSlice(t, 2_us, rails);
        t += 2_us;
        if (logger.samples().size() > 1000000)
            logger.clearSamples();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PowerLoggerSlice);

static void
BM_DeviceStepBusy(benchmark::State& state)
{
    // Throughput of the fixed-step engine under load: one advanceTo step
    // per iteration (2 us of simulated time with power integration).
    auto cfg = sim::mi300xConfig();
    cfg.logger_noise_w = 0.0;
    sim::Simulation s(cfg, 3, 1);
    auto& dev = s.device(0);
    dev.addLogger(1_ms, 0.0).start(dev.localNow());
    const auto work = fk::makeSquareGemm(8192, cfg)->workAt(1.0);
    auto now = dev.localNow();
    std::uint64_t pending = 0;
    for (auto _ : state) {
        if (pending == 0) {
            for (int i = 0; i < 64; ++i)
                dev.submit(work, now);
            pending = 64;
        }
        now += 2_us;
        dev.advanceTo(now);
        if (dev.idle())
            pending = 0;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DeviceStepBusy);

static void
BM_EndToEndSmallCampaign(benchmark::State& state)
{
    // A complete 9-step FinGraV campaign (reduced run count) per
    // iteration: the real-world cost of profiling one kernel.
    // The unlabeled GEMM profiles on the node of the CB-2K-GEMM label it
    // matches.
    const auto cfg = sim::mi300xConfig();
    std::uint64_t seed = 100;
    for (auto _ : state) {
        fc::ProfilerOptions opts;
        opts.runs_override = 20;
        opts.collect_extra_runs = false;
        fc::CampaignNode node({"CB-2K-GEMM", seed++, opts}, cfg);
        benchmark::DoNotOptimize(
            fc::Profiler(node.host(), opts, node.profilerRng())
                .profile(fk::makeSquareGemm(2048, cfg)));
    }
}
BENCHMARK(BM_EndToEndSmallCampaign)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
