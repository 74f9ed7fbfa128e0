/**
 * @file
 * Serial-vs-parallel node stepping equivalence, plus ThreadPool units.
 *
 * Simulation::advanceAllTo advances devices concurrently between fabric
 * epochs when MachineConfig::advance_threads > 1.  Within an epoch every
 * device reads only its own state plus the immutable committed fabric
 * view, so the parallel path must be *bit-identical* to the serial one:
 * same execution logs, same power samples, for any thread count — locked
 * in here on a 4-GPU contended-collective scenario driven through the
 * full runtime (launch, sync, power logging).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "kernels/collective.hpp"
#include "kernels/workloads.hpp"
#include "runtime/host_runtime.hpp"
#include "sim/machine_config.hpp"
#include "sim/power_logger.hpp"
#include "sim/simulation.hpp"
#include "support/thread_pool.hpp"
#include "support/time_types.hpp"

namespace fk = fingrav::kernels;
namespace fs = fingrav::support;
namespace rt = fingrav::runtime;
namespace sim = fingrav::sim;

namespace {

/** Everything observable a scenario produced, per device. */
struct NodeTrace {
    std::vector<sim::SampleColumns> samples;
    std::vector<std::vector<sim::GpuDevice::ExecutionRecord>> logs;
};

/**
 * A contended 4-GPU scenario: a node-wide all-reduce overlapping two
 * independent transfers on devices 0 and 1, plus a compute kernel on
 * device 2, with power capture on every device.
 */
NodeTrace
runContendedScenario(std::size_t threads)
{
    auto cfg = sim::mi300xConfig();
    cfg.node_gpus = 4;
    cfg.advance_threads = threads;
    sim::Simulation s(cfg, 2024, 4);
    rt::HostRuntime host(s, s.forkRng(1));

    for (std::size_t d = 0; d < s.deviceCount(); ++d)
        host.startPowerLog(d);

    const fk::CollectiveKernel big(fk::CollectiveOp::kAllReduce,
                                   512LL * 1000 * 1000, cfg);
    const fk::CollectiveKernel small(fk::CollectiveOp::kAllGather,
                                     128LL * 1000 * 1000, cfg);
    const auto gemm = fk::kernelByLabel("CB-4K-GEMM", cfg);

    host.sleep(fs::Duration::millis(1.0));
    host.launchOnAllDevices(big.workAt(1.0));          // one transfer
    host.launch(small.workAt(0.5), 0, /*queue=*/1);    // contender on 0
    host.launch(small.workAt(0.5), 1, /*queue=*/1);    // contender on 1
    host.launch(gemm->workAt(1.0), 2, /*queue=*/1);    // compute bystander
    host.sleep(fs::Duration::micros(300.0));
    host.advanceAllDevices();  // mid-flight contended advanceAllTo
    host.synchronize(0);       // coupled drain of one device
    host.synchronizeAll();
    host.sleep(fs::Duration::millis(2.0));

    NodeTrace trace;
    for (std::size_t d = 0; d < s.deviceCount(); ++d) {
        trace.samples.push_back(host.stopPowerLog(d));
        trace.logs.push_back(host.deviceExecutionLog(d));
    }
    return trace;
}

void
expectIdentical(const NodeTrace& a, const NodeTrace& b)
{
    ASSERT_EQ(a.samples.size(), b.samples.size());
    for (std::size_t d = 0; d < a.samples.size(); ++d) {
        ASSERT_EQ(a.samples[d].size(), b.samples[d].size()) << "dev " << d;
        for (std::size_t i = 0; i < a.samples[d].size(); ++i) {
            EXPECT_TRUE(a.samples[d][i] == b.samples[d][i])
                << "dev " << d << " sample " << i;
        }
        ASSERT_EQ(a.logs[d].size(), b.logs[d].size()) << "dev " << d;
        for (std::size_t i = 0; i < a.logs[d].size(); ++i) {
            EXPECT_EQ(a.logs[d][i].id, b.logs[d][i].id);
            EXPECT_EQ(a.logs[d][i].queue, b.logs[d][i].queue);
            EXPECT_EQ(a.logs[d][i].start.nanos(), b.logs[d][i].start.nanos())
                << "dev " << d << " exec " << i;
            EXPECT_EQ(a.logs[d][i].end.nanos(), b.logs[d][i].end.nanos())
                << "dev " << d << " exec " << i;
        }
    }
}

}  // namespace

TEST(ParallelStepping, BitIdenticalToSerialOnContendedNode)
{
    const auto serial = runContendedScenario(1);
    const auto parallel = runContendedScenario(4);
    expectIdentical(serial, parallel);

    // The scenario must actually exercise contention, or the equivalence
    // is vacuous: the node-wide transfer plus a local one overlap.
    bool overlapped = false;
    for (const auto& e : serial.logs[0]) {
        for (const auto& f : serial.logs[0]) {
            if (e.id != f.id && e.start < f.end && f.start < e.end)
                overlapped = true;
        }
    }
    EXPECT_TRUE(overlapped);
}

TEST(ParallelStepping, ThreadCountIsImmaterial)
{
    const auto two = runContendedScenario(2);
    const auto eight = runContendedScenario(8);
    expectIdentical(two, eight);
}

TEST(ParallelStepping, SetAdvanceThreadsOverridesConfig)
{
    auto cfg = sim::mi300xConfig();
    cfg.node_gpus = 4;
    sim::Simulation s(cfg, 7, 4);
    EXPECT_EQ(s.advanceThreads(), 1u);
    s.setAdvanceThreads(3);
    EXPECT_EQ(s.advanceThreads(), 3u);
    s.setAdvanceThreads(0);  // clamped to serial
    EXPECT_EQ(s.advanceThreads(), 1u);
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPool, RunsEveryItemExactlyOnce)
{
    fs::ThreadPool pool(4);
    EXPECT_EQ(pool.threads(), 4u);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(hits.size(),
                     [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossJobs)
{
    fs::ThreadPool pool(3);
    std::atomic<int> sum{0};
    for (int round = 0; round < 50; ++round)
        pool.parallelFor(10, [&](std::size_t) { sum.fetch_add(1); });
    EXPECT_EQ(sum.load(), 500);
}

TEST(ThreadPool, SerialFallbackAndEmptyJob)
{
    fs::ThreadPool pool(1);  // no workers: caller runs everything
    EXPECT_EQ(pool.threads(), 1u);
    int count = 0;
    pool.parallelFor(5, [&](std::size_t) { ++count; });
    EXPECT_EQ(count, 5);
    pool.parallelFor(0, [&](std::size_t) { ++count; });
    EXPECT_EQ(count, 5);
}

TEST(ThreadPool, PropagatesItemExceptions)
{
    fs::ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(64,
                                  [](std::size_t i) {
                                      if (i == 13)
                                          throw std::runtime_error("boom");
                                  }),
                 std::runtime_error);
    // The pool survives a throwing job.
    std::atomic<int> ok{0};
    pool.parallelFor(8, [&](std::size_t) { ok.fetch_add(1); });
    EXPECT_EQ(ok.load(), 8);
}
