#ifndef FINGRAV_TESTS_TEST_FIXTURES_HPP_
#define FINGRAV_TESTS_TEST_FIXTURES_HPP_

/**
 * @file
 * Shared fixtures for the test executables.
 *
 * One definition of the canonical campaign sets keeps the suites
 * honest: fleet_test, cache_test and campaign_runner_test all gate
 * bit-identity on the same specs, so a fixture drift cannot silently
 * weaken one gate relative to another.  golden_digest_test and
 * fleet_test count a campaign's work the same way (profileOnNode).
 * Include as "tests/test_fixtures.hpp" (the repo root is on every
 * test's include path).
 */

#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include <stdlib.h>

#include <gtest/gtest.h>

#include "analysis/report.hpp"
#include "fingrav/campaign_runner.hpp"
#include "fingrav/profiler.hpp"
#include "fingrav/scenario.hpp"
#include "sim/machine_config.hpp"

namespace fingrav::testing {

/**
 * The Fig. 10 nine-kernel set at a caller-sized run budget, plus one
 * scenario profiled under fabric contention (the background-load gate)
 * — the shared definition every backend-identity suite gates on.
 */
inline std::vector<core::ScenarioSpec>
fig10Specs(std::size_t runs = 6, bool with_contended = true)
{
    return analysis::fig10ScenarioSet(runs, with_contended);
}

/**
 * The nine Fig. 10 labels with bench_fig10's seeds (10001+) under
 * caller-chosen profiler options, no contended extra.  Unlike
 * fig10Specs it does not force collect_extra_runs off.
 */
inline std::vector<core::ScenarioSpec>
fig10SpecsWithOptions(const core::ProfilerOptions& opts)
{
    std::vector<core::ScenarioSpec> specs;
    std::uint64_t seed = 10001;
    for (const char* label :
         {"AG-64KB", "AG-128KB", "AG-512MB", "AG-1GB", "AR-64KB",
          "AR-128KB", "AR-512MB", "AR-1GB", "CB-8K-GEMM"}) {
        core::ScenarioSpec spec;
        spec.label = label;
        spec.seed = seed++;
        spec.opts = opts;
        specs.push_back(std::move(spec));
    }
    return specs;
}

/** Small mixed campaign set (compute, memory and collective kernels). */
inline std::vector<core::ScenarioSpec>
mixedSpecs()
{
    core::ProfilerOptions cheap;
    cheap.runs_override = 10;
    cheap.collect_extra_runs = false;

    std::vector<core::ScenarioSpec> specs;
    for (const char* label :
         {"CB-2K-GEMM", "MB-4K-GEMV", "AG-64KB", "CB-4K-GEMM",
          "AR-128KB", "MB-2K-GEMV"}) {
        core::ScenarioSpec spec;
        spec.label = label;
        spec.seed = 4000 + specs.size();
        spec.opts = cheap;
        specs.push_back(std::move(spec));
    }
    return specs;
}

/** The canonical RecordedCampaign spec (run-pool top-up enabled). */
inline core::ScenarioSpec
recordSpec()
{
    core::ScenarioSpec spec;
    spec.label = "CB-8K-GEMM";
    spec.seed = 5150;
    spec.opts.runs_override = 8;
    spec.opts.max_extra_run_factor = 0.5;
    return spec;
}

/** Stretches and device-executions, each summed over a node's devices. */
struct Work {
    std::uint64_t stretches = 0;
    std::uint64_t executions = 0;
};

inline Work
nodeWork(core::CampaignNode& node)
{
    Work work;
    auto& simulation = node.simulation();
    for (std::size_t d = 0; d < simulation.deviceCount(); ++d) {
        const auto& device = simulation.device(d);
        work.stretches += device.stepStats().stretches;
        work.executions += device.executionLog().size();
    }
    return work;
}

/** One campaign's output and the work it took. */
struct NodeRun {
    core::ProfileSet set;
    Work work;
};

/**
 * Profile `spec` on a fresh node exactly as CampaignRunner::runOne does
 * (CampaignNode + Profiler::profile), keeping the node to count its work.
 */
inline NodeRun
profileOnNode(const core::ScenarioSpec& spec, const sim::MachineConfig& cfg)
{
    core::CampaignNode node(spec, cfg);
    auto set = core::Profiler(node.host(), spec.opts, node.profilerRng())
                   .profile(node.kernel());
    EXPECT_FALSE(set.ssp.empty()) << spec.label;
    return {std::move(set), nodeWork(node)};
}

/**
 * A self-deleting scratch directory (cache stores, CSV dumps).  Unique
 * per instance, so parallel tests and repeated runs never collide.
 */
class TempDir {
  public:
    explicit TempDir(const std::string& tag = "fingrav_test")
    {
        std::string templ =
            (std::filesystem::temp_directory_path() / (tag + ".XXXXXX"))
                .string();
        std::vector<char> buf(templ.begin(), templ.end());
        buf.push_back('\0');
        if (::mkdtemp(buf.data()) == nullptr)
            throw std::runtime_error("TempDir: mkdtemp failed for " + templ);
        path_ = buf.data();
    }
    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
    TempDir(const TempDir&) = delete;
    TempDir& operator=(const TempDir&) = delete;

    const std::string& path() const { return path_; }

  private:
    std::string path_;
};

/** Per-spec bitwise identity gate with labelled failures. */
inline void
expectAllIdentical(const std::vector<core::ProfileSet>& expected,
                   const std::vector<core::ProfileSet>& actual,
                   const std::vector<core::ScenarioSpec>& specs,
                   const char* what)
{
    ASSERT_EQ(expected.size(), actual.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_TRUE(core::identicalProfileSets(expected[i], actual[i]))
            << specs[i].label << " diverged (" << what << ")";
    }
}

}  // namespace fingrav::testing

#endif  // FINGRAV_TESTS_TEST_FIXTURES_HPP_
