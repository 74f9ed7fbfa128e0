#ifndef FINGRAV_TESTS_TEST_FIXTURES_HPP_
#define FINGRAV_TESTS_TEST_FIXTURES_HPP_

/**
 * @file
 * Shared fixtures for the test and bench executables.
 *
 * One definition of the canonical campaign sets keeps the suites
 * honest: fleet_test, cache_test, campaign_runner_test, bench_fleet and
 * bench_campaign all gate bit-identity on the same specs, so a fixture
 * drift cannot silently weaken one gate relative to another.  Include
 * as "tests/test_fixtures.hpp" (the repo root is on every test's and
 * bench's include path).
 *
 * gtest-dependent helpers (expectAllIdentical) appear only when
 * <gtest/gtest.h> was included first; benches get the plain-bool
 * identicalSets and the spec builders.
 */

#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include <stdlib.h>

#include "analysis/report.hpp"
#include "fingrav/campaign_runner.hpp"
#include "fingrav/scenario.hpp"

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
 * caller-chosen profiler options, no contended extra — the exact spec
 * list bench_campaign has always gated on (it does not force
 * collect_extra_runs off, unlike fig10Specs).
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

/** Plain-bool bitwise comparison of two result lists (bench-friendly). */
inline bool
identicalSets(const std::vector<core::ProfileSet>& a,
              const std::vector<core::ProfileSet>& b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (!core::identicalProfileSets(a[i], b[i]))
            return false;
    }
    return true;
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

#ifdef GTEST_TEST
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
#endif

}  // namespace fingrav::testing

#endif  // FINGRAV_TESTS_TEST_FIXTURES_HPP_
