/**
 * @file
 * Tests for the analysis module: series extraction, normalization, trend
 * evaluation, ASCII plotting and the campaign scaffolding.
 */

#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "analysis/ascii_plot.hpp"
#include "analysis/report.hpp"
#include "analysis/series.hpp"
#include "fingrav/campaign_runner.hpp"
#include "fingrav/profile.hpp"
#include "kernels/workloads.hpp"
#include "support/logging.hpp"

namespace an = fingrav::analysis;
namespace fc = fingrav::core;
namespace fs = fingrav::support;

namespace {

fc::PowerProfile
syntheticProfile(fc::ProfileKind kind, std::size_t n)
{
    fc::PowerProfile p("TEST", kind);
    for (std::size_t i = 0; i < n; ++i) {
        fc::ProfilePoint pt;
        pt.toi_us = static_cast<double>(n - 1 - i);  // deliberately unsorted
        pt.run_time_us = static_cast<double>(i) * 10.0;
        pt.sample.total_w = 100.0 + pt.toi_us;
        pt.sample.xcd_w = 50.0 + pt.toi_us;
        pt.sample.iod_w = 30.0;
        pt.sample.hbm_w = 10.0;
        p.add(pt);
    }
    return p;
}

}  // namespace

TEST(Series, ExtractionSortsByX)
{
    const auto profile = syntheticProfile(fc::ProfileKind::kSsp, 10);
    const auto s = an::toSeries(profile, fc::Rail::kTotal);
    ASSERT_EQ(s.size(), 10u);
    for (std::size_t i = 1; i < s.size(); ++i)
        EXPECT_LE(s.x[i - 1], s.x[i]);
    // y tracks x for this synthetic profile (total = 100 + toi).
    EXPECT_DOUBLE_EQ(s.y.front(), 100.0 + s.x.front());
}

TEST(Series, TimelineUsesRunTime)
{
    const auto profile = syntheticProfile(fc::ProfileKind::kTimeline, 5);
    const auto s = an::toSeries(profile, fc::Rail::kXcd);
    EXPECT_DOUBLE_EQ(s.x.back(), 40.0);  // run_time, not TOI
}

TEST(Series, NormalizedDividesY)
{
    auto s = an::toSeries(syntheticProfile(fc::ProfileKind::kSsp, 4),
                          fc::Rail::kIod);
    s = an::normalized(std::move(s), 30.0);
    for (double y : s.y)
        EXPECT_DOUBLE_EQ(y, 1.0);
    EXPECT_THROW(an::normalized(s, 0.0), fs::FatalError);
}

TEST(Series, MeanAndMax)
{
    an::Series s;
    s.x = {0, 1, 2};
    s.y = {1.0, 2.0, 6.0};
    EXPECT_DOUBLE_EQ(an::meanY(s), 3.0);
    EXPECT_DOUBLE_EQ(an::maxY(s), 6.0);
    EXPECT_DOUBLE_EQ(an::meanY({}), 0.0);
    EXPECT_DOUBLE_EQ(an::maxY({}), 0.0);
}

TEST(Series, TrendSeriesFollowsLinearProfile)
{
    const auto profile = syntheticProfile(fc::ProfileKind::kSsp, 50);
    const auto t = an::trendSeries(profile, fc::Rail::kTotal, 1, 16);
    ASSERT_EQ(t.size(), 16u);
    for (std::size_t i = 0; i < t.size(); ++i)
        EXPECT_NEAR(t.y[i], 100.0 + t.x[i], 1e-6);
    // Degenerate inputs return empty series.
    EXPECT_TRUE(an::trendSeries(fc::PowerProfile("E", fc::ProfileKind::kSsp),
                                fc::Rail::kTotal)
                    .empty());
}

TEST(AsciiPlot, RendersGlyphsAndLegend)
{
    an::AsciiPlot plot(20, 6);
    an::Series s;
    s.x = {0.0, 1.0, 2.0};
    s.y = {0.0, 5.0, 10.0};
    plot.addSeries(s, '#', "ramp");
    const auto out = plot.render();
    EXPECT_NE(out.find('#'), std::string::npos);
    EXPECT_NE(out.find("# = ramp"), std::string::npos);
}

TEST(AsciiPlot, EmptyAndValidation)
{
    an::AsciiPlot plot(20, 6);
    EXPECT_EQ(plot.render(), "(no data)\n");
    EXPECT_THROW(an::AsciiPlot(4, 6), fs::FatalError);
    EXPECT_THROW(plot.setYRange(5.0, 5.0), fs::FatalError);
}

TEST(AsciiPlot, FixedYRangeClampsOutliers)
{
    an::AsciiPlot plot(20, 6);
    plot.setYRange(0.0, 1.0);
    an::Series s;
    s.x = {0.0, 1.0};
    s.y = {0.5, 99.0};  // above the fixed range: clamps to the top row
    plot.addSeries(s, 'x', "clamped");
    EXPECT_NE(plot.render().find('x'), std::string::npos);
}

TEST(Campaign, FreshNodeIsDeterministic)
{
    fc::ProfilerOptions opts;
    opts.runs_override = 15;
    opts.collect_extra_runs = false;
    const auto a = fc::CampaignRunner::runOne({"MB-4K-GEMV", 77, opts});
    const auto b = fc::CampaignRunner::runOne({"MB-4K-GEMV", 77, opts});
    ASSERT_EQ(a.ssp.size(), b.ssp.size());
    EXPECT_DOUBLE_EQ(a.ssp.meanPower(), b.ssp.meanPower());
    EXPECT_EQ(a.measured_exec_time.nanos(), b.measured_exec_time.nanos());
}

TEST(Campaign, CollectiveGetsFullNode)
{
    fc::ProfilerOptions opts;
    opts.runs_override = 5;
    opts.collect_extra_runs = false;
    // Just exercising the path: a collective profiled on a fresh node must
    // not throw and must produce samples from the 8-GPU configuration.
    const auto set = fc::CampaignRunner::runOne({"AG-64KB", 78, opts});
    EXPECT_EQ(set.label, "AG-64KB");
    EXPECT_FALSE(set.timeline.empty());
}

TEST(Report, SummarizeContainsKeyFields)
{
    fc::ProfilerOptions opts;
    opts.runs_override = 10;
    opts.collect_extra_runs = false;
    const auto set = fc::CampaignRunner::runOne({"CB-4K-GEMM", 79, opts});
    const auto s = an::summarize(set);
    EXPECT_NE(s.find("CB-4K-GEMM"), std::string::npos);
    EXPECT_NE(s.find("golden"), std::string::npos);
    EXPECT_NE(s.find("SSP"), std::string::npos);
}

TEST(Report, CsvDumpWritesFile)
{
    namespace stdfs = std::filesystem;
    const auto dir = stdfs::temp_directory_path() / "fingrav_csv_test";
    stdfs::create_directories(dir);
    const auto cwd = stdfs::current_path();
    stdfs::current_path(dir);
    an::dumpProfileCsv(syntheticProfile(fc::ProfileKind::kSsp, 3),
                       "unit_test_profile");
    stdfs::current_path(cwd);
    EXPECT_TRUE(
        stdfs::exists(dir / "fingrav_out" / "unit_test_profile.csv"));
    stdfs::remove_all(dir);
}
