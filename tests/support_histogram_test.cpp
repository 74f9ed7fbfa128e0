/**
 * @file
 * Tests for Histogram and the modalCluster() sliding-window mode estimator
 * underlying FinGraV execution-time binning (tenet S3).
 */

#include "support/histogram.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "support/logging.hpp"
#include "support/rng.hpp"

namespace fs = fingrav::support;

namespace {

/**
 * modalCluster as an index sort: order the indices through an indirect
 * comparator, sweep the window, then sort the winning window's indices.
 * The oracle the pair-sort version must reproduce.
 */
fs::ModalCluster
indexSortModalCluster(const std::vector<double>& values, double margin)
{
    fs::ModalCluster best;
    if (values.empty())
        return best;
    std::vector<std::size_t> order(values.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return values[a] < values[b];
    });
    std::size_t best_count = 0;
    std::size_t best_lo = 0;
    std::size_t best_hi = 0;
    std::size_t lo = 0;
    std::size_t hi = 0;
    for (std::size_t anchor = 0; anchor < order.size(); ++anchor) {
        const double c = values[order[anchor]];
        const double lo_val = c * (1.0 - margin);
        const double hi_val = c * (1.0 + margin);
        while (lo < order.size() && values[order[lo]] < lo_val)
            ++lo;
        if (hi < anchor)
            hi = anchor;
        while (hi < order.size() && values[order[hi]] <= hi_val)
            ++hi;
        if (hi - lo > best_count) {
            best_count = hi - lo;
            best.center = c;
            best_lo = lo;
            best_hi = hi;
        }
    }
    for (std::size_t i = best_lo; i < best_hi; ++i)
        best.indices.push_back(order[i]);
    std::sort(best.indices.begin(), best.indices.end());
    return best;
}

}  // namespace

TEST(Histogram, BucketsAndClamping)
{
    fs::Histogram h(0.0, 10.0, 5);
    h.add(0.5);   // bucket 0
    h.add(3.0);   // bucket 1
    h.add(9.9);   // bucket 4
    h.add(-5.0);  // clamps to bucket 0
    h.add(25.0);  // clamps to bucket 4
    EXPECT_EQ(h.total(), 5u);
    EXPECT_EQ(h.count(0), 2u);
    EXPECT_EQ(h.count(1), 1u);
    EXPECT_EQ(h.count(2), 0u);
    EXPECT_EQ(h.count(4), 2u);
    EXPECT_DOUBLE_EQ(h.bucketCenter(0), 1.0);
    EXPECT_DOUBLE_EQ(h.bucketCenter(4), 9.0);
}

TEST(Histogram, ModeBucket)
{
    fs::Histogram h(0.0, 3.0, 3);
    h.add(1.5);
    h.add(1.6);
    h.add(0.1);
    EXPECT_EQ(h.modeBucket(), 1u);
}

TEST(Histogram, InvalidConstructionIsUserError)
{
    EXPECT_THROW(fs::Histogram(0.0, 1.0, 0), fs::FatalError);
    EXPECT_THROW(fs::Histogram(1.0, 1.0, 4), fs::FatalError);
    EXPECT_THROW(fs::Histogram(2.0, 1.0, 4), fs::FatalError);
}

TEST(Histogram, RenderContainsEveryBucket)
{
    fs::Histogram h(0.0, 2.0, 2);
    h.add(0.5);
    const auto s = h.render(10);
    EXPECT_NE(s.find('#'), std::string::npos);
    EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 2);
}

TEST(ModalCluster, EmptyInput)
{
    const auto c = fs::modalCluster({}, 0.05);
    EXPECT_TRUE(c.indices.empty());
}

TEST(ModalCluster, SingleValue)
{
    const auto c = fs::modalCluster({42.0}, 0.05);
    ASSERT_EQ(c.indices.size(), 1u);
    EXPECT_EQ(c.indices[0], 0u);
    EXPECT_DOUBLE_EQ(c.center, 42.0);
}

TEST(ModalCluster, PicksDensestCluster)
{
    // Cluster near 100 (4 values within 5 %), outliers near 130 and 160.
    const std::vector<double> v{100.0, 101.0, 99.0, 102.0, 130.0, 131.0, 160.0};
    const auto c = fs::modalCluster(v, 0.05);
    EXPECT_EQ(c.indices.size(), 4u);
    for (std::size_t i : c.indices)
        EXPECT_LT(v[i], 110.0);
}

TEST(ModalCluster, MarginZeroRequiresExactTies)
{
    const std::vector<double> v{1.0, 1.0, 1.0, 2.0, 2.0};
    const auto c = fs::modalCluster(v, 0.0);
    EXPECT_EQ(c.indices.size(), 3u);
    EXPECT_DOUBLE_EQ(c.center, 1.0);
}

TEST(ModalCluster, NegativeMarginIsUserError)
{
    EXPECT_THROW(fs::modalCluster({1.0}, -0.1), fs::FatalError);
}

TEST(ModalCluster, TieBreaksTowardSmallerCenter)
{
    // Two clusters of equal size; outliers in the paper are *slower*
    // executions, so the binner prefers the faster (smaller) cluster.
    const std::vector<double> v{10.0, 10.1, 20.0, 20.2};
    const auto c = fs::modalCluster(v, 0.05);
    ASSERT_EQ(c.indices.size(), 2u);
    EXPECT_LT(v[c.indices[0]], 15.0);
    EXPECT_LT(v[c.indices[1]], 15.0);
}

TEST(ModalCluster, MatchesTheIndexSortOnTiedSamples)
{
    // A few levels with little jitter, so equal values are common and
    // windows share members; every size from empty to 600.
    const double margins[] = {0.0, 0.01, 0.05, 0.10, 0.5};
    const double levels[] = {100.0, 101.0, 104.0, 112.0, 150.0};
    fs::Rng rng(424242);
    for (std::size_t n = 0; n <= 600; ++n) {
        std::vector<double> v(n);
        for (double& x : v) {
            x = levels[rng.uniformInt(0, 4)];
            if (rng.bernoulli(0.3))
                x += static_cast<double>(rng.uniformInt(-3, 3)) * 0.5;
        }
        for (const double margin : margins) {
            const auto want = indexSortModalCluster(v, margin);
            const auto got = fs::modalCluster(v, margin);
            EXPECT_EQ(std::bit_cast<std::uint64_t>(got.center),
                      std::bit_cast<std::uint64_t>(want.center))
                << "n " << n << ", margin " << margin;
            EXPECT_EQ(got.indices, want.indices)
                << "n " << n << ", margin " << margin;
        }
    }
}

/** Property sweep: the cluster always contains the plurality mass around the
 *  true mode when noise is tight and outliers are far. */
class ModalClusterSweep : public ::testing::TestWithParam<double> {};

TEST_P(ModalClusterSweep, RecoversPlantedMode)
{
    const double margin = GetParam();
    fs::Rng rng(static_cast<std::uint64_t>(margin * 1e6) + 17);
    std::vector<double> v;
    // 80 values tight around 50 (within ±margin/4 relative), 20 outliers
    // spread in [80, 200].
    for (int i = 0; i < 80; ++i)
        v.push_back(50.0 * (1.0 + rng.uniform(-margin / 4, margin / 4)));
    for (int i = 0; i < 20; ++i)
        v.push_back(rng.uniform(80.0, 200.0));

    const auto c = fs::modalCluster(v, margin);
    EXPECT_GE(c.indices.size(), 80u);
    EXPECT_NEAR(c.center, 50.0, 50.0 * margin);
    for (std::size_t i : c.indices)
        EXPECT_LT(v[i], 80.0 * (1.0 + margin));
}

INSTANTIATE_TEST_SUITE_P(Margins, ModalClusterSweep,
                         ::testing::Values(0.02, 0.05, 0.10));
