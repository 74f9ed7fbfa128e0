/**
 * @file
 * SoA data-plane equivalence: the columnar PowerProfile and the
 * vectorized kernels built on it must reproduce the former AoS scalar
 * path bit for bit.  Every suite keeps a scalar reference — the seed's
 * per-point loops over materialized ProfilePoints — and compares against
 * the column kernels on randomized clouds that include IEEE-754 edge
 * values, plus a stitchReference identity re-run over Fig. 10-set
 * kernels and adopt/decode validation of the packed contention bitmap.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/report.hpp"
#include "analysis/series.hpp"
#include "fingrav/campaign_runner.hpp"
#include "fingrav/codec.hpp"
#include "fingrav/profile.hpp"
#include "fingrav/profiler.hpp"
#include "fingrav/run_executor.hpp"
#include "fingrav/stitcher.hpp"
#include "fingrav/time_sync.hpp"
#include "kernels/workloads.hpp"
#include "runtime/host_runtime.hpp"
#include "sim/machine_config.hpp"
#include "sim/simulation.hpp"
#include "support/histogram.hpp"
#include "support/logging.hpp"
#include "support/polyfit.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"
#include "support/statistics.hpp"
#include "support/time_types.hpp"

namespace fa = fingrav::analysis;
namespace fc = fingrav::core;
namespace fk = fingrav::kernels;
namespace fs = fingrav::support;
namespace rt = fingrav::runtime;
namespace sim = fingrav::sim;

namespace {

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

/** Edge-heavy random double (same spread the codec tests use). */
double
edgeDouble(fs::Rng& rng)
{
    switch (rng.uniformInt(0, 5)) {
      case 0:
        return -0.0;
      case 1:
        return std::numeric_limits<double>::denorm_min();
      case 2:
        return std::numeric_limits<double>::infinity();
      case 3:
        return -std::numeric_limits<double>::max();
      case 4:
        return 1.0 + std::numeric_limits<double>::epsilon();
      default:
        return rng.uniform(-1e9, 1e9);
    }
}

fc::ProfilePoint
randomPoint(fs::Rng& rng, bool finite_power = false)
{
    fc::ProfilePoint p;
    p.toi_us = rng.uniform(0.0, 200.0);
    p.toi_frac = rng.uniform(0.0, 1.0);
    p.run_time_us = rng.uniform(0.0, 5000.0);
    p.sample.gpu_timestamp = rng.uniformInt(-10, 1LL << 50);
    p.sample.total_w = finite_power ? rng.uniform(80.0, 900.0)
                                    : edgeDouble(rng);
    p.sample.xcd_w = finite_power ? rng.uniform(10.0, 500.0)
                                  : edgeDouble(rng);
    p.sample.iod_w = finite_power ? rng.uniform(5.0, 120.0)
                                  : edgeDouble(rng);
    p.sample.hbm_w = finite_power ? rng.uniform(5.0, 200.0)
                                  : edgeDouble(rng);
    p.run_index = static_cast<std::size_t>(rng.uniformInt(0, 300));
    p.exec_index = static_cast<std::size_t>(rng.uniformInt(0, 60));
    p.contended = rng.uniformInt(0, 3) == 0;
    return p;
}

/** Random AoS cloud plus the columnar profile built from it. */
struct Cloud {
    std::vector<fc::ProfilePoint> aos;
    fc::PowerProfile profile;
};

Cloud
randomCloud(fs::Rng& rng, std::size_t n, fc::ProfileKind kind,
            bool finite_power = false)
{
    Cloud c{{}, fc::PowerProfile("cloud", kind)};
    c.aos.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        c.aos.push_back(randomPoint(rng, finite_power));
        c.profile.add(c.aos.back());
    }
    return c;
}

constexpr fc::Rail kRails[] = {fc::Rail::kTotal, fc::Rail::kXcd,
                               fc::Rail::kIod, fc::Rail::kHbm};

// ---- seed-faithful scalar references (the pre-SoA loops) -----------------

double
refMean(const std::vector<fc::ProfilePoint>& pts, fc::Rail rail)
{
    if (pts.empty())
        return 0.0;
    double acc = 0.0;
    for (const auto& p : pts)
        acc += fc::railValue(p.sample, rail);
    return acc / static_cast<double>(pts.size());
}

double
refMin(const std::vector<fc::ProfilePoint>& pts, fc::Rail rail)
{
    if (pts.empty())
        return 0.0;
    double v = fc::railValue(pts.front().sample, rail);
    for (const auto& p : pts)
        v = std::min(v, fc::railValue(p.sample, rail));
    return v;
}

double
refMax(const std::vector<fc::ProfilePoint>& pts, fc::Rail rail)
{
    if (pts.empty())
        return 0.0;
    double v = fc::railValue(pts.front().sample, rail);
    for (const auto& p : pts)
        v = std::max(v, fc::railValue(p.sample, rail));
    return v;
}

double
refMeanWhere(const std::vector<fc::ProfilePoint>& pts, bool contended,
             fc::Rail rail)
{
    double acc = 0.0;
    std::size_t n = 0;
    for (const auto& p : pts) {
        if (p.contended != contended)
            continue;
        acc += fc::railValue(p.sample, rail);
        ++n;
    }
    return n > 0 ? acc / static_cast<double>(n) : 0.0;
}

}  // namespace

TEST(ProfileSoa, EveryAccessorMatchesTheAosViewBitwise)
{
    fs::Rng rng(9001);
    for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                                std::size_t{63}, std::size_t{64},
                                std::size_t{65}, std::size_t{1000}}) {
        const auto c = randomCloud(rng, n, fc::ProfileKind::kSsp);
        ASSERT_EQ(c.profile.size(), n);
        EXPECT_EQ(c.profile.empty(), n == 0);
        for (std::size_t i = 0; i < n; ++i) {
            const auto p = c.profile.point(i);
            const auto& q = c.aos[i];
            EXPECT_EQ(bits(p.toi_us), bits(q.toi_us));
            EXPECT_EQ(bits(p.toi_frac), bits(q.toi_frac));
            EXPECT_EQ(bits(p.run_time_us), bits(q.run_time_us));
            EXPECT_EQ(p.sample.gpu_timestamp, q.sample.gpu_timestamp);
            EXPECT_EQ(bits(p.sample.total_w), bits(q.sample.total_w));
            EXPECT_EQ(bits(p.sample.xcd_w), bits(q.sample.xcd_w));
            EXPECT_EQ(bits(p.sample.iod_w), bits(q.sample.iod_w));
            EXPECT_EQ(bits(p.sample.hbm_w), bits(q.sample.hbm_w));
            EXPECT_EQ(p.run_index, q.run_index);
            EXPECT_EQ(p.exec_index, q.exec_index);
            EXPECT_EQ(p.contended, q.contended);
            EXPECT_TRUE(c.profile.points()[i] == q);
        }
        // The range view walks the same points in the same order.
        std::size_t i = 0;
        for (const auto& p : c.profile.points())
            EXPECT_TRUE(p == c.aos[i++]);
        EXPECT_EQ(i, n);
    }
}

TEST(ProfileSoa, RailReductionsMatchScalarReferenceBitwise)
{
    fs::Rng rng(9002);
    for (int round = 0; round < 8; ++round) {
        const auto n = static_cast<std::size_t>(rng.uniformInt(0, 700));
        const auto c = randomCloud(rng, n, fc::ProfileKind::kSsp);
        for (const fc::Rail rail : kRails) {
            EXPECT_EQ(bits(c.profile.meanPower(rail)),
                      bits(refMean(c.aos, rail)));
            EXPECT_EQ(bits(c.profile.minPower(rail)),
                      bits(refMin(c.aos, rail)));
            EXPECT_EQ(bits(c.profile.maxPower(rail)),
                      bits(refMax(c.aos, rail)));
            for (const bool contended : {false, true}) {
                EXPECT_EQ(bits(c.profile.meanPowerWhere(contended, rail)),
                          bits(refMeanWhere(c.aos, contended, rail)));
            }
        }
        std::size_t contended = 0;
        for (const auto& p : c.aos)
            contended += p.contended ? 1 : 0;
        EXPECT_EQ(c.profile.contendedCount(), contended);
    }
}

TEST(ProfileSoa, TrendMatchesExplicitCopyFitBitwise)
{
    fs::Rng rng(9003);
    for (const auto kind :
         {fc::ProfileKind::kSsp, fc::ProfileKind::kTimeline}) {
        const auto c = randomCloud(rng, 400, kind, /*finite_power=*/true);
        // The former implementation copied xs/ys out of the points.
        std::vector<double> xs;
        std::vector<double> ys;
        for (const auto& p : c.aos) {
            xs.push_back(kind == fc::ProfileKind::kTimeline ? p.run_time_us
                                                            : p.toi_us);
            ys.push_back(p.sample.total_w);
        }
        const auto ref = fs::fitPolynomial(xs, ys, 4);
        const auto got = c.profile.trend(fc::Rail::kTotal, 4);
        EXPECT_EQ(got.poly.degree(), ref.poly.degree());
        // Coefficients are private; identical fits evaluate identically.
        for (const double x : {0.0, 13.7, 99.0, 180.5, 4999.0})
            EXPECT_EQ(bits(got.poly(x)), bits(ref.poly(x))) << x;
        EXPECT_EQ(bits(got.r_squared), bits(ref.r_squared));
        EXPECT_EQ(bits(got.rmse), bits(ref.rmse));
    }
}

TEST(ProfileSoa, SeriesMatchesScalarOrderAndValues)
{
    fs::Rng rng(9004);
    for (const auto kind :
         {fc::ProfileKind::kSse, fc::ProfileKind::kTimeline}) {
        const auto c = randomCloud(rng, 300, kind, /*finite_power=*/true);
        const auto s = fa::toSeries(c.profile, fc::Rail::kXcd);
        // Scalar reference: the former index sort over materialized
        // points with the identical comparator.
        std::vector<std::size_t> order(c.aos.size());
        std::iota(order.begin(), order.end(), 0);
        auto key = [&](std::size_t i) {
            return kind == fc::ProfileKind::kTimeline
                       ? c.aos[i].run_time_us
                       : c.aos[i].toi_us;
        };
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      return key(a) < key(b);
                  });
        ASSERT_EQ(s.x.size(), order.size());
        for (std::size_t i = 0; i < order.size(); ++i) {
            EXPECT_EQ(bits(s.x[i]), bits(key(order[i])));
            EXPECT_EQ(bits(s.y[i]), bits(c.aos[order[i]].sample.xcd_w));
        }
    }
}

TEST(ProfileSoa, HistogramColumnFillMatchesPerPointFill)
{
    fs::Rng rng(9005);
    const auto c =
        randomCloud(rng, 5000, fc::ProfileKind::kSsp, /*finite_power=*/true);
    fs::Histogram per_point(0.0, 1.0, 24);
    for (const auto& p : c.aos)
        per_point.add(p.toi_frac);
    fs::Histogram columnar(0.0, 1.0, 24);
    columnar.addColumn(c.profile.toiFrac());
    ASSERT_EQ(columnar.total(), per_point.total());
    for (std::size_t b = 0; b < columnar.bucketCount(); ++b)
        EXPECT_EQ(columnar.count(b), per_point.count(b)) << "bucket " << b;
}

TEST(ProfileSoa, ContentionPhaseBinningMatchesScalarReference)
{
    fs::Rng rng(9006);
    fc::ProfileSet isolated;
    fc::ProfileSet contended;
    isolated.label = contended.label = "cloud";
    isolated.ssp = fc::PowerProfile("cloud", fc::ProfileKind::kSsp);
    contended.ssp = fc::PowerProfile("cloud", fc::ProfileKind::kSsp);
    std::vector<fc::ProfilePoint> iso_pts;
    std::vector<fc::ProfilePoint> con_pts;
    for (int i = 0; i < 2000; ++i) {
        iso_pts.push_back(randomPoint(rng, /*finite_power=*/true));
        isolated.ssp.add(iso_pts.back());
        con_pts.push_back(randomPoint(rng, /*finite_power=*/true));
        contended.ssp.add(con_pts.back());
    }
    const std::size_t phases = 7;
    const auto delta = fa::contentionDelta(isolated, contended, phases);

    // Scalar reference of the phase fill (the former point loop).
    std::vector<double> iso_w(phases, 0.0);
    std::vector<double> con_w(phases, 0.0);
    std::vector<std::size_t> iso_n(phases, 0);
    std::vector<std::size_t> con_n(phases, 0);
    auto bin_of = [&](double frac) {
        const auto b = static_cast<std::size_t>(
            std::clamp(frac, 0.0, 1.0) * static_cast<double>(phases));
        return std::min(b, phases - 1);
    };
    for (const auto& p : iso_pts) {
        iso_w[bin_of(p.toi_frac)] += p.sample.total_w;
        ++iso_n[bin_of(p.toi_frac)];
    }
    for (const auto& p : con_pts) {
        con_w[bin_of(p.toi_frac)] += p.sample.total_w;
        ++con_n[bin_of(p.toi_frac)];
    }
    ASSERT_EQ(delta.phases.size(), phases);
    for (std::size_t b = 0; b < phases; ++b) {
        EXPECT_EQ(delta.phases[b].isolated_lois, iso_n[b]);
        EXPECT_EQ(delta.phases[b].contended_lois, con_n[b]);
        const double ref_iso =
            iso_n[b] ? iso_w[b] / static_cast<double>(iso_n[b]) : 0.0;
        const double ref_con =
            con_n[b] ? con_w[b] / static_cast<double>(con_n[b]) : 0.0;
        EXPECT_EQ(bits(delta.phases[b].isolated_w), bits(ref_iso));
        EXPECT_EQ(bits(delta.phases[b].contended_w), bits(ref_con));
    }
}

TEST(ProfileSoa, PercentileInPlaceMatchesSortReferenceBitwise)
{
    fs::Rng rng(9007);
    for (int round = 0; round < 20; ++round) {
        const auto n = static_cast<std::size_t>(rng.uniformInt(1, 400));
        std::vector<double> xs;
        for (std::size_t i = 0; i < n; ++i)
            xs.push_back(rng.uniform(-1e6, 1e6));
        for (const double p : {0.0, 3.7, 25.0, 50.0, 90.0, 99.5, 100.0}) {
            // Sort-based reference (the former implementation).
            std::vector<double> sorted = xs;
            std::sort(sorted.begin(), sorted.end());
            double ref;
            if (sorted.size() == 1) {
                ref = sorted.front();
            } else {
                const double rank =
                    p / 100.0 * static_cast<double>(sorted.size() - 1);
                const auto lo = static_cast<std::size_t>(rank);
                const auto hi = std::min(lo + 1, sorted.size() - 1);
                const double frac = rank - static_cast<double>(lo);
                ref = sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
            }
            std::vector<double> scratch = xs;
            EXPECT_EQ(bits(fs::percentileInPlace(scratch, p)), bits(ref));
            EXPECT_EQ(bits(fs::percentile(xs, p)), bits(ref));
        }
        std::vector<double> scratch = xs;
        EXPECT_EQ(bits(fs::medianInPlace(scratch)),
                  bits(fs::percentile(xs, 50.0)));
    }
    std::vector<double> empty;
    EXPECT_EQ(fs::percentileInPlace(empty, 50.0), 0.0);
}

TEST(ProfileSoa, MomentsMatchTwoPassReferenceBitwise)
{
    fs::Rng rng(9008);
    for (int round = 0; round < 10; ++round) {
        const auto n = static_cast<std::size_t>(rng.uniformInt(0, 300));
        std::vector<double> xs;
        for (std::size_t i = 0; i < n; ++i)
            xs.push_back(rng.uniform(-1e4, 1e4));
        // References: the former standalone helpers.
        double ref_mean = 0.0;
        if (!xs.empty()) {
            for (const double x : xs)
                ref_mean += x;
            ref_mean /= static_cast<double>(xs.size());
        }
        double ref_sd = 0.0;
        if (xs.size() >= 2) {
            double acc = 0.0;
            for (const double x : xs)
                acc += (x - ref_mean) * (x - ref_mean);
            ref_sd = std::sqrt(acc / static_cast<double>(xs.size() - 1));
        }
        EXPECT_EQ(bits(fs::mean(xs)), bits(ref_mean));
        EXPECT_EQ(bits(fs::stddev(xs)), bits(ref_sd));
        const auto m = fs::moments(xs);
        EXPECT_EQ(m.count, xs.size());
        EXPECT_EQ(bits(m.mean), bits(ref_mean));
        EXPECT_EQ(bits(m.stddev()), bits(ref_sd));
        const double ref_cov =
            (ref_mean == 0.0 || xs.size() < 2) ? 0.0 : ref_sd / ref_mean;
        EXPECT_EQ(bits(fs::coefficientOfVariation(xs)), bits(ref_cov));
    }
}

TEST(ProfileSoa, BranchFreeRunningStatsMatchesBranchedReference)
{
    fs::Rng rng(9009);
    fs::RunningStats got;
    // Branched reference (the former add()).
    std::size_t n = 0;
    double mean = 0.0, m2 = 0.0, mn = 0.0, mx = 0.0, sum = 0.0;
    for (int i = 0; i < 500; ++i) {
        const double x = rng.uniform(-1e5, 1e5);
        got.add(x);
        ++n;
        sum += x;
        if (n == 1) {
            mean = x;
            mn = x;
            mx = x;
            m2 = 0.0;
        } else {
            const double delta = x - mean;
            mean += delta / static_cast<double>(n);
            m2 += delta * (x - mean);
            mn = std::min(mn, x);
            mx = std::max(mx, x);
        }
        EXPECT_EQ(got.count(), n);
        EXPECT_EQ(bits(got.mean()), bits(mean));
        EXPECT_EQ(bits(got.min()), bits(mn));
        EXPECT_EQ(bits(got.max()), bits(mx));
        EXPECT_EQ(bits(got.sum()), bits(sum));
        const double ref_var =
            n < 2 ? 0.0 : m2 / static_cast<double>(n - 1);
        EXPECT_EQ(bits(got.variance()), bits(ref_var));
    }
    // Empty accumulator accessors mask the ±inf sentinels.
    fs::RunningStats empty;
    EXPECT_EQ(empty.mean(), 0.0);
    EXPECT_EQ(empty.min(), 0.0);
    EXPECT_EQ(empty.max(), 0.0);
}

TEST(ProfileSoa, AppendTimelineRunMatchesPerPointAdds)
{
    fs::Rng rng(9010);
    fc::PowerProfile bulk("tl", fc::ProfileKind::kTimeline);
    fc::PowerProfile scalar("tl", fc::ProfileKind::kTimeline);
    for (std::size_t run = 0; run < 5; ++run) {
        const auto n = static_cast<std::size_t>(rng.uniformInt(0, 200));
        std::vector<sim::PowerSample> samples(n);
        sim::SampleColumns columns;
        std::vector<std::int64_t> cpu(n);
        std::vector<double> run_time_us(n);
        std::vector<std::uint8_t> contended(n);
        const std::int64_t start = rng.uniformInt(0, 1LL << 40);
        for (std::size_t k = 0; k < n; ++k) {
            samples[k].gpu_timestamp = rng.uniformInt(0, 1LL << 40);
            samples[k].total_w = rng.uniform(0.0, 1000.0);
            samples[k].xcd_w = rng.uniform(0.0, 500.0);
            samples[k].iod_w = rng.uniform(0.0, 100.0);
            samples[k].hbm_w = rng.uniform(0.0, 200.0);
            columns.push_back(samples[k]);
            cpu[k] = start + static_cast<std::int64_t>(k) * 37'000;
            run_time_us[k] = static_cast<double>(cpu[k] - start) / 1e3;
            contended[k] = rng.uniformInt(0, 1) ? 1 : 0;
        }
        bulk.appendTimelineRun(columns, run_time_us.data(), contended.data(),
                               run);
        for (std::size_t k = 0; k < n; ++k) {
            fc::ProfilePoint p;
            p.run_time_us = static_cast<double>(cpu[k] - start) / 1e3;
            p.sample = samples[k];
            p.run_index = run;
            p.contended = contended[k] != 0;
            scalar.add(p);
        }
    }
    ASSERT_EQ(bulk.size(), scalar.size());
    for (std::size_t i = 0; i < bulk.size(); ++i)
        EXPECT_TRUE(bulk.points()[i] == scalar.points()[i]) << i;
    EXPECT_EQ(bulk.contendedCount(), scalar.contendedCount());
}

TEST(ProfileSoa, AppendRowsMatchesPerPointAdds)
{
    // Runs of 0-200 samples and 0-150 rows each (a row may repeat a
    // sample), so appends start at every offset within a bitmap word.
    fs::Rng rng(9011);
    fc::PowerProfile bulk("rows", fc::ProfileKind::kSsp);
    fc::PowerProfile scalar("rows", fc::ProfileKind::kSsp);
    for (std::size_t run = 0; run < 12; ++run) {
        const auto n = static_cast<std::size_t>(rng.uniformInt(0, 200));
        sim::SampleColumns columns;
        std::vector<double> run_time_us(n);
        std::vector<std::uint8_t> contended(n);
        for (std::size_t k = 0; k < n; ++k) {
            sim::PowerSample sample;
            sample.gpu_timestamp = rng.uniformInt(0, 1LL << 40);
            sample.total_w = rng.uniform(0.0, 1000.0);
            sample.xcd_w = rng.uniform(0.0, 500.0);
            sample.iod_w = rng.uniform(0.0, 100.0);
            sample.hbm_w = rng.uniform(0.0, 200.0);
            columns.push_back(sample);
            run_time_us[k] = rng.uniform(0.0, 1e6);
            contended[k] = rng.uniformInt(0, 1) ? 1 : 0;
        }
        std::vector<fc::StitchRow> rows;
        if (n > 0) {
            const auto count = rng.uniformInt(0, 150);
            for (std::int64_t r = 0; r < count; ++r) {
                const auto sample = static_cast<std::size_t>(
                    rng.uniformInt(0, static_cast<std::int64_t>(n) - 1));
                const auto exec =
                    static_cast<std::size_t>(rng.uniformInt(0, 5000));
                rows.push_back({sample, exec, rng.uniform(0.0, 500.0),
                                rng.uniform(0.0, 1.0)});
            }
        }
        bulk.appendRows(rows, columns, run_time_us.data(), contended.data(),
                        run);
        for (const auto& r : rows) {
            fc::ProfilePoint p;
            p.toi_us = r.toi_us;
            p.toi_frac = r.toi_frac;
            p.run_time_us = run_time_us[r.sample];
            p.sample = columns[r.sample];
            p.run_index = run;
            p.exec_index = r.exec;
            p.contended = contended[r.sample] != 0;
            scalar.add(p);
        }
    }
    ASSERT_EQ(bulk.size(), scalar.size());
    for (std::size_t i = 0; i < bulk.size(); ++i)
        EXPECT_TRUE(bulk.points()[i] == scalar.points()[i]) << i;
    EXPECT_EQ(bulk.contendedWords(), scalar.contendedWords());
}

TEST(ProfileSoa, AdoptColumnsValidatesShapeAndBitmapCanonicality)
{
    const std::size_t n = 3;
    auto make_cols = [&] {
        struct Cols {
            std::vector<double> toi{1.0, 2.0, 3.0};
            std::vector<double> frac{0.1, 0.2, 0.3};
            std::vector<double> rt{10.0, 20.0, 30.0};
            std::vector<std::int64_t> ts{7, 8, 9};
            std::vector<double> tw{100.0, 200.0, 300.0};
            std::vector<double> xw{1.0, 2.0, 3.0};
            std::vector<double> iw{1.0, 2.0, 3.0};
            std::vector<double> hw{1.0, 2.0, 3.0};
            std::vector<std::uint64_t> run{0, 1, 2};
            std::vector<std::uint64_t> exec{0, 0, 1};
            std::vector<std::uint64_t> words{0b101};
        } c;
        return c;
    };

    {
        auto c = make_cols();
        fc::PowerProfile p("ok", fc::ProfileKind::kSsp);
        p.adoptColumns(n, c.toi, c.frac, c.rt, c.ts, c.tw, c.xw, c.iw,
                       c.hw, c.run, c.exec, c.words);
        EXPECT_EQ(p.size(), 3u);
        EXPECT_TRUE(p.contendedBit(0));
        EXPECT_FALSE(p.contendedBit(1));
        EXPECT_TRUE(p.contendedBit(2));
        EXPECT_EQ(p.contendedCount(), 2u);
    }
    {
        auto c = make_cols();
        c.frac.pop_back();  // ragged column
        fc::PowerProfile p("bad", fc::ProfileKind::kSsp);
        EXPECT_THROW(p.adoptColumns(n, c.toi, c.frac, c.rt, c.ts, c.tw,
                                    c.xw, c.iw, c.hw, c.run, c.exec,
                                    c.words),
                     fs::PanicError);
    }
    {
        auto c = make_cols();
        c.words[0] |= std::uint64_t{1} << 7;  // trailing garbage past n=3
        fc::PowerProfile p("bad", fc::ProfileKind::kSsp);
        EXPECT_THROW(p.adoptColumns(n, c.toi, c.frac, c.rt, c.ts, c.tw,
                                    c.xw, c.iw, c.hw, c.run, c.exec,
                                    c.words),
                     fs::PanicError);
    }
    {
        auto c = make_cols();
        c.words.push_back(0);  // wrong word count
        fc::PowerProfile p("bad", fc::ProfileKind::kSsp);
        EXPECT_THROW(p.adoptColumns(n, c.toi, c.frac, c.rt, c.ts, c.tw,
                                    c.xw, c.iw, c.hw, c.run, c.exec,
                                    c.words),
                     fs::PanicError);
    }
}

TEST(ProfileSoa, StitchReferenceIdentityOnFig10Kernels)
{
    // Identity re-run over Fig. 10-set kernels: the incremental stitcher
    // writing into the columnar profiles must reproduce the seed-faithful
    // quadratic oracle bit for bit, run for run.
    for (const char* label : {"AG-512MB", "AR-64KB", "CB-8K-GEMM"}) {
        const auto cfg = sim::mi300xConfig();
        sim::Simulation simulation(cfg, 10001, 1);
        rt::HostRuntime host(simulation, simulation.forkRng(7));
        fc::RunExecutor exec(host, simulation.forkRng(9));

        fc::RunPlan plan;
        plan.main = fk::kernelByLabel(label, cfg);
        plan.main_execs_per_block = 12;
        const auto sync = fc::TimeSync::calibrate(host);
        std::vector<fc::RunRecord> runs;
        for (std::size_t r = 0; r < 8; ++r)
            runs.push_back(exec.executeRun(plan, r));

        fc::ProfilerOptions opts;
        opts.margin_override = 0.05;

        fc::ProfileSet incremental;
        incremental.label = label;
        incremental.sse_exec_index = 2;
        incremental.ssp_exec_index = 5;
        fc::ProfileStitcher stitcher(opts, sync, host.timestampTick());
        std::vector<fc::RunRecord> prefix;
        for (const auto& run : runs) {
            prefix.push_back(run);
            stitcher.restitch(prefix, incremental);
        }

        fc::ProfileSet reference;
        reference.label = label;
        reference.sse_exec_index = 2;
        reference.ssp_exec_index = 5;
        fc::ProfileStitcher::stitchReference(opts, sync,
                                             host.timestampTick(), runs,
                                             reference);
        ASSERT_FALSE(reference.ssp.empty()) << label;
        ASSERT_TRUE(fc::identicalProfileSets(incremental, reference))
            << label;
    }
}

// ---------------------------------------------------------------------------
// Columnar capture (SampleColumns end to end from the logger)
// ---------------------------------------------------------------------------

namespace {

/** One instrumented run on a 2-GPU node with multi-window capture. */
fc::RunRecord
captureRun()
{
    auto cfg = sim::mi300xConfig();
    cfg.node_gpus = 2;
    sim::Simulation simulation(cfg, 6006, 2);
    rt::HostRuntime host(simulation, simulation.forkRng(3));
    fc::RunExecutor exec(host, simulation.forkRng(5));

    fc::RunPlan plan;
    plan.main = fk::kernelByLabel("CB-4K-GEMM", cfg);
    plan.blocks = 2;
    plan.main_execs_per_block = 3;
    plan.extra_windows = {fs::Duration::micros(300.0),
                          fs::Duration::millis(5.0)};
    return exec.executeRun(plan, 0);
}

}  // namespace

TEST(ProfileSoa, CaptureColumnsFillEveryWindow)
{
    const auto rec = captureRun();

    // The scenario must actually capture, in every window.
    ASSERT_FALSE(rec.samples.empty());
    ASSERT_EQ(rec.extra_samples.size(), 2u);
    ASSERT_FALSE(rec.extra_samples[0].empty());
    ASSERT_FALSE(rec.extra_samples[1].empty());
    // The finer extra window emits more rows than the coarser one.
    EXPECT_GT(rec.extra_samples[0].size(), rec.extra_samples[1].size());
}

TEST(ProfileSoa, SampleColumnsRowViewMatchesColumnsBitwise)
{
    const auto rec = captureRun();
    const auto& cols = rec.samples;
    ASSERT_FALSE(cols.empty());

    // The row iterator and operator[] materialize exactly the columns.
    std::size_t i = 0;
    for (const sim::PowerSample s : cols) {
        EXPECT_EQ(s.gpu_timestamp, cols.gpu_timestamp[i]);
        EXPECT_EQ(bits(s.total_w), bits(cols.total_w[i]));
        EXPECT_EQ(bits(s.xcd_w), bits(cols.xcd_w[i]));
        EXPECT_EQ(bits(s.iod_w), bits(cols.iod_w[i]));
        EXPECT_EQ(bits(s.hbm_w), bits(cols.hbm_w[i]));
        ++i;
    }
    EXPECT_EQ(i, cols.size());
    EXPECT_TRUE(cols.front() == cols[0]);
    EXPECT_TRUE(cols.back() == cols[cols.size() - 1]);

    // Round trip through the point-at-a-time exchange type.
    sim::SampleColumns rebuilt;
    rebuilt.reserve(cols.size());
    for (const sim::PowerSample s : cols)
        rebuilt.push_back(s);
    EXPECT_TRUE(rebuilt == cols);
    rebuilt.clear();
    EXPECT_TRUE(rebuilt.empty());
    EXPECT_FALSE(rebuilt == cols);
}

TEST(ProfileSoa, EmptySampleRunsStitchToNothing)
{
    const auto cfg = sim::mi300xConfig();
    sim::Simulation simulation(cfg, 808, 1);
    rt::HostRuntime host(simulation, simulation.forkRng(7));
    fc::RunExecutor exec(host, simulation.forkRng(9));
    const auto sync = fc::TimeSync::calibrate(host);

    fc::RunPlan plan;
    plan.main = fk::kernelByLabel("AR-64KB", cfg);
    plan.main_execs_per_block = 12;

    fc::ProfilerOptions opts;
    opts.margin_override = 0.5;

    // A run captured without power carries empty columns end to end and
    // contributes nothing to any profile.
    std::vector<fc::RunRecord> runs;
    runs.push_back(exec.executeRun(plan, 0, /*with_power=*/false));
    ASSERT_TRUE(runs[0].samples.empty());
    {
        fc::ProfileSet set;
        set.sse_exec_index = 2;
        set.ssp_exec_index = 5;
        fc::ProfileStitcher stitcher(opts, sync, host.timestampTick());
        stitcher.restitch(runs, set);
        EXPECT_EQ(set.timeline.size(), 0u);
        EXPECT_EQ(set.sse.size(), 0u);
        EXPECT_EQ(set.ssp.size(), 0u);
    }

    // Alongside a powered run the empty one still adds zero points: the
    // pair stitches to exactly what the powered run stitches to alone.
    runs.push_back(exec.executeRun(plan, 1));
    ASSERT_FALSE(runs[1].samples.empty());
    fc::ProfileSet both;
    both.sse_exec_index = 2;
    both.ssp_exec_index = 5;
    {
        fc::ProfileStitcher stitcher(opts, sync, host.timestampTick());
        stitcher.restitch(runs, both);
    }
    std::vector<fc::RunRecord> powered_only{runs[1]};
    fc::ProfileSet only;
    only.sse_exec_index = 2;
    only.ssp_exec_index = 5;
    {
        fc::ProfileStitcher stitcher(opts, sync, host.timestampTick());
        stitcher.restitch(powered_only, only);
    }
    ASSERT_EQ(both.timeline.size(), only.timeline.size());
    for (std::size_t i = 0; i < both.timeline.size(); ++i) {
        const auto a = both.timeline.point(i);
        const auto b = only.timeline.point(i);
        EXPECT_EQ(a.sample.gpu_timestamp, b.sample.gpu_timestamp);
        EXPECT_EQ(bits(a.run_time_us), bits(b.run_time_us));
        EXPECT_EQ(bits(a.sample.total_w), bits(b.sample.total_w));
    }
}

// ---------------------------------------------------------------------------
// RunRecord::contendedAt (binary search over merged intervals)
// ---------------------------------------------------------------------------

TEST(ProfileSoa, ContendedAtEdgeCases)
{
    fc::RunRecord rec;
    // No intervals: nowhere is contended.
    EXPECT_FALSE(rec.contendedAt(0));
    EXPECT_FALSE(rec.contendedAt(-1));
    EXPECT_FALSE(rec.contendedAt(std::numeric_limits<std::int64_t>::max()));

    // Half-open [start, end) intervals, including a back-to-back pair.
    rec.contended_cpu_ns = {{100, 200}, {200, 300}, {500, 600}};
    EXPECT_FALSE(rec.contendedAt(99));
    EXPECT_TRUE(rec.contendedAt(100));  // start is inclusive
    EXPECT_TRUE(rec.contendedAt(199));
    EXPECT_TRUE(rec.contendedAt(200));  // seam of [100,200),[200,300)
    EXPECT_TRUE(rec.contendedAt(299));
    EXPECT_FALSE(rec.contendedAt(300));  // end is exclusive
    EXPECT_FALSE(rec.contendedAt(400));  // gap
    EXPECT_FALSE(rec.contendedAt(499));
    EXPECT_TRUE(rec.contendedAt(500));
    EXPECT_TRUE(rec.contendedAt(599));
    EXPECT_FALSE(rec.contendedAt(600));
    EXPECT_FALSE(rec.contendedAt(1LL << 40));

    // Single point-adjacent interval boundaries under randomized probes:
    // the binary search must agree with a linear containment scan.
    fs::Rng rng(314);
    fc::RunRecord fuzz;
    std::int64_t t = 0;
    for (int i = 0; i < 40; ++i) {
        t += rng.uniformInt(0, 50);  // zero gap => back-to-back allowed
        const std::int64_t end = t + 1 + rng.uniformInt(0, 80);
        if (!fuzz.contended_cpu_ns.empty() &&
            fuzz.contended_cpu_ns.back().second == t) {
            // keep the merged-ascending invariant: extend instead
            fuzz.contended_cpu_ns.back().second = end;
        } else {
            fuzz.contended_cpu_ns.emplace_back(t, end);
        }
        t = end;
    }
    for (int probe = 0; probe < 2000; ++probe) {
        const std::int64_t q = rng.uniformInt(-10, t + 10);
        bool linear = false;
        for (const auto& iv : fuzz.contended_cpu_ns)
            linear |= q >= iv.first && q < iv.second;
        EXPECT_EQ(fuzz.contendedAt(q), linear) << "q=" << q;
    }
}

// ---------------------------------------------------------------------------
// SIMD shim kernels vs their compiled-in scalar oracles
// ---------------------------------------------------------------------------

TEST(ProfileSoa, FilteredReduceKernelMatchesScalarOracleBitwise)
{
    fs::Rng rng(2718);
    for (const std::size_t n :
         {std::size_t{0}, std::size_t{1}, std::size_t{63}, std::size_t{64},
          std::size_t{65}, std::size_t{127}, std::size_t{128},
          std::size_t{129}, std::size_t{1000}}) {
        std::vector<double> v(n);
        for (double& x : v)
            x = edgeDouble(rng);
        const std::size_t nwords = (n + 63) / 64;
        // Adversarial bitmap patterns: nothing selected, everything
        // selected, uniform random, and blocky words (the shapes that hit
        // the kernel's skip / dense / mixed word paths), each with
        // garbage beyond bit n-1 in the tail word — both sides mask it.
        for (int pattern = 0; pattern < 4; ++pattern) {
            std::vector<std::uint64_t> words(nwords, 0);
            for (std::size_t w = 0; w < nwords; ++w) {
                switch (pattern) {
                  case 0:
                    words[w] = 0;
                    break;
                  case 1:
                    words[w] = ~std::uint64_t{0};
                    break;
                  case 2:
                    words[w] = static_cast<std::uint64_t>(
                        rng.uniformInt(0, std::numeric_limits<std::int64_t>::max()));
                    break;
                  default:
                    words[w] = w % 3 == 0   ? 0
                               : w % 3 == 1 ? ~std::uint64_t{0}
                                            : std::uint64_t{0xF0F0F0F0F0F0F0F0};
                    break;
                }
            }
            if (nwords > 0 && n % 64 != 0 && pattern == 0)
                words.back() = ~std::uint64_t{0} << (n % 64);  // tail garbage
            for (const bool want : {false, true}) {
                const auto a = fs::simd::filteredReduceScalar(
                    v.data(), words.data(), n, want);
                const auto b =
                    fs::simd::filteredReduce(v.data(), words.data(), n, want);
                EXPECT_EQ(a.count, b.count)
                    << "n=" << n << " pat=" << pattern << " want=" << want;
                EXPECT_EQ(bits(a.sum), bits(b.sum)) << "n=" << n;
                EXPECT_EQ(bits(a.min), bits(b.min)) << "n=" << n;
                EXPECT_EQ(bits(a.max), bits(b.max)) << "n=" << n;
            }
        }
    }
}

TEST(ProfileSoa, FilteredRailStatsMatchesOracleOnProfileBitmap)
{
    fs::Rng rng(5050);
    for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                                std::size_t{130}, std::size_t{2000}}) {
        const auto c = randomCloud(rng, n, fc::ProfileKind::kTimeline);
        for (const fc::Rail rail : kRails) {
            const auto& col = c.profile.railColumn(rail);
            for (const bool want : {false, true}) {
                const auto expect = fs::simd::filteredReduceScalar(
                    col.data(), c.profile.contendedWords().data(), n, want);
                const auto st = c.profile.railStats(
                    rail, want ? fc::ContentionFilter::kContended
                               : fc::ContentionFilter::kUncontended);
                EXPECT_EQ(st.count, expect.count);
                EXPECT_EQ(bits(st.sum), bits(expect.sum));
                EXPECT_EQ(bits(st.min), bits(expect.min));
                EXPECT_EQ(bits(st.max), bits(expect.max));
            }
        }
    }
}

TEST(ProfileSoa, BoundaryScansMatchScalarOracle)
{
    fs::Rng rng(99);
    for (const std::size_t n :
         {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
          std::size_t{4}, std::size_t{5}, std::size_t{7}, std::size_t{8},
          std::size_t{1000}}) {
        // Ascending with plateaus: zero increments make duplicate runs,
        // the case where >= and > boundaries land at different indices.
        std::vector<std::int64_t> v(n);
        std::int64_t x = rng.uniformInt(-100, 100);
        for (std::size_t i = 0; i < n; ++i) {
            x += rng.uniformInt(0, 3);
            v[i] = x;
        }
        std::vector<std::int64_t> bounds = {
            std::numeric_limits<std::int64_t>::min(), -200, 200,
            std::numeric_limits<std::int64_t>::max()};
        for (const std::int64_t b : v) {
            bounds.push_back(b - 1);
            bounds.push_back(b);
            bounds.push_back(b + 1);
        }
        for (const std::size_t from :
             {std::size_t{0}, n / 3, n == 0 ? 0 : n - 1, n}) {
            for (const std::int64_t b : bounds) {
                EXPECT_EQ(fs::simd::scanGe(v.data(), from, n, b),
                          fs::simd::scanGeScalar(v.data(), from, n, b))
                    << "n=" << n << " from=" << from << " bound=" << b;
                EXPECT_EQ(fs::simd::scanGt(v.data(), from, n, b),
                          fs::simd::scanGtScalar(v.data(), from, n, b))
                    << "n=" << n << " from=" << from << " bound=" << b;
            }
        }
    }
}

TEST(ProfileSoa, TranslateColumnMatchesPerElementTranslation)
{
    const auto cfg = sim::mi300xConfig();
    sim::Simulation simulation(cfg, 515, 1);
    rt::HostRuntime host(simulation, simulation.forkRng(2));
    auto sync = fc::TimeSync::calibrate(host);
    const std::int64_t tick_ns = host.timestampTick().nanos();
    const std::int64_t anchor = sync.anchorGpuNs() / tick_ns;

    fs::Rng rng(77);
    const auto check = [&](const fc::TimeSync& s) {
        std::vector<std::int64_t> counters;
        counters.reserve(803);
        // Ascending counters straddling the anchor (some before it).
        std::int64_t c = anchor - 2'000'000;
        for (std::size_t i = 0; i < 803; ++i) {  // odd count: unrolled tail
            c += rng.uniformInt(0, 40'000);
            counters.push_back(c);
        }
        std::vector<std::int64_t> out(counters.size());
        s.translateColumn(counters.data(), counters.size(), out.data());
        for (std::size_t i = 0; i < counters.size(); ++i)
            EXPECT_EQ(out[i], s.gpuCounterToCpuNs(counters[i])) << "i=" << i;
        // Degenerate length.
        s.translateColumn(counters.data(), 0, out.data());
    };

    check(sync);  // anchor-only mapping (zero drift)
    host.sleep(fs::Duration::millis(150.0));
    sync.addDriftAnchor(host);
    check(sync);  // drift-compensated mapping
}

// ---------------------------------------------------------------------------
// Out-of-enum rails are fatal, not silently coerced
// ---------------------------------------------------------------------------

TEST(ProfileSoa, OutOfEnumRailIsFatal)
{
    fs::Rng rng(1);
    const auto c = randomCloud(rng, 8, fc::ProfileKind::kTimeline);
    EXPECT_THROW(c.profile.railColumn(static_cast<fc::Rail>(99)),
                 fs::FatalError);
    EXPECT_THROW(c.profile.railStats(static_cast<fc::Rail>(99)),
                 fs::FatalError);
    EXPECT_THROW(fc::railValue(sim::PowerSample{}, static_cast<fc::Rail>(99)),
                 fs::FatalError);
    // In-range rails keep working.
    for (const fc::Rail rail : kRails)
        EXPECT_EQ(c.profile.railColumn(rail).size(), 8u);
}
