#ifndef FINGRAV_FINGRAV_PROFILE_HPP_
#define FINGRAV_FINGRAV_PROFILE_HPP_

/**
 * @file
 * Stitched fine-grain power profiles (the FinGraV output artifact).
 *
 * A PowerProfile is a cloud of (TOI, power) points collected across runs:
 * each point is one power log-of-interest (LOI) whose synced CPU-domain
 * timestamp fell inside a kernel execution, positioned at its
 * time-of-interest (TOI) within that execution.  Random inter-run delays
 * decorrelate the logger's window grid from kernel start, so across many
 * runs the TOIs cover the whole execution — that is what makes the stitched
 * cloud a *fine-grain time series* of a kernel that is far shorter than the
 * logger window (paper step 9: "stitch the different runs by plotting all
 * collected LOIs and TOIs").
 *
 * Storage is structure-of-arrays: one contiguous column per point field
 * (TOI, per-rail power, run/exec indices, a packed contention bitmap)
 * instead of a vector of ProfilePoint structs.  The hot analysis kernels
 * (rail reductions, trend fits, phase binning, codec encode) stream whole
 * columns with no per-point rail dispatch, and the wire codec moves
 * columns as single byte blocks.  ProfilePoint remains the point-at-a-time
 * exchange type: point(i) materializes one, points() yields a view whose
 * iterator materializes on demand, so point-wise callers (tests, oracles,
 * CSV dumps) are source-compatible with the old AoS layout.
 */

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "sim/power_logger.hpp"
#include "support/polyfit.hpp"
#include "support/time_types.hpp"

namespace fingrav::core {

/** Telemetry rail selector. */
enum class Rail {
    kTotal,
    kXcd,
    kIod,
    kHbm,
};

/** Printable rail name. */
const char* toString(Rail rail);

/** Rail value of a sample. */
double railValue(const sim::PowerSample& s, Rail rail);

/** One stitched profile point. */
struct ProfilePoint {
    double toi_us = 0.0;        ///< time into the execution, microseconds
    double toi_frac = 0.0;      ///< TOI normalized by execution time
    double run_time_us = 0.0;   ///< time since the run's first execution
    sim::PowerSample sample;    ///< the LOI (per-rail window averages)
    std::size_t run_index = 0;  ///< which run produced it
    std::size_t exec_index = 0; ///< which execution within the run
    /**
     * Contention state active when this LOI closed: true when the
     * sample's timestamp fell inside a background-active interval of its
     * run (scenario environments; fingrav/scenario.hpp).  Always false
     * for isolated campaigns, so reports can split SSP/SSE into
     * uncontended vs contended phases.
     */
    bool contended = false;
};

/** Bitwise point equality (stitcher equivalence checks). */
inline bool
operator==(const ProfilePoint& a, const ProfilePoint& b)
{
    return a.toi_us == b.toi_us && a.toi_frac == b.toi_frac &&
           a.run_time_us == b.run_time_us && a.sample == b.sample &&
           a.run_index == b.run_index && a.exec_index == b.exec_index &&
           a.contended == b.contended;
}

/**
 * One stitched LOI of a run: sample `sample` of the run's log, inside
 * main execution `exec` at TOI `toi_us` (`toi_frac` of the execution).
 */
struct StitchRow {
    std::size_t sample, exec;
    double toi_us, toi_frac;
};

/** Profile flavour per the paper's S4 differentiation. */
enum class ProfileKind {
    kSse,       ///< steady-state-execution profile (first post-warm-up exec)
    kSsp,       ///< steady-state-power profile (post power stabilization)
    kTimeline,  ///< all samples of the runs laid out in run time (Fig. 6/8)
};

/** Printable kind name. */
const char* toString(ProfileKind kind);

/** Which points a rail reduction runs over. */
enum class ContentionFilter {
    kAll,          ///< every point
    kContended,    ///< points whose contended flag is set
    kUncontended,  ///< points whose contended flag is clear
};

/**
 * One-pass rail reduction outcome: count, running sum (accumulated in
 * point order, so means reproduce the former per-accessor loops bit for
 * bit), and extrema of the selected points.
 */
struct RailStats {
    std::size_t count = 0;
    double sum = 0.0;
    double min = 0.0;  ///< 0 when count == 0
    double max = 0.0;  ///< 0 when count == 0

    /** Arithmetic mean; 0 when no point matched. */
    double
    mean() const
    {
        return count > 0 ? sum / static_cast<double>(count) : 0.0;
    }
};

/** A stitched power profile. */
class PowerProfile {
  public:
    PowerProfile() = default;

    /**
     * @param label  Kernel label the profile belongs to.
     * @param kind   SSE / SSP / timeline.
     */
    PowerProfile(std::string label, ProfileKind kind)
        : label_(std::move(label)), kind_(kind)
    {
    }

    /** Append a point (scattered into the columns). */
    void add(const ProfilePoint& p);

    /**
     * Bulk-append one run's stitched rows, in order: row r takes its TOI
     * and execution from rows[r], and its sample, run time and contention
     * flag from element rows[r].sample of `samples`, `run_time_us` and
     * `contended` (one 0/1 byte per sample).  Column by column: each
     * column grows once per call.
     */
    void appendRows(const std::vector<StitchRow>& rows,
                    const sim::SampleColumns& samples,
                    const double* run_time_us,
                    const std::uint8_t* contended, std::size_t run_index);

    /**
     * Bulk-append one run's timeline: every sample k at run time
     * run_time_us[k], with TOI fields zero and no exec attribution — the
     * stitcher's whole-run view.  `contended` holds one 0/1 byte per
     * sample.  The samples arrive as capture-time columns
     * (sim::SampleColumns) and are bulk-copied column to column — no
     * row materialization, no transpose.
     */
    void appendTimelineRun(const sim::SampleColumns& samples,
                           const double* run_time_us,
                           const std::uint8_t* contended,
                           std::size_t run_index);

    /**
     * Adopt fully-built columns wholesale (the codec's zero-copy decode
     * lands here): every column must hold exactly `n` elements and
     * `contended_words` must hold (n + 63) / 64 packed bits with all
     * trailing bits zero; anything else is fatal.
     */
    void adoptColumns(std::size_t n, std::vector<double> toi_us,
                      std::vector<double> toi_frac,
                      std::vector<double> run_time_us,
                      std::vector<std::int64_t> gpu_timestamp,
                      std::vector<double> total_w, std::vector<double> xcd_w,
                      std::vector<double> iod_w, std::vector<double> hbm_w,
                      std::vector<std::uint64_t> run_index,
                      std::vector<std::uint64_t> exec_index,
                      std::vector<std::uint64_t> contended_words);

    /** Reserve capacity in every column. */
    void reserve(std::size_t n);

    /** Materialize point i. */
    ProfilePoint point(std::size_t i) const;

    /** Number of LOIs. */
    std::size_t size() const { return size_; }

    /** True when no LOIs were captured. */
    bool empty() const { return size_ == 0; }

    // -- point-at-a-time view (source compatibility with the AoS layout) --

    /** Iterator materializing ProfilePoints from the columns on demand. */
    class PointIterator {
      public:
        using iterator_category = std::input_iterator_tag;
        using value_type = ProfilePoint;
        using difference_type = std::ptrdiff_t;
        using pointer = const ProfilePoint*;
        using reference = ProfilePoint;

        PointIterator(const PowerProfile* p, std::size_t i)
            : profile_(p), i_(i)
        {
        }

        ProfilePoint operator*() const { return profile_->point(i_); }
        PointIterator& operator++() { ++i_; return *this; }
        PointIterator operator++(int) { auto c = *this; ++i_; return c; }
        bool operator==(const PointIterator& o) const { return i_ == o.i_; }
        bool operator!=(const PointIterator& o) const { return i_ != o.i_; }

      private:
        const PowerProfile* profile_;
        std::size_t i_;
    };

    /** Range/index view over the points (materialized on access). */
    class PointsView {
      public:
        explicit PointsView(const PowerProfile* p) : profile_(p) {}

        std::size_t size() const { return profile_->size(); }
        bool empty() const { return profile_->empty(); }
        ProfilePoint operator[](std::size_t i) const
        {
            return profile_->point(i);
        }
        PointIterator begin() const { return {profile_, 0}; }
        PointIterator end() const { return {profile_, profile_->size()}; }

      private:
        const PowerProfile* profile_;
    };

    /** All points (unsorted), materialized on access. */
    PointsView points() const { return PointsView(this); }

    // -- columns ---------------------------------------------------------

    const std::vector<double>& toiUs() const { return toi_us_; }
    const std::vector<double>& toiFrac() const { return toi_frac_; }
    const std::vector<double>& runTimeUs() const { return run_time_us_; }
    const std::vector<std::int64_t>& gpuTimestamps() const
    {
        return gpu_timestamp_;
    }
    const std::vector<std::uint64_t>& runIndices() const
    {
        return run_index_;
    }
    const std::vector<std::uint64_t>& execIndices() const
    {
        return exec_index_;
    }
    /** Packed contention bitmap, 64 points per word, LSB-first. */
    const std::vector<std::uint64_t>& contendedWords() const
    {
        return contended_words_;
    }
    /** The power column of one rail. */
    const std::vector<double>& railColumn(Rail rail) const;

    /** Contention flag of point i. */
    bool
    contendedBit(std::size_t i) const
    {
        return (contended_words_[i >> 6] >> (i & 63)) & 1u;
    }

    /** X column a trend/series runs over (run time for timelines, TOI
     *  otherwise). */
    const std::vector<double>&
    xColumn() const
    {
        return kind_ == ProfileKind::kTimeline ? run_time_us_ : toi_us_;
    }

    // -- reductions ------------------------------------------------------

    /**
     * One-pass reduction over a rail column: count, sum (point order),
     * min, max of the selected points.  All the former per-accessor
     * loops (meanPower, minPower, maxPower, meanPowerWhere, the
     * contention-delta means) collapse into this kernel.
     */
    RailStats railStats(Rail rail,
                        ContentionFilter filter =
                            ContentionFilter::kAll) const;

    /** Mean of a rail across all points; 0 when empty. */
    double
    meanPower(Rail rail = Rail::kTotal) const
    {
        return railStats(rail).mean();
    }

    /** Min/max of a rail across all points; 0 when empty. */
    double minPower(Rail rail = Rail::kTotal) const
    {
        return railStats(rail).min;
    }
    double maxPower(Rail rail = Rail::kTotal) const
    {
        return railStats(rail).max;
    }

    /** LOIs flagged as contended (popcount over the packed bitmap). */
    std::size_t contendedCount() const;

    /** Mean of a rail over points with the given contention flag; 0 when
     *  no point carries that flag. */
    double
    meanPowerWhere(bool contended, Rail rail = Rail::kTotal) const
    {
        return railStats(rail, contended ? ContentionFilter::kContended
                                         : ContentionFilter::kUncontended)
            .mean();
    }

    /**
     * Degree-`degree` least-squares trend of a rail over TOI (the paper's
     * "linear regression of degree four" overlay).  X is toi_us for
     * SSE/SSP profiles and run_time_us for timelines; both are handed to
     * the fitter as column views — no copies.
     */
    support::PolyFitResult trend(Rail rail, std::size_t degree = 4) const;

    /** Kernel label. */
    const std::string& label() const { return label_; }

    /** Profile flavour. */
    ProfileKind kind() const { return kind_; }

  private:
    std::string label_;
    ProfileKind kind_ = ProfileKind::kSsp;

    std::size_t size_ = 0;
    std::vector<double> toi_us_;
    std::vector<double> toi_frac_;
    std::vector<double> run_time_us_;
    std::vector<std::int64_t> gpu_timestamp_;
    std::vector<double> total_w_;
    std::vector<double> xcd_w_;
    std::vector<double> iod_w_;
    std::vector<double> hbm_w_;
    std::vector<std::uint64_t> run_index_;
    std::vector<std::uint64_t> exec_index_;
    std::vector<std::uint64_t> contended_words_;
};

}  // namespace fingrav::core

#endif  // FINGRAV_FINGRAV_PROFILE_HPP_
