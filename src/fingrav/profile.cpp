#include "fingrav/profile.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "support/logging.hpp"
#include "support/simd.hpp"

namespace fingrav::core {

namespace {

/**
 * Set the contention bits of points [base, base + n) in `words`, which
 * already holds their words: flag(k) is point base + k's 0/1 flag.  A
 * word's flags are ORed together first, so a clear word (every word of
 * an isolated campaign) costs one branch-free pass; a word with a flag
 * set is packed in a register and stored once.
 */
template <typename Flag>
void
setFlags(std::uint64_t* words, std::size_t base, std::size_t n,
         const Flag& flag)
{
    for (std::size_t k = 0; k < n;) {
        const std::size_t i = base + k;
        const std::size_t m = std::min<std::size_t>(64 - (i & 63), n - k);
        std::uint8_t any = 0;
        for (std::size_t j = 0; j < m; ++j)
            any |= flag(k + j);
        if (any != 0) {
            std::uint64_t bits = 0;
            for (std::size_t j = 0; j < m; ++j)
                bits |= static_cast<std::uint64_t>(flag(k + j) != 0) << j;
            words[i >> 6] |= bits << (i & 63);
        }
        k += m;
    }
}

}  // namespace

const char*
toString(Rail rail)
{
    switch (rail) {
      case Rail::kTotal:
        return "total";
      case Rail::kXcd:
        return "XCD";
      case Rail::kIod:
        return "IOD";
      case Rail::kHbm:
        return "HBM";
    }
    return "?";
}

double
railValue(const sim::PowerSample& s, Rail rail)
{
    switch (rail) {
      case Rail::kTotal:
        return s.total_w;
      case Rail::kXcd:
        return s.xcd_w;
      case Rail::kIod:
        return s.iod_w;
      case Rail::kHbm:
        return s.hbm_w;
    }
    support::fatal("railValue: out-of-enum Rail ", static_cast<int>(rail));
}

const char*
toString(ProfileKind kind)
{
    switch (kind) {
      case ProfileKind::kSse:
        return "SSE";
      case ProfileKind::kSsp:
        return "SSP";
      case ProfileKind::kTimeline:
        return "timeline";
    }
    return "?";
}

void
PowerProfile::add(const ProfilePoint& p)
{
    toi_us_.push_back(p.toi_us);
    toi_frac_.push_back(p.toi_frac);
    run_time_us_.push_back(p.run_time_us);
    gpu_timestamp_.push_back(p.sample.gpu_timestamp);
    total_w_.push_back(p.sample.total_w);
    xcd_w_.push_back(p.sample.xcd_w);
    iod_w_.push_back(p.sample.iod_w);
    hbm_w_.push_back(p.sample.hbm_w);
    run_index_.push_back(static_cast<std::uint64_t>(p.run_index));
    exec_index_.push_back(static_cast<std::uint64_t>(p.exec_index));
    contended_words_.resize((size_ + 64) / 64, 0);
    if (p.contended)
        contended_words_[size_ >> 6] |= std::uint64_t{1} << (size_ & 63);
    ++size_;
}

void
PowerProfile::appendRows(const std::vector<StitchRow>& rows,
                         const sim::SampleColumns& samples,
                         const double* run_time_us,
                         const std::uint8_t* contended,
                         std::size_t run_index)
{
    // Most runs of a short kernel hold no SSE row and few SSP rows.
    const std::size_t n = rows.size();
    if (n == 0)
        return;
    const std::size_t base = size_;
    const std::size_t total = base + n;
    const StitchRow* r = rows.data();
    // One resize per column, then a gather through the rows' sample
    // indices (or a copy of their own fields).
    const auto gather = [&](auto& column, const auto& field) {
        column.resize(total);
        auto* out = column.data() + base;
        for (std::size_t k = 0; k < n; ++k)
            out[k] = field(r[k]);
    };
    gather(toi_us_, [](const StitchRow& row) { return row.toi_us; });
    gather(toi_frac_, [](const StitchRow& row) { return row.toi_frac; });
    gather(run_time_us_,
           [&](const StitchRow& row) { return run_time_us[row.sample]; });
    gather(gpu_timestamp_, [&](const StitchRow& row) {
        return samples.gpu_timestamp[row.sample];
    });
    gather(total_w_,
           [&](const StitchRow& row) { return samples.total_w[row.sample]; });
    gather(xcd_w_,
           [&](const StitchRow& row) { return samples.xcd_w[row.sample]; });
    gather(iod_w_,
           [&](const StitchRow& row) { return samples.iod_w[row.sample]; });
    gather(hbm_w_,
           [&](const StitchRow& row) { return samples.hbm_w[row.sample]; });
    run_index_.resize(total, static_cast<std::uint64_t>(run_index));
    gather(exec_index_, [](const StitchRow& row) {
        return static_cast<std::uint64_t>(row.exec);
    });
    contended_words_.resize((total + 63) / 64, 0);
    setFlags(contended_words_.data(), base, n,
             [&](std::size_t k) { return contended[r[k].sample]; });
    size_ = total;
}

void
PowerProfile::appendTimelineRun(const sim::SampleColumns& samples,
                                const double* run_time_us,
                                const std::uint8_t* contended,
                                std::size_t run_index)
{
    const std::size_t n = samples.size();
    const std::size_t base = size_;
    const std::size_t total = base + n;
    toi_us_.resize(total, 0.0);
    toi_frac_.resize(total, 0.0);
    run_index_.resize(total, static_cast<std::uint64_t>(run_index));
    exec_index_.resize(total, 0);

    // The rail, timestamp and run-time columns already exist
    // contiguously — straight column-to-column bulk copies.
    run_time_us_.insert(run_time_us_.end(), run_time_us, run_time_us + n);
    gpu_timestamp_.insert(gpu_timestamp_.end(), samples.gpu_timestamp.begin(),
                          samples.gpu_timestamp.end());
    total_w_.insert(total_w_.end(), samples.total_w.begin(),
                    samples.total_w.end());
    xcd_w_.insert(xcd_w_.end(), samples.xcd_w.begin(), samples.xcd_w.end());
    iod_w_.insert(iod_w_.end(), samples.iod_w.begin(), samples.iod_w.end());
    hbm_w_.insert(hbm_w_.end(), samples.hbm_w.begin(), samples.hbm_w.end());

    contended_words_.resize((total + 63) / 64, 0);
    setFlags(contended_words_.data(), base, n,
             [&](std::size_t k) { return contended[k]; });
    size_ = total;
}

void
PowerProfile::adoptColumns(std::size_t n, std::vector<double> toi_us,
                           std::vector<double> toi_frac,
                           std::vector<double> run_time_us,
                           std::vector<std::int64_t> gpu_timestamp,
                           std::vector<double> total_w,
                           std::vector<double> xcd_w,
                           std::vector<double> iod_w,
                           std::vector<double> hbm_w,
                           std::vector<std::uint64_t> run_index,
                           std::vector<std::uint64_t> exec_index,
                           std::vector<std::uint64_t> contended_words)
{
    const std::size_t words = (n + 63) / 64;
    FINGRAV_ASSERT(toi_us.size() == n && toi_frac.size() == n &&
                       run_time_us.size() == n &&
                       gpu_timestamp.size() == n && total_w.size() == n &&
                       xcd_w.size() == n && iod_w.size() == n &&
                       hbm_w.size() == n && run_index.size() == n &&
                       exec_index.size() == n,
                   "profile: adopted columns disagree on length");
    FINGRAV_ASSERT(contended_words.size() == words,
                   "profile: contended bitmap has wrong word count");
    if (n % 64 != 0 && words > 0) {
        const std::uint64_t tail_mask = ~std::uint64_t{0} << (n % 64);
        FINGRAV_ASSERT((contended_words.back() & tail_mask) == 0,
                       "profile: contended bitmap has trailing garbage");
    }
    size_ = n;
    toi_us_ = std::move(toi_us);
    toi_frac_ = std::move(toi_frac);
    run_time_us_ = std::move(run_time_us);
    gpu_timestamp_ = std::move(gpu_timestamp);
    total_w_ = std::move(total_w);
    xcd_w_ = std::move(xcd_w);
    iod_w_ = std::move(iod_w);
    hbm_w_ = std::move(hbm_w);
    run_index_ = std::move(run_index);
    exec_index_ = std::move(exec_index);
    contended_words_ = std::move(contended_words);
}

void
PowerProfile::reserve(std::size_t n)
{
    toi_us_.reserve(n);
    toi_frac_.reserve(n);
    run_time_us_.reserve(n);
    gpu_timestamp_.reserve(n);
    total_w_.reserve(n);
    xcd_w_.reserve(n);
    iod_w_.reserve(n);
    hbm_w_.reserve(n);
    run_index_.reserve(n);
    exec_index_.reserve(n);
    contended_words_.reserve((n + 63) / 64);
}

ProfilePoint
PowerProfile::point(std::size_t i) const
{
    FINGRAV_ASSERT(i < size_, "profile: point index out of range");
    ProfilePoint p;
    p.toi_us = toi_us_[i];
    p.toi_frac = toi_frac_[i];
    p.run_time_us = run_time_us_[i];
    p.sample.gpu_timestamp = gpu_timestamp_[i];
    p.sample.total_w = total_w_[i];
    p.sample.xcd_w = xcd_w_[i];
    p.sample.iod_w = iod_w_[i];
    p.sample.hbm_w = hbm_w_[i];
    p.run_index = static_cast<std::size_t>(run_index_[i]);
    p.exec_index = static_cast<std::size_t>(exec_index_[i]);
    p.contended = contendedBit(i);
    return p;
}

const std::vector<double>&
PowerProfile::railColumn(Rail rail) const
{
    switch (rail) {
      case Rail::kTotal:
        return total_w_;
      case Rail::kXcd:
        return xcd_w_;
      case Rail::kIod:
        return iod_w_;
      case Rail::kHbm:
        return hbm_w_;
    }
    // An out-of-enum Rail is a caller bug; silently reading the total
    // column here used to mask it.
    support::fatal("railColumn: out-of-enum Rail ", static_cast<int>(rail));
}

RailStats
PowerProfile::railStats(Rail rail, ContentionFilter filter) const
{
    RailStats st;
    const std::vector<double>& col = railColumn(rail);
    if (filter == ContentionFilter::kAll) {
        if (size_ == 0)
            return st;
        // One streaming pass; the sum accumulates in point order so the
        // mean matches the former scalar loop bit for bit.
        const double* v = col.data();
        double acc = 0.0;
        double mn = v[0];
        double mx = v[0];
        for (std::size_t i = 0; i < size_; ++i) {
            acc += v[i];
            mn = std::min(mn, v[i]);
            mx = std::max(mx, v[i]);
        }
        st.count = size_;
        st.sum = acc;
        st.min = mn;
        st.max = mx;
        return st;
    }

    // Filtered path: the bitmap-guarded reduction the autovectorizer
    // balks on — routed through the SIMD shim's word-skipping kernel
    // (scalar fallback under FINGRAV_SIMD_SCALAR), which visits selected
    // points in the same order as the former branchy loop, bit for bit.
    const bool want = filter == ContentionFilter::kContended;
    const auto r = support::simd::filteredReduce(
        col.data(), contended_words_.data(), size_, want);
    st.count = r.count;
    st.sum = r.sum;
    st.min = r.min;
    st.max = r.max;
    return st;
}

std::size_t
PowerProfile::contendedCount() const
{
    std::size_t n = 0;
    for (const std::uint64_t w : contended_words_)
        n += static_cast<std::size_t>(std::popcount(w));
    return n;
}

support::PolyFitResult
PowerProfile::trend(Rail rail, std::size_t degree) const
{
    // Both inputs are stored columns — no staging copies.
    return support::fitPolynomial(xColumn(), railColumn(rail), degree);
}

}  // namespace fingrav::core
