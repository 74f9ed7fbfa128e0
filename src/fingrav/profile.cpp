#include "fingrav/profile.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "support/logging.hpp"
#include "support/simd.hpp"

namespace fingrav::core {

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
    addRow(p.toi_us, p.toi_frac, p.run_time_us, p.sample, p.run_index,
           p.exec_index, p.contended);
    // gpu_timestamp rides inside the sample; addRow stored it already.
}

void
PowerProfile::addRow(double toi_us, double toi_frac, double run_time_us,
                     const sim::PowerSample& sample, std::size_t run_index,
                     std::size_t exec_index, bool contended)
{
    toi_us_.push_back(toi_us);
    toi_frac_.push_back(toi_frac);
    run_time_us_.push_back(run_time_us);
    gpu_timestamp_.push_back(sample.gpu_timestamp);
    total_w_.push_back(sample.total_w);
    xcd_w_.push_back(sample.xcd_w);
    iod_w_.push_back(sample.iod_w);
    hbm_w_.push_back(sample.hbm_w);
    run_index_.push_back(static_cast<std::uint64_t>(run_index));
    exec_index_.push_back(static_cast<std::uint64_t>(exec_index));
    setContended(size_, contended);
    ++size_;
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
    for (std::size_t k = 0; k < n; ++k) {
        if (contended[k]) {
            const std::size_t i = base + k;
            contended_words_[i >> 6] |= std::uint64_t{1} << (i & 63);
        }
    }
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
