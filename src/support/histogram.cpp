#include "support/histogram.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "support/logging.hpp"
#include "support/simd.hpp"

namespace fingrav::support {

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), width_((hi - lo) / static_cast<double>(buckets)),
      counts_(buckets, 0)
{
    if (buckets == 0)
        fatal("Histogram: need at least one bucket");
    if (hi <= lo)
        fatal("Histogram: hi (", hi, ") must exceed lo (", lo, ")");
}

void
Histogram::add(double x)
{
    auto idx = static_cast<std::ptrdiff_t>((x - lo_) / width_);
    idx = std::clamp<std::ptrdiff_t>(
        idx, 0, static_cast<std::ptrdiff_t>(counts_.size()) - 1);
    ++counts_[static_cast<std::size_t>(idx)];
    ++total_;
}

void
Histogram::addColumn(const std::vector<double>& xs)
{
    const double lo = lo_;
    const double width = width_;
    const auto last = static_cast<std::ptrdiff_t>(counts_.size()) - 1;
    std::size_t* counts = counts_.data();
    // Two-phase fill: the bucket-index arithmetic is element-independent
    // and vectorizes (same (x - lo) / width truncation as add() — a
    // precomputed reciprocal would round differently near bucket edges,
    // so the division stays); the count scatter cannot (two lanes may
    // hit the same bucket), so it runs scalar over a small index block.
    constexpr std::size_t kBlock = 256;
    std::ptrdiff_t idx[kBlock];
    const double* v = xs.data();
    const std::size_t n = xs.size();
    for (std::size_t base = 0; base < n; base += kBlock) {
        const std::size_t m = n - base < kBlock ? n - base : kBlock;
        FINGRAV_SIMD_LOOP
        for (std::size_t k = 0; k < m; ++k) {
            auto i = static_cast<std::ptrdiff_t>((v[base + k] - lo) / width);
            idx[k] = i < 0 ? 0 : (i > last ? last : i);
        }
        for (std::size_t k = 0; k < m; ++k)
            ++counts[static_cast<std::size_t>(idx[k])];
    }
    total_ += xs.size();
}

double
Histogram::bucketCenter(std::size_t i) const
{
    return lo_ + (static_cast<double>(i) + 0.5) * width_;
}

std::size_t
Histogram::modeBucket() const
{
    const auto it = std::max_element(counts_.begin(), counts_.end());
    return static_cast<std::size_t>(std::distance(counts_.begin(), it));
}

std::string
Histogram::render(std::size_t max_width) const
{
    const std::size_t peak =
        counts_.empty() ? 0 : *std::max_element(counts_.begin(), counts_.end());
    std::ostringstream oss;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        const std::size_t bar =
            peak ? counts_[i] * max_width / peak : 0;
        oss << bucketCenter(i) << "\t" << counts_[i] << "\t"
            << std::string(bar, '#') << "\n";
    }
    return oss.str();
}

ModalCluster
modalCluster(const std::vector<double>& values, double margin)
{
    if (margin < 0.0)
        fatal("modalCluster: negative margin ", margin);

    ModalCluster best;
    if (values.empty())
        return best;

    // Sort contiguous (value, index) pairs; then for each candidate window
    // anchored at a sample, count members with a two-pointer sweep.  A
    // window centred at c admits [c*(1-margin), c*(1+margin)]; anchoring
    // candidate centres at sample values is sufficient to find the
    // max-membership window.  Its count, centre and member set depend
    // only on the values, so the order of equal values cannot change the
    // answer.
    std::vector<std::pair<double, std::size_t>> sorted(values.size());
    for (std::size_t i = 0; i < values.size(); ++i)
        sorted[i] = {values[i], i};
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });

    std::size_t best_count = 0;
    double best_center = 0.0;
    std::size_t best_lo = 0;
    std::size_t best_hi = 0;  // half-open over `sorted`

    // Both window edges are monotone in the anchor (values ascend), so a
    // single sweep costs O(n) beyond the sort.
    const std::size_t n = sorted.size();
    std::size_t lo = 0;
    std::size_t hi = 0;
    for (std::size_t anchor = 0; anchor < n; ++anchor) {
        const double c = sorted[anchor].first;
        const double lo_val = c * (1.0 - margin);
        const double hi_val = c * (1.0 + margin);
        while (lo < n && sorted[lo].first < lo_val)
            ++lo;
        if (hi < anchor)
            hi = anchor;
        while (hi < n && sorted[hi].first <= hi_val)
            ++hi;
        const std::size_t count = hi - lo;
        // Strict > keeps the earliest (smallest-centre) window on ties.
        if (count > best_count) {
            best_count = count;
            best_center = c;
            best_lo = lo;
            best_hi = hi;
        }
    }

    // Mark the window's members, then emit them in ascending index order.
    std::vector<char> member(n, 0);
    for (std::size_t k = best_lo; k < best_hi; ++k)
        member[sorted[k].second] = 1;
    best.center = best_center;
    best.indices.reserve(best_count);
    for (std::size_t i = 0; i < n; ++i) {
        if (member[i])
            best.indices.push_back(i);
    }
    return best;
}

}  // namespace fingrav::support
