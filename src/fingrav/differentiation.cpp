#include "fingrav/differentiation.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/logging.hpp"

namespace fingrav::core {

ProfileDifferentiator::ProfileDifferentiator(std::size_t sse_executions,
                                             double stability_eps)
    : sse_executions_(sse_executions), stability_eps_(stability_eps)
{
    if (sse_executions == 0)
        support::fatal("ProfileDifferentiator: need at least one execution");
    if (stability_eps <= 0.0 || stability_eps >= 1.0)
        support::fatal("ProfileDifferentiator: stability_eps ",
                       stability_eps, " outside (0, 1)");
}

std::size_t
ProfileDifferentiator::sspExecutionFormula(support::Duration exec_time,
                                           support::Duration window) const
{
    if (exec_time.nanos() <= 0)
        support::fatal("sspExecutionFormula: non-positive execution time");
    if (window.nanos() <= 0)
        support::fatal("sspExecutionFormula: non-positive window");
    const double n = std::ceil(static_cast<double>(window.nanos()) /
                               static_cast<double>(exec_time.nanos()));
    return std::max<std::size_t>(sse_executions_,
                                 static_cast<std::size_t>(n));
}

std::size_t
ProfileDifferentiator::detectStabilization(
    const std::vector<double>& series) const
{
    const std::size_t n = series.size();
    if (n == 0)
        return 0;
    // Candidate i is stable when every later sample stays within eps
    // (relative) of the mean of the tail starting at i.  That needs the
    // tail's min lo and max hi to fit ±eps of one positive mean (lo > 0,
    // hi (1 - eps) <= lo (1 + eps)), so a screen on the suffix extrema
    // keeps the scan over the explore run's whole log linear; only
    // survivors run the full check.  kSlack covers both checks' rounding
    // while every value is 0 or of magnitude in [1e-300, DBL_MAX / 2n];
    // any other series (NaN, infinities) runs the check everywhere.
    constexpr double kSlack = 1e-9;
    const double max_abs = std::numeric_limits<double>::max() /
                           (2.0 * static_cast<double>(n));
    bool screen = true;
    for (const double v : series) {
        const double a = std::fabs(v);
        screen = screen && (a == 0.0 || (a >= 1e-300 && a <= max_abs));
    }
    std::vector<double> hi(series), lo(series);
    for (std::size_t i = n; i-- > 1;) {
        hi[i - 1] = std::max(hi[i - 1], hi[i]);
        lo[i - 1] = std::min(lo[i - 1], lo[i]);
    }
    const double eps = stability_eps_;
    for (std::size_t i = 0; i < n; ++i) {
        const bool may_fit =
            lo[i] > 0.0 &&
            hi[i] * (1.0 - eps) <= lo[i] * (1.0 + eps) + kSlack * hi[i];
        if (screen && !may_fit)
            continue;
        double mean = 0.0;
        for (std::size_t j = i; j < n; ++j)
            mean += series[j];
        mean /= static_cast<double>(n - i);
        if (mean <= 0.0)
            continue;
        bool stable = true;
        for (std::size_t j = i; j < n; ++j) {
            if (std::fabs(series[j] - mean) > eps * mean) {
                stable = false;
                break;
            }
        }
        if (stable)
            return i;
    }
    return n;
}

}  // namespace fingrav::core
