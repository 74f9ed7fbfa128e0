#include "fingrav/binning.hpp"

#include <cmath>

#include "support/histogram.hpp"
#include "support/logging.hpp"

namespace fingrav::core {

ExecutionBinner::ExecutionBinner(double margin) : margin_(margin)
{
    // Written so that NaN (from the wire or a sweep point) is rejected.
    if (!(margin >= 0.0 && margin <= 0.5))
        support::fatal("ExecutionBinner: margin ", margin,
                       " outside [0, 0.5]");
}

BinningResult
ExecutionBinner::select(
    const std::vector<support::Duration>& exec_times) const
{
    std::vector<double> us;
    us.reserve(exec_times.size());
    for (const auto& t : exec_times)
        us.push_back(t.toMicros());

    const auto cluster = support::modalCluster(us, margin_);

    BinningResult out;
    out.total_runs = exec_times.size();
    out.bin_center = support::Duration::micros(cluster.center);
    out.golden_runs = cluster.indices;
    return out;
}

BinningResult
ExecutionBinner::selectAround(
    const std::vector<support::Duration>& exec_times,
    support::Duration target) const
{
    if (target.nanos() <= 0)
        support::fatal("ExecutionBinner::selectAround: non-positive target");
    BinningResult out;
    out.total_runs = exec_times.size();
    out.bin_center = target;
    const double c = target.toMicros();
    for (std::size_t i = 0; i < exec_times.size(); ++i) {
        const double t = exec_times[i].toMicros();
        if (std::fabs(t - c) <= margin_ * c)
            out.golden_runs.push_back(i);
    }
    return out;
}

}  // namespace fingrav::core
