#include "sim/clock_domain.hpp"

#include <cmath>

#include "support/logging.hpp"

namespace fingrav::sim {

ClockDomain::ClockDomain(support::Duration offset, double drift_ppm,
                         support::Duration tick)
    : offset_(offset), drift_ppm_(drift_ppm), tick_(tick),
      rate_(1.0 + drift_ppm * 1e-6)
{
    if (tick.nanos() <= 0)
        support::fatal("ClockDomain: tick must be positive, got ",
                       tick.nanos(), "ns");
    FINGRAV_ASSERT(rate_ > 0.0, "clock rate must be positive");
}

support::SimTime
ClockDomain::masterTime(support::SimTime domain) const
{
    const double ns =
        (static_cast<double>(domain.nanos()) -
         static_cast<double>(offset_.nanos())) /
        rate_;
    return support::SimTime::fromNanos(static_cast<std::int64_t>(ns));
}

std::int64_t
ClockDomain::readCounter(support::SimTime master) const
{
    return domainTime(master).nanos() / tick_.nanos();
}

}  // namespace fingrav::sim
