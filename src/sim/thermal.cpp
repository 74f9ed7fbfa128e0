#include "sim/thermal.hpp"

#include "support/logging.hpp"
#include "support/memo_decay.hpp"

namespace fingrav::sim {

void
ThermalModel::update(support::Duration dt, double power_w)
{
    FINGRAV_ASSERT(dt.nanos() >= 0, "negative thermal step ", dt.nanos());
    if (dt.nanos() == 0)
        return;
    const double target = steadyState(power_w);
    // Stretch lengths repeat, so the RC factor comes through the exact
    // decay memo (bitwise the seconds-based std::exp).
    const double alpha =
        support::memoDecay(dt.nanos(), p_.time_constant.nanos());
    temp_c_ = target + (temp_c_ - target) * alpha;
}

}  // namespace fingrav::sim
