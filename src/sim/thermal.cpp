#include "sim/thermal.hpp"

#include "support/logging.hpp"
#include "support/memo_exp.hpp"

namespace fingrav::sim {

void
ThermalModel::update(support::Duration dt, double power_w)
{
    FINGRAV_ASSERT(dt.nanos() >= 0, "negative thermal step ", dt.nanos());
    if (dt.nanos() == 0)
        return;
    const double target = steadyState(power_w);
    // Stretch lengths repeat, so the RC factor comes through the exact
    // exp memo (bitwise std::exp).
    const double alpha =
        support::memoExp(-dt.toSeconds() / p_.time_constant.toSeconds());
    temp_c_ = target + (temp_c_ - target) * alpha;
}

}  // namespace fingrav::sim
