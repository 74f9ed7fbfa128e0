#ifndef FINGRAV_SIM_DVFS_GOVERNOR_HPP_
#define FINGRAV_SIM_DVFS_GOVERNOR_HPP_

/**
 * @file
 * Power-management firmware model (DVFS governor).
 *
 * Reproduces the behaviour the paper attributes to the MI300X power
 * management firmware (Section V-C1): from idle, work is granted boost
 * clocks; a compute-heavy kernel at boost exceeds the peak power limit and
 * triggers an *excursion response* — an immediate deep frequency cut held
 * for a short period ("invoking the power management firmware to throttle
 * frequency to manage power excursions"); afterwards a slower control loop
 * converges the clock to the highest frequency whose sustained power stays
 * under the board limit.  This produces the paper's observed
 * rise-then-drop-then-slight-recovery power trend for CB-8K-GEMM (Fig. 6)
 * and the "warm-up executions are slower than steady state" effect.
 *
 * Frequency feedback: kernels whose cost is frequency-sensitive execute
 * more slowly while throttled (see GpuDevice's work-progress integration).
 */

#include <cstddef>
#include <optional>

#include "support/time_types.hpp"

namespace fingrav::sim {

/** Governor tuning (frequencies are expressed as ratios of nominal). */
struct DvfsGovernorParams {
    double boost_ratio = 1.0;       ///< ceiling granted on wake-up
    double min_ratio = 0.40;        ///< deepest throttle floor
    double idle_ratio = 0.25;       ///< parked clock when idle

    double sustained_limit_w = 750.0;  ///< board power limit (PPT)
    double peak_limit_w = 820.0;       ///< excursion threshold

    /** Fast power-estimate EMA time constant (excursion detector). */
    support::Duration fast_tau = support::Duration::micros(40.0);
    /** Slow power-estimate EMA time constant (sustained control). */
    support::Duration slow_tau = support::Duration::micros(400.0);

    double excursion_cut = 0.72;    ///< multiplicative cut on excursion
    support::Duration excursion_hold = support::Duration::micros(150.0);

    /** Proportional gain of the sustained loop, ratio per (W/limit) per us. */
    double kp_per_us = 0.0016;
    /** Recovery slew toward boost when below the limit, ratio per us. */
    double recovery_per_us = 0.00030;

    /**
     * Idle-park hysteresis: the clock parks (and the next wake-up is
     * granted boost) only after this much continuous inactivity.  Short
     * inter-execution gaps (launch/sync overhead) therefore do not reset
     * the throttle/recovery state mid-run.
     */
    support::Duration idle_park_delay = support::Duration::micros(30.0);

    /**
     * Boost-residency budget: cumulative *active* time since wake-up
     * during which clocks above nominal_ratio are permitted.  Real parts
     * hold boost clocks only briefly; afterwards sustained operation caps
     * at the nominal point.  Zero disables the budget.
     */
    support::Duration boost_budget = support::Duration::millis(3.0);

    /** Sustained clock ceiling once the boost budget is spent. */
    double nominal_ratio = 1.0;

    /**
     * Recovery stops once the fast power estimate reaches this fraction
     * of the peak limit, keeping the operating point from sawtoothing
     * through the excursion threshold.
     */
    double recovery_guard = 0.99;
};

/** Stateful governor; update() once per integration slice. */
class DvfsGovernor {
  public:
    explicit DvfsGovernor(const DvfsGovernorParams& params);

    /**
     * Advance the control loops by dt.
     *
     * @param dt       Slice length.
     * @param power_w  Instantaneous total power over the slice.
     * @param active   True when at least one kernel is resident.
     */
    void update(support::Duration dt, double power_w, bool active);

    /**
     * Grant boost clocks on wake-up from idle.
     *
     * The device calls this when a kernel becomes resident on a previously
     * idle GPU.  Boost is granted only when the clock had actually parked
     * (idle longer than idle_park_delay); brief inter-execution gaps keep
     * the current operating point.
     */
    void wake();

    /** True when the clock is parked at the idle ratio. */
    bool parked() const { return parked_; }

    /** Current engine-clock ratio (f / f_nominal). */
    double frequencyRatio() const { return ratio_; }

    /** True while the excursion response is holding the clock down. */
    bool inExcursion() const { return hold_remaining_.nanos() > 0; }

    /** Remaining excursion-hold time (zero when no hold is active). */
    support::Duration holdRemaining() const { return hold_remaining_; }

    /** Number of excursion events since construction. */
    std::size_t excursionCount() const { return excursions_; }

    /**
     * True when, at constant instantaneous power `power_w`, update() leaves
     * the operating point unchanged for a step of *any* length: either the
     * excursion hold pins the clock (expiry is a schedulable event), or the
     * clock already sits at the current cap and both power estimates plus
     * the target are at/below every throttle threshold — the EMAs converge
     * monotonically toward power_w, so no limit can be crossed mid-stretch.
     *
     * Event-driven stepping (sim/gpu_device) integrates whole
     * constant-power stretches in a single update() when this holds.
     */
    bool
    quiescentAt(double power_w) const
    {
        if (hold_remaining_.nanos() > 0)
            return true;  // clock pinned by the excursion response
        if (ratio_ != currentCap())
            return false;  // recovery or backoff is moving the clock
        if (fast_w_ > p_.peak_limit_w || power_w > p_.peak_limit_w)
            return false;
        if (slow_w_ > p_.sustained_limit_w || power_w > p_.sustained_limit_w)
            return false;
        return true;
    }

    /**
     * Active time left until the boost budget expires *and* the expiry
     * would move the clock (ratio above the post-budget nominal cap).
     * Empty when the budget is disabled, already spent, or irrelevant.
     * (Queried every stretch, so defined here to inline.)
     */
    std::optional<support::Duration>
    timeToBoostBudget() const
    {
        if (p_.boost_budget.nanos() <= 0)
            return std::nullopt;
        if (active_since_wake_ >= p_.boost_budget)
            return std::nullopt;
        // The cap change only matters when the clock sits above the
        // post-budget ceiling; below it, the clamp is unaffected (and any
        // later recovery runs under quantum-bounded stepping anyway).
        if (ratio_ <= p_.nominal_ratio)
            return std::nullopt;
        return p_.boost_budget - active_since_wake_;
    }

    /**
     * Continuous idle time left before the clock parks.  Empty while
     * active, already parked, or when no park delay is configured.
     */
    std::optional<support::Duration>
    timeToPark() const
    {
        if (parked_ || p_.idle_park_delay.nanos() <= 0)
            return std::nullopt;
        const auto left = p_.idle_park_delay - inactive_;
        return left.nanos() > 0 ? left : support::Duration::nanos(1);
    }

  private:
    /** Clock ceiling at the current boost-budget state. */
    double
    currentCap() const
    {
        if (p_.boost_budget.nanos() > 0 &&
            active_since_wake_ >= p_.boost_budget) {
            return p_.nominal_ratio;
        }
        return p_.boost_ratio;
    }

    DvfsGovernorParams p_;
    double ratio_;
    double fast_w_ = 0.0;
    double slow_w_ = 0.0;
    bool estimates_primed_ = false;
    bool parked_ = true;
    support::Duration inactive_;
    support::Duration active_since_wake_;
    support::Duration hold_remaining_;
    std::size_t excursions_ = 0;
};

}  // namespace fingrav::sim

#endif  // FINGRAV_SIM_DVFS_GOVERNOR_HPP_
