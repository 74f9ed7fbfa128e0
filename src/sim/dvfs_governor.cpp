#include "sim/dvfs_governor.hpp"

#include <algorithm>

#include "support/logging.hpp"
#include "support/memo_decay.hpp"

namespace fingrav::sim {

DvfsGovernor::DvfsGovernor(const DvfsGovernorParams& params)
    : p_(params), ratio_(params.idle_ratio)
{
    FINGRAV_ASSERT(p_.min_ratio <= p_.boost_ratio, "governor ratio bounds");
    FINGRAV_ASSERT(p_.sustained_limit_w <= p_.peak_limit_w,
                   "sustained limit above peak limit");
}

void
DvfsGovernor::wake()
{
    if (!parked_)
        return;
    parked_ = false;
    inactive_ = support::Duration();
    active_since_wake_ = support::Duration();
    ratio_ = p_.boost_ratio;
    hold_remaining_ = support::Duration();
}

void
DvfsGovernor::update(support::Duration dt, double power_w, bool active)
{
    FINGRAV_ASSERT(dt.nanos() >= 0, "negative governor step");
    if (dt.nanos() == 0)
        return;

    // EMA power estimates (exact exponential decay for step independence).
    // Stretch lengths repeat (the power_step quantum, collective
    // siblings), so the decay factors come through the exact decay memo.
    if (!estimates_primed_) {
        fast_w_ = power_w;
        slow_w_ = power_w;
        estimates_primed_ = true;
    } else {
        const double af =
            1.0 - support::memoDecay(dt.nanos(), p_.fast_tau.nanos());
        const double as =
            1.0 - support::memoDecay(dt.nanos(), p_.slow_tau.nanos());
        fast_w_ += af * (power_w - fast_w_);
        slow_w_ += as * (power_w - slow_w_);
    }

    if (!active) {
        // Park only after sustained inactivity; launch/sync gaps between
        // the executions of a run keep the operating point alive.
        inactive_ += dt;
        if (!parked_ && inactive_ >= p_.idle_park_delay) {
            parked_ = true;
            ratio_ = p_.idle_ratio;
            hold_remaining_ = support::Duration();
        }
        return;
    }
    inactive_ = support::Duration();
    parked_ = false;
    active_since_wake_ += dt;

    const double dt_us = dt.toMicros();

    if (hold_remaining_.nanos() > 0) {
        // Excursion response in progress: hold the deep throttle.
        hold_remaining_ -= dt;
        if (hold_remaining_.nanos() < 0)
            hold_remaining_ = support::Duration();
        return;
    }

    if (fast_w_ > p_.peak_limit_w) {
        // Excursion: immediate deep cut, held for excursion_hold.
        ratio_ = std::max(p_.min_ratio, ratio_ * p_.excursion_cut);
        hold_remaining_ = p_.excursion_hold;
        ++excursions_;
        return;
    }

    if (slow_w_ > p_.sustained_limit_w) {
        // Sustained loop: proportional backoff on overshoot.
        const double overshoot =
            (slow_w_ - p_.sustained_limit_w) / p_.sustained_limit_w;
        ratio_ -= p_.kp_per_us * overshoot * dt_us * 100.0;
    } else if (fast_w_ < p_.peak_limit_w * p_.recovery_guard) {
        // Below both limits with excursion headroom: slew back up.  The
        // guard keeps the operating point just under the excursion
        // threshold instead of sawtoothing through it.
        ratio_ += p_.recovery_per_us * dt_us;
    }
    ratio_ = std::clamp(ratio_, p_.min_ratio, currentCap());
}

}  // namespace fingrav::sim
