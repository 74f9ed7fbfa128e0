#ifndef FINGRAV_SIM_CLOCK_DOMAIN_HPP_
#define FINGRAV_SIM_CLOCK_DOMAIN_HPP_

/**
 * @file
 * Clock domains over master simulation time.
 *
 * The paper's challenge C2 exists because the GPU power logger timestamps
 * samples with the *GPU* timestamp counter while kernel scheduling is
 * observed in *CPU* time; the two clocks share neither epoch nor exact rate.
 * A ClockDomain is an affine map from master simulation time to a domain
 * clock:
 *
 *   domain_ns(master) = offset_ns + (master_ns) * (1 + drift_ppm * 1e-6)
 *
 * plus counter quantization (the GPU counter ticks at a finite rate).  The
 * CPU clock of a simulation is a ClockDomain with zero drift and its own
 * large epoch offset; the GPU clock drifts by a few ppm, which is what makes
 * naive one-shot synchronization degrade over long captures (the Lang et
 * al. comparison in Section VII).
 */

#include <cstdint>

#include "support/time_types.hpp"

namespace fingrav::sim {

/** Affine clock over master time with quantized counter reads. */
class ClockDomain {
  public:
    /**
     * @param offset     Domain time at master time zero.
     * @param drift_ppm  Rate error relative to master, parts per million.
     * @param tick       Counter resolution (> 0).
     */
    ClockDomain(support::Duration offset, double drift_ppm,
                support::Duration tick);

    /**
     * Exact (unquantized) domain time for a master time.  Defined here so
     * the per-stretch logger feed inlines it.
     */
    support::SimTime
    domainTime(support::SimTime master) const
    {
        const double ns = static_cast<double>(offset_.nanos()) +
                          static_cast<double>(master.nanos()) * rate_;
        return support::SimTime::fromNanos(static_cast<std::int64_t>(ns));
    }

    /** Inverse map: master time at which the domain clock reads `domain`. */
    support::SimTime masterTime(support::SimTime domain) const;

    /** Quantized counter value (in ticks) at a master time. */
    std::int64_t readCounter(support::SimTime master) const;

    /** Convert a counter value to domain nanoseconds. */
    std::int64_t
    counterToNanos(std::int64_t ticks) const
    {
        return ticks * tick_.nanos();
    }

    /** Counter resolution. */
    support::Duration tick() const { return tick_; }

    /** Rate error in ppm. */
    double driftPpm() const { return drift_ppm_; }

    /** Domain time at master zero. */
    support::Duration offset() const { return offset_; }

  private:
    support::Duration offset_;
    double drift_ppm_;
    support::Duration tick_;
    double rate_;  ///< 1 + drift_ppm * 1e-6
};

}  // namespace fingrav::sim

#endif  // FINGRAV_SIM_CLOCK_DOMAIN_HPP_
