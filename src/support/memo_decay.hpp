#ifndef FINGRAV_SUPPORT_MEMO_DECAY_HPP_
#define FINGRAV_SUPPORT_MEMO_DECAY_HPP_

/**
 * @file
 * Exact-exponential decay factors behind a per-thread direct-mapped memo.
 *
 * The simulator's exact-exponential integrators (the governor's two power
 * EMAs and the thermal RC) evaluate exp(-dt / tau) once per stretch, and
 * the arguments repeat: active stretches are cut at the 2 us governor
 * quantum, and the devices of a collective step through the same stretch
 * lengths.  memoDecay(dt_ns, tau_ns) keeps the last factor per slot of a
 * small table keyed on the two *integer* nanosecond counts, so a hit
 * costs no division, and a miss evaluates
 * std::exp(-(dt_ns / 1e9) / (tau_ns / 1e9)): the same operations on the
 * same operands as the seconds-based expression it replaces, so a hit
 * returns exactly the double that expression gives, whatever the libm.
 *
 * The table is thread_local, so campaigns stepping on different
 * CampaignRunner pool threads never share a slot: there is nothing to
 * lock and nothing to race.  Every slot starts out holding the true
 * entry (dt 0, tau 1, factor 1.0), so no slot needs an "empty" marker
 * that a key could alias.
 */

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace fingrav::support {

/** Slots in each thread's memo table (a power of two). */
inline constexpr std::size_t kDecayMemoSlots = 256;

/**
 * The slot (dt_ns, tau_ns) maps to: Fibonacci hashing of a mix of the
 * two counts.  Exposed so tests can construct colliding keys.
 */
constexpr std::size_t
decayMemoSlot(std::int64_t dt_ns, std::int64_t tau_ns)
{
    constexpr int kShift = 64 - std::countr_zero(kDecayMemoSlots);
    const std::uint64_t key = static_cast<std::uint64_t>(dt_ns) +
                              static_cast<std::uint64_t>(tau_ns) *
                                  0xC2B2AE3D27D4EB4Full;
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> kShift);
}

namespace detail {

struct DecaySlot {
    std::int64_t dt_ns = 0;
    std::int64_t tau_ns = 1;
    double value = 1.0;  ///< exp(-dt / tau) for that key
};

/** The calling thread's table (constant-initialized: no TLS guard). */
inline thread_local DecaySlot decay_memo[kDecayMemoSlots];

}  // namespace detail

/** exp(-dt / tau) over seconds, bitwise, through the thread's memo. */
inline double
memoDecay(std::int64_t dt_ns, std::int64_t tau_ns)
{
    detail::DecaySlot& slot = detail::decay_memo[decayMemoSlot(dt_ns, tau_ns)];
    if (slot.dt_ns != dt_ns || slot.tau_ns != tau_ns) {
        slot.value = std::exp(-(static_cast<double>(dt_ns) / 1e9) /
                              (static_cast<double>(tau_ns) / 1e9));
        slot.dt_ns = dt_ns;
        slot.tau_ns = tau_ns;
    }
    return slot.value;
}

}  // namespace fingrav::support

#endif  // FINGRAV_SUPPORT_MEMO_DECAY_HPP_
