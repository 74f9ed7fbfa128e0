#ifndef FINGRAV_SUPPORT_MEMO_EXP_HPP_
#define FINGRAV_SUPPORT_MEMO_EXP_HPP_

/**
 * @file
 * std::exp behind a per-thread direct-mapped memo.
 *
 * The simulator's exact-exponential integrators (the governor's two power
 * EMAs and the thermal RC) evaluate exp(-dt / tau) once per stretch, and
 * the arguments repeat: active stretches are cut at the 2 us governor
 * quantum, and the devices of a collective step through the same stretch
 * lengths.  memoExp(x) keeps the last result per slot of a small table
 * keyed on the *bits* of x, so a hit returns exactly the double
 * std::exp(x) returned for the same bits: the memo is exact by
 * construction, whatever the libm.
 *
 * The table is thread_local, so devices stepping on pool threads never
 * share a slot: there is nothing to lock and nothing to race.  Every slot
 * starts out holding the true pair (+0.0, 1.0), so no slot needs an
 * "empty" marker that an argument could alias.
 */

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace fingrav::support {

/** Slots in each thread's memo table (a power of two). */
inline constexpr std::size_t kExpMemoSlots = 256;

/**
 * The slot x maps to: Fibonacci hashing of the argument bits.  Exposed
 * so tests can construct colliding arguments.
 */
constexpr std::size_t
expMemoSlot(double x)
{
    constexpr int kShift = 64 - std::countr_zero(kExpMemoSlots);
    return static_cast<std::size_t>(
        (std::bit_cast<std::uint64_t>(x) * 0x9E3779B97F4A7C15ull) >> kShift);
}

namespace detail {

struct ExpSlot {
    std::uint64_t bits = 0;  ///< argument bits; +0.0 to start with
    double value = 1.0;      ///< std::exp of that argument
};

/** The calling thread's table (constant-initialized: no TLS guard). */
inline thread_local ExpSlot exp_memo[kExpMemoSlots];

}  // namespace detail

/** std::exp(x), bitwise, through the calling thread's memo table. */
inline double
memoExp(double x)
{
    const auto bits = std::bit_cast<std::uint64_t>(x);
    detail::ExpSlot& slot = detail::exp_memo[expMemoSlot(x)];
    if (slot.bits != bits) {
        slot.value = std::exp(x);
        slot.bits = bits;
    }
    return slot.value;
}

}  // namespace fingrav::support

#endif  // FINGRAV_SUPPORT_MEMO_EXP_HPP_
