#ifndef FINGRAV_SUPPORT_FAULT_INJECTOR_HPP_
#define FINGRAV_SUPPORT_FAULT_INJECTOR_HPP_

/**
 * @file
 * Deterministic, scripted fault injection for the supervised execution
 * path.
 *
 * Fault tests script real failures through the production code instead
 * of one-off hacks (a spawn hook that SIGKILLs workers, `/bin/sh -c`
 * stand-in workers that printf garbage or sleep forever, hand-rolled
 * blob mutation against the cache store): such hacks cannot compose,
 * cannot run end-to-end through the CLI, and leave the production binary
 * with test-only seams.
 *
 * A FaultPlan is a small script of FaultActions, each naming an
 * injection *site* baked into the production code:
 *
 *   spawn-fail   driver: pretend fork/exec of a worker failed
 *   kill         worker: _exit(137) instead of writing result frame N
 *   truncate     worker: write half of result frame N, then _exit(1)
 *   corrupt      worker: flip a payload byte of result frame N, continue
 *   stall        worker: sleep `ms` before writing result frame N
 *   store-short  cache: store() writes a short temp blob and reports
 *                failure (ENOSPC-style)
 *
 * Text grammar (CLI `--fault-plan`, also the wire format handed to
 * worker subprocesses):
 *
 *   plan    := action (';' action)*
 *   action  := name [':' key '=' value (',' key '=' value)*]
 *   name    := spawn-fail | kill | truncate | corrupt | stall
 *            | store-short
 *   key     := shard | frame | attempt | ms | times
 *   value   := non-negative integer | '*'            ('*' = match any)
 *
 * Examples:
 *   kill:shard=0,frame=1          first worker in fleet seat 0 dies
 *                                 after delivering one result
 *   kill:shard=0,attempt=*        every worker ever spawned into seat 0
 *                                 dies before its first result (drives
 *                                 a spec into quarantine)
 *   spawn-fail:times=3            the next three spawns fail (drives
 *                                 crash-loop detection)
 *   stall:frame=0,ms=2000         worker sleeps 2 s before its first
 *                                 result (trips the io timeout)
 *
 * Faults fire deterministically: an action matches on exact
 * (shard, attempt, frame) coordinates — never on timing or randomness —
 * and fires at most `times` times, so the same plan against the same
 * campaign produces the same failure schedule, the same retry schedule,
 * and the same journal on every run.
 *
 * The worker side is a separate process, so its injector state restarts
 * fresh on every (re)spawn.  The driver therefore re-derives each
 * worker's sub-plan per launch: FaultInjector::workerPlan(shard,
 * attempt) serializes the worker-site actions matching that launch with
 * the shard/attempt coordinates stripped, and the driver appends
 * `--fault-plan <subplan>` to that worker's argv.  Retried workers get a
 * clean (usually empty) plan by default; repeat-kill plans say
 * `attempt=*`.
 */

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace fingrav::support {

/** Injection sites (see file comment for per-site semantics). */
enum class FaultKind : std::uint8_t {
    kSpawnFail = 0,   ///< driver-side: worker spawn fails
    kKillWorker,      ///< worker-side: _exit before result frame N
    kTruncateFrame,   ///< worker-side: half of frame N, then _exit
    kCorruptFrame,    ///< worker-side: flip a byte of frame N
    kStallPipe,       ///< worker-side: sleep before frame N
    kShortStoreWrite, ///< cache-side: store() write fails short
};

/** Printable site name, matching the plan grammar. */
const char* toString(FaultKind kind);

/** One scripted fault. */
struct FaultAction {
    /** Wildcard for shard / attempt / frame coordinates. */
    static constexpr long kAny = -1;

    FaultKind kind = FaultKind::kKillWorker;
    long shard = kAny;    ///< which fleet seat's worker (driver side)
    long attempt = 0;     ///< which spawn generation of that seat
    long frame = 0;       ///< which result frame (worker coordinates)
    long stall_ms = 2000; ///< kStallPipe only: sleep duration
    long times = 1;       ///< fire at most this many times (0 = never)
};

/** An ordered script of FaultActions. */
struct FaultPlan {
    std::vector<FaultAction> actions;

    bool empty() const { return actions.empty(); }

    /** Parse the `--fault-plan` grammar; fatal() on malformed input. */
    static FaultPlan parse(const std::string& text);

    /** Round-trippable serialization in the same grammar. */
    std::string toString() const;
};

/** What a worker-side frame site should do to the pending frame. */
struct FrameFault {
    FaultKind kind = FaultKind::kKillWorker;
    long stall_ms = 0;  ///< kStallPipe only
};

/**
 * Stateful evaluator of a FaultPlan.  Each site consults the injector
 * at its fire point; matching actions fire at most `times` times.
 * Thread-safe (the cache store site is hit concurrently).
 */
class FaultInjector {
  public:
    FaultInjector() = default;
    explicit FaultInjector(FaultPlan plan);

    /** Whether any action is scripted at all (fast no-op check). */
    bool armed() const { return !plan_.actions.empty(); }

    /** Driver site: should the spawn for (shard, attempt) fail? */
    bool onSpawn(std::size_t shard, std::size_t attempt);

    /**
     * Driver side: serialize the worker-site actions matching
     * (shard, attempt) into a standalone plan for that worker process,
     * with shard/attempt stripped and attempt-consumed counts ignored
     * (the worker's own injector tracks its fire counts).  Empty string
     * when no worker-site action matches.
     */
    std::string workerPlan(std::size_t shard, std::size_t attempt) const;

    /** Worker site: fault to apply to result frame `frame`, if any. */
    std::optional<FrameFault> onResultFrame(std::size_t frame);

    /** Cache site: should this store() write fail short? */
    bool onStoreWrite();

  private:
    FaultPlan plan_;
    std::vector<long> fired_;  ///< per-action fire counts
    mutable std::mutex mu_;
};

}  // namespace fingrav::support

#endif  // FINGRAV_SUPPORT_FAULT_INJECTOR_HPP_
