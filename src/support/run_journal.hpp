#ifndef FINGRAV_SUPPORT_RUN_JOURNAL_HPP_
#define FINGRAV_SUPPORT_RUN_JOURNAL_HPP_

/**
 * @file
 * Structured degradation journal: no degradation is ever silent.
 *
 * The repo's failure philosophy (tests/failure_injection_test.cpp) is
 * "degrade gracefully (and loudly), never crash or silently fabricate
 * data".  The *gracefully* half has always been enforced by bit-identity
 * gates — a dead worker's slots re-execute in-process and the results
 * cannot diverge.  The *loudly* half used to be a scatter of warn()
 * lines and counters; RunJournal makes it a first-class artifact: every
 * component that degrades (fleet supervisor, worker protocol, campaign
 * cache) records a typed DegradeEvent, the events fold into FleetStats,
 * and fingrav_cli prints the journal after every supervised run.
 *
 * The taxonomy is deliberately small and closed — a new failure mode
 * must pick a kind (or add one here), so it cannot slip through as an
 * untyped warning:
 *
 *   spawn-failure         a worker process could not be started
 *   worker-death          a worker died/EOF'd with slots outstanding
 *   frame-corruption      a worker's result stream failed validation
 *   timeout               inactivity or per-spec deadline budget tripped
 *   cache-corruption-miss a cache blob was rejected and re-executed
 *   cache-store-failure   a cache store write failed (ENOSPC-style)
 *   retry                 forfeited slots redispatched to fresh workers
 *   quarantine            a poisoned spec forced onto the in-process path
 *   fallback              slots executed in-process after supervision
 *                         gave up on the wire path
 *   crash-loop            consecutive spawn failures disabled the fleet
 *
 * Thread safety: record()/merge() and all readers are safe to call
 * concurrently.  The journal is copyable (a locked snapshot), so it can
 * ride inside value types such as core::FleetStats.
 */

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "support/logging.hpp"

namespace fingrav::support {

/** The closed error taxonomy of the supervision layer (file comment). */
enum class DegradeKind : std::uint8_t {
    kSpawnFailure = 0,
    kWorkerDeath,
    kFrameCorruption,
    kTimeout,
    kCacheCorruptionMiss,
    kCacheStoreFailure,
    kRetry,
    kQuarantine,
    kFallback,
    kCrashLoop,
};

/** Printable kind name ("worker-death", "cache-corruption-miss", ...). */
const char* toString(DegradeKind kind);

/** One recorded degradation. */
struct DegradeEvent {
    DegradeKind kind = DegradeKind::kFallback;
    std::string detail;  ///< human-readable context (shard, slot, cause)
};

/** Append-only, thread-safe, copyable list of degradation events. */
class RunJournal {
  public:
    RunJournal() = default;
    RunJournal(const RunJournal& other) : events_(other.events()) {}
    RunJournal&
    operator=(const RunJournal& other)
    {
        if (this != &other) {
            auto snapshot = other.events();
            std::lock_guard<std::mutex> lock(mu_);
            events_ = std::move(snapshot);
        }
        return *this;
    }

    /** Append one event (thread-safe). */
    void record(DegradeKind kind, std::string detail);

    /** Streamed-detail convenience: record(kind, "shard ", s, " died"). */
    template <typename First, typename... Rest>
    void
    record(DegradeKind kind, First&& first, Rest&&... rest)
    {
        record(kind, detail::concat(std::forward<First>(first),
                                    std::forward<Rest>(rest)...));
    }

    /** Snapshot of every event, in record order. */
    std::vector<DegradeEvent> events() const;

    /** Events recorded after the first `from` (incremental folding). */
    std::vector<DegradeEvent> eventsSince(std::size_t from) const;

    /** Append a snapshot of another journal's events. */
    void merge(const RunJournal& other);

    std::size_t size() const;
    bool empty() const { return size() == 0; }

    /** How many events carry `kind`. */
    std::size_t count(DegradeKind kind) const;

    /** Multi-line printable report, one "[kind] detail" line per event;
     *  empty string for an empty journal. */
    std::string report() const;

  private:
    mutable std::mutex mu_;
    std::vector<DegradeEvent> events_;
};

}  // namespace fingrav::support

#endif  // FINGRAV_SUPPORT_RUN_JOURNAL_HPP_
