#ifndef FINGRAV_FINGRAV_WORKER_FLEET_HPP_
#define FINGRAV_FINGRAV_WORKER_FLEET_HPP_

/**
 * @file
 * Persistent worker fleet with cost-aware pull dispatch: the one
 * multi-process placement path.
 *
 * Spawn + handshake are paid once per fleet seat, not once per
 * execute(), and specs are pulled one at a time rather than partitioned
 * up front, so one long scenario cannot straggle a fixed share of the
 * work behind it while other workers sit idle.  A one-shot dispatch is
 * a FleetBackend that goes out of scope: its destructor sends kShutdown
 * to every resident and reaps them.
 *
 *  - **WorkerFleet** keeps `fingrav_cli --serve` subprocesses resident
 *    across dispatches.  A serve worker's loop (runtime/serve_worker)
 *    answers each kSpecRequest frame with one kProfileSet frame until
 *    EOF or an explicit kShutdown, and idle residents are probed with
 *    kPing (answered kPong) at acquire time so a worker that died between
 *    dispatches is respawned instead of trusted.  Spawn failures and
 *    keepalive deaths are journaled; `crash_loop_spawns` consecutive
 *    spawn failures disable the fleet for its remaining lifetime (the
 *    environment, not the work, is broken).
 *
 *  - **FleetBackend** dispatches *one spec per request* from a shared
 *    queue sorted longest-predicted-first by core::CostModel.  A worker
 *    that finishes its spec pulls the next one — pull-based stealing
 *    with no partition to mis-balance, so the skewed-campaign straggler
 *    tail collapses to (roughly) the longest single spec.  A seat has
 *    one request in flight, so its reply lands in that request's slot:
 *    placement, pull order and worker count are invisible in the
 *    output, and execute() is bit-identical to ThreadPoolBackend for any
 *    fleet size (tests/fleet_test.cpp).  The driver alone consults and
 *    fills the campaign cache; workers never open one.
 *
 * Supervision: a worker that dies, stalls past its I/O budget or its
 * per-spec deadline, or streams corruption forfeits only the one spec
 * it was running.  The slot re-queues under seeded exponential backoff
 * (one backoff per redispatch; the schedule is a pure function of
 * FleetOptions), a replacement worker is spawned into the same fleet
 * seat, and a spec that kills `quarantine_deaths` workers is
 * quarantined to the in-process path.  Slots that exhaust
 * `max_retries` redispatches — or find no live worker — fall back to
 * ThreadPoolBackend execution, loudly, in the degradation journal.
 * Fault plans address workers as (shard = fleet seat, attempt = spawn
 * generation of that seat); worker-site faults count result frames
 * over the worker's *lifetime*, matching the persistent serve loop.
 */

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fingrav/execution_backend.hpp"
#include "runtime/worker_channel.hpp"
#include "support/fault_injector.hpp"
#include "support/run_journal.hpp"

namespace fingrav::core {

/** WorkerFleet / FleetBackend configuration. */
struct FleetOptions {
    /** Fleet seats: resident worker subprocesses kept across
     *  dispatches.  Clamped to the spec count per dispatch (surplus
     *  seats stay empty until a larger dispatch needs them); 0 is a
     *  user error. */
    std::size_t workers = 2;

    /**
     * Worker argv (argv[0] = executable path).  Empty selects
     * {"./fingrav_cli", "--serve"} (cwd-relative); callers that know
     * their own argv[0] should pass defaultServeCommand(argv0).
     */
    std::vector<std::string> worker_command;

    /** Thread budget of the in-process fallback path; 0 = hardware
     *  concurrency.  Results are bit-identical for any value. */
    std::size_t fallback_threads = 0;

    /** Per-syscall I/O inactivity timeout, ms: a worker pipe that moves
     *  no bytes for this long is treated as dead.  0 (the default) waits
     *  forever — a legitimate spec may compute for arbitrarily long. */
    long io_timeout_ms = 0;

    /** Per-spec wall-clock deadline, ms, armed when the spec is sent;
     *  0 disables.  One spec per request makes this exact. */
    long spec_deadline_ms = 0;

    /** Redispatch budget per slot before it falls back in-process. */
    std::size_t max_retries = 2;

    /** A spec whose worker died this many times is quarantined. */
    std::size_t quarantine_deaths = 2;

    /** Consecutive spawn failures that disable the fleet for the rest
     *  of its lifetime (crash-loop guard). */
    std::size_t crash_loop_spawns = 3;

    /** Exponential backoff before each redispatch: event e (1-based)
     *  sleeps `min(2000, backoff_base_ms << (e-1))` ms scaled by jitter
     *  in [0.5, 1.5) from a stream seeded with backoff_seed. */
    long backoff_base_ms = 25;
    std::uint64_t backoff_seed = 0;

    /** Scripted faults (support/fault_injector.hpp): spawn site keyed
     *  (seat, spawn generation); worker sites shipped as sub-plans.
     *  Empty in production. */
    support::FaultPlan fault_plan;
};

/** What one FleetBackend::execute() call observed. */
struct FleetStats {
    std::size_t workers_spawned = 0;   ///< spawns this dispatch (0 = warm)
    std::size_t workers_live = 0;      ///< residents alive at dispatch end
    std::size_t keepalive_failures = 0;///< residents found dead at acquire
    std::size_t worker_failures = 0;   ///< workers lost mid-dispatch
    std::size_t remote_specs = 0;      ///< results received over the wire
    std::size_t fallback_specs = 0;    ///< specs re-run in-process
    std::size_t local_specs = 0;       ///< always 0: every spec ships
    std::size_t cached_specs = 0;      ///< specs served by the cache
    std::size_t spawn_failures = 0;    ///< spawns that failed
    std::size_t pulls = 0;             ///< specs pulled beyond each
                                       ///< worker's first assignment
    std::size_t retried_specs = 0;     ///< slot redispatches
    std::size_t quarantined_specs = 0; ///< specs flagged as worker-killers
    bool crash_loop = false;           ///< fleet disabled by spawn failures
    /** Backoff slept before each redispatch, ms. */
    std::vector<long> backoff_ms;
    /** Slots in first-dispatch order (longest-predicted-first; the
     *  cost-model scheduling observable tests assert on). */
    std::vector<std::size_t> dispatch_order;
    /** Every degradation this dispatch, in order; empty = clean. */
    support::RunJournal journal;
};

/**
 * The resident worker pool: spawn/probe/retire/shutdown of `--serve`
 * subprocesses, one per fleet seat.  Owns the processes and their
 * pipes; knows nothing about specs or scheduling (FleetBackend does).
 * Degradations it observes land in journal(); callers fold the events
 * their call produced via journal().eventsSince(mark).
 */
class WorkerFleet {
  public:
    explicit WorkerFleet(FleetOptions opts);
    ~WorkerFleet();
    WorkerFleet(const WorkerFleet&) = delete;
    WorkerFleet& operator=(const WorkerFleet&) = delete;

    /** How ensure() left a seat. */
    enum class Ensure { kAlreadyLive, kSpawned, kFailed };

    const FleetOptions& options() const { return opts_; }

    /** Fleet seats (fixed at construction). */
    std::size_t size() const { return members_.size(); }

    bool live(std::size_t seat) const { return members_[seat].live; }

    /** Driver write/read fds of a live seat. */
    int writeFd(std::size_t seat) const
    {
        return members_[seat].proc.to_child;
    }
    int readFd(std::size_t seat) const
    {
        return members_[seat].proc.from_child;
    }

    /**
     * Make a seat live: no-op when it already is, otherwise spawn a
     * worker into it (fault-injected spawn failures included).  On
     * failure the seat stays dead, the journal records it, and enough
     * consecutive failures trip the crash-loop guard (disabled()).
     */
    Ensure ensure(std::size_t seat);

    /**
     * Probe a live resident with kPing.  A wrong/absent kPong retires
     * the seat (journaled) and returns false; callers respawn via
     * ensure().  False on a dead seat.
     */
    bool ping(std::size_t seat);

    /**
     * Retire a seat: kill its process group (when `kill`; a worker
     * already gone just gets reaped), close the pipes, mark it dead.
     */
    void retire(std::size_t seat, bool kill);

    /** Send kShutdown to every live resident and reap them (graceful,
     *  bounded; stragglers are killed).  Idempotent. */
    void shutdownAll();

    /** Crash-loop guard tripped: no further spawns this lifetime. */
    bool disabled() const { return disabled_; }

    /** Worker processes spawned over the fleet's lifetime. */
    std::size_t lifetimeSpawns() const { return lifetime_spawns_; }

    /** Fleet-lifetime degradation journal (see class comment). */
    const support::RunJournal& journal() const { return journal_; }

  private:
    struct Member {
        runtime::WorkerProcess proc;
        bool live = false;
        std::size_t spawn_round = 0;  ///< next spawn's fault coordinate
    };

    FleetOptions opts_;
    std::vector<Member> members_;
    support::FaultInjector injector_;
    support::RunJournal journal_;
    std::size_t consecutive_spawn_failures_ = 0;
    std::size_t lifetime_spawns_ = 0;
    bool disabled_ = false;
};

/**
 * Cost-scheduled placement over a persistent WorkerFleet.
 *
 * Not reentrant: execute() accumulates lastStats() and drives the
 * fleet's pipes, so one instance serves one run at a time — concurrent
 * drivers hold one FleetBackend each — and overlapping execute() calls
 * on one instance are a FatalError.  The fleet lives as long as
 * the backend — back-to-back execute() calls reuse the residents
 * (fleet_test's ResidentsAmortizeSpawnsAcrossDispatches; perfbench's
 * fleet.workers_spawned_warm).
 */
class FleetBackend final : public ExecutionBackend {
  public:
    explicit FleetBackend(FleetOptions opts);

    const char* name() const override { return "fleet"; }

    std::vector<ProfileSet> execute(const std::vector<ScenarioSpec>& specs,
                                    const sim::MachineConfig& cfg) override;

    /** Observations of the most recent execute() call. */
    const FleetStats& lastStats() const { return stats_; }

    /** The resident pool (kept across execute() calls). */
    WorkerFleet& fleet() { return fleet_; }

  private:
    std::vector<ProfileSet> executeUncached(
        const std::vector<ScenarioSpec>& specs,
        const sim::MachineConfig& cfg);

    WorkerFleet fleet_;
    FleetStats stats_;
    std::atomic<bool> executing_{false};  ///< reentrancy guard
};

/**
 * The default fleet-worker argv for a driver whose own executable path
 * is `argv0`: {"<dir(argv0)>/fingrav_cli", "--serve"} — benches, tests
 * and the CLI all sit next to fingrav_cli in the build tree.  The CLI
 * itself gets {argv0, "--serve"}.
 */
std::vector<std::string> defaultServeCommand(const std::string& argv0);

}  // namespace fingrav::core

#endif  // FINGRAV_FINGRAV_WORKER_FLEET_HPP_
