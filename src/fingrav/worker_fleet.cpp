#include "fingrav/worker_fleet.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <deque>
#include <map>
#include <thread>
#include <utility>

#include <poll.h>
#include <sys/wait.h>

#include "fingrav/campaign_cache.hpp"
#include "fingrav/codec.hpp"
#include "fingrav/cost_model.hpp"
#include "support/logging.hpp"
#include "support/rng.hpp"

namespace fingrav::core {

namespace {

using support::DegradeKind;
using runtime::FrameStatus;
using runtime::IoBudget;
using Clock = std::chrono::steady_clock;

/** How long an idle resident gets to answer kPing before it is declared
 *  dead and respawned, ms. */
constexpr long kKeepaliveTimeoutMs = 1000;

/** Ceiling of one redispatch backoff before jitter, ms. */
constexpr long kBackoffCapMs = 2000;

}  // namespace

// ---------------------------------------------------------------------------
// WorkerFleet
// ---------------------------------------------------------------------------

WorkerFleet::WorkerFleet(FleetOptions opts)
    : opts_(std::move(opts)), injector_(opts_.fault_plan)
{
    if (opts_.workers == 0)
        support::fatal("WorkerFleet: workers must be >= 1");
    if (opts_.worker_command.empty())
        opts_.worker_command = {"./fingrav_cli", "--serve"};
    members_.resize(opts_.workers);
    runtime::ignoreSigpipeOnce();
}

WorkerFleet::~WorkerFleet()
{
    shutdownAll();
}

WorkerFleet::Ensure
WorkerFleet::ensure(std::size_t seat)
{
    Member& m = members_[seat];
    if (m.live)
        return Ensure::kAlreadyLive;
    if (disabled_)
        return Ensure::kFailed;
    const std::size_t attempt = m.spawn_round++;
    std::string spawn_error;
    bool spawned = false;
    if (injector_.armed() && injector_.onSpawn(seat, attempt)) {
        spawn_error = "injected spawn failure";
    } else {
        std::vector<std::string> argv = opts_.worker_command;
        if (injector_.armed()) {
            // A fresh process restarts its injector state clean; hand it
            // exactly the sub-plan scripted for this (seat, generation).
            const std::string sub_plan = injector_.workerPlan(seat, attempt);
            if (!sub_plan.empty()) {
                argv.push_back("--fault-plan");
                argv.push_back(sub_plan);
            }
        }
        spawned = runtime::spawnWorkerProcess(argv, m.proc);
        if (!spawned)
            spawn_error = std::strerror(errno);
    }
    if (!spawned) {
        support::warn("WorkerFleet: cannot spawn resident '",
                      opts_.worker_command.front(), "' into seat ", seat,
                      " (", spawn_error, ")");
        journal_.record(DegradeKind::kSpawnFailure, "fleet seat ", seat,
                        " generation ", attempt, ": ", spawn_error);
        if (++consecutive_spawn_failures_ >= opts_.crash_loop_spawns) {
            disabled_ = true;
            journal_.record(DegradeKind::kCrashLoop,
                            consecutive_spawn_failures_,
                            " consecutive spawn failures; fleet disabled "
                            "for the rest of its lifetime");
            support::warn(
                "WorkerFleet: ", consecutive_spawn_failures_,
                " consecutive spawn failures — the environment looks "
                "broken; disabling the fleet (results unchanged, "
                "everything executes in-process)");
        }
        return Ensure::kFailed;
    }
    consecutive_spawn_failures_ = 0;
    ++lifetime_spawns_;
    m.live = true;
    return Ensure::kSpawned;
}

bool
WorkerFleet::ping(std::size_t seat)
{
    Member& m = members_[seat];
    if (!m.live)
        return false;
    const auto wire = codec::encodeFrame(codec::FrameType::kPing, {});
    const IoBudget budget = IoBudget::inactivityOnly(kKeepaliveTimeoutMs);
    bool ok = runtime::writeAll(m.proc.to_child, wire.data(), wire.size(),
                                budget);
    if (ok) {
        codec::Frame frame;
        ok = runtime::readWorkerFrame(m.proc.from_child, budget, frame) ==
                 FrameStatus::kFrame &&
             frame.type == codec::FrameType::kPong;
    }
    if (!ok) {
        journal_.record(DegradeKind::kWorkerDeath, "fleet seat ", seat,
                        ": resident failed its keepalive probe; retired");
        support::warn("WorkerFleet: resident in seat ", seat,
                      " failed its keepalive probe; retiring it");
        retire(seat, true);
    }
    return ok;
}

void
WorkerFleet::retire(std::size_t seat, bool kill)
{
    Member& m = members_[seat];
    runtime::closeFd(m.proc.to_child);
    runtime::closeFd(m.proc.from_child);
    if (m.proc.pid > 0) {
        // A retiring worker may still be alive (stalled, mid-compute):
        // kill its whole process group first so the blocking reap below
        // cannot hang on it.
        if (kill)
            ::kill(-static_cast<pid_t>(m.proc.pid), SIGKILL);
        ::waitpid(static_cast<pid_t>(m.proc.pid), nullptr, 0);
        m.proc.pid = -1;
    }
    m.live = false;
}

void
WorkerFleet::shutdownAll()
{
    // Graceful pass: an explicit kShutdown frame plus the pipe EOF
    // backstop; the serve loop treats either as a clean exit.
    const auto wire = codec::encodeFrame(codec::FrameType::kShutdown, {});
    for (Member& m : members_) {
        if (!m.live)
            continue;
        runtime::writeAll(m.proc.to_child, wire.data(), wire.size(),
                          IoBudget::inactivityOnly(200));
        runtime::closeFd(m.proc.to_child);
    }
    // Bounded reap: residents exit promptly from their read loop; a
    // straggler (wedged, stalled by a fault) is killed rather than
    // letting a destructor hang.
    const auto deadline = Clock::now() + std::chrono::milliseconds(1000);
    for (Member& m : members_) {
        if (m.proc.pid <= 0) {
            runtime::closeFd(m.proc.from_child);
            m.live = false;
            continue;
        }
        for (;;) {
            const pid_t reaped = ::waitpid(
                static_cast<pid_t>(m.proc.pid), nullptr, WNOHANG);
            if (reaped != 0)
                break;
            if (Clock::now() >= deadline) {
                ::kill(-static_cast<pid_t>(m.proc.pid), SIGKILL);
                ::waitpid(static_cast<pid_t>(m.proc.pid), nullptr, 0);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        m.proc.pid = -1;
        runtime::closeFd(m.proc.from_child);
        m.live = false;
    }
}

// ---------------------------------------------------------------------------
// FleetBackend
// ---------------------------------------------------------------------------

FleetBackend::FleetBackend(FleetOptions opts) : fleet_(std::move(opts)) {}

std::vector<ProfileSet>
FleetBackend::execute(const std::vector<ScenarioSpec>& specs,
                      const sim::MachineConfig& cfg)
{
    if (executing_.exchange(true)) {
        support::fatal(
            "FleetBackend::execute called reentrantly: one instance "
            "serves one run at a time (hold one FleetBackend per "
            "concurrent driver)");
    }
    struct Release {
        std::atomic<bool>& flag;
        ~Release() { flag.store(false); }
    } release{executing_};

    // Both the fleet (spawn failures, keepalive deaths, crash loop) and
    // the cache journal their own degradations; fold the events this
    // call produced so lastStats() is the one place they surface.
    const std::size_t fleet_mark = fleet_.journal().size();
    const std::size_t cache_mark =
        cache() ? cache()->journal().size() : 0;

    stats_ = {};
    std::vector<ProfileSet> out;
    if (!cache()) {
        out = executeUncached(specs, cfg);
    } else {
        auto consult = consultCache(specs, cfg);
        stats_.cached_specs = specs.size() - consult.pending.size();
        commitCache(consult, executeUncached(consult.pending, cfg), cfg);
        out = std::move(consult.results);
    }
    for (const auto& event : fleet_.journal().eventsSince(fleet_mark))
        stats_.journal.record(event.kind, event.detail);
    if (cache()) {
        for (const auto& event : cache()->journal().eventsSince(cache_mark))
            stats_.journal.record(event.kind, event.detail);
    }
    return out;
}

std::vector<ProfileSet>
FleetBackend::executeUncached(const std::vector<ScenarioSpec>& specs,
                              const sim::MachineConfig& cfg)
{
    std::vector<ProfileSet> results(specs.size());
    if (specs.empty())
        return results;
    const FleetOptions& opts = fleet_.options();

    // Longest-predicted-first: the scheduler's whole job is keeping the
    // most expensive spec from being picked up last.  Ties break on the
    // slot so the queue order is deterministic.
    const CostModel model;
    std::vector<std::pair<double, std::size_t>> ranked;
    ranked.reserve(specs.size());
    for (std::size_t slot = 0; slot < specs.size(); ++slot)
        ranked.emplace_back(model.predict(specs[slot], cfg), slot);
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
        if (a.first != b.first)
            return a.first > b.first;
        return a.second < b.second;
    });
    std::deque<std::size_t> queue;
    for (const auto& [cost, slot] : ranked)
        queue.push_back(slot);

    // Acquire: probe residents that survived the previous dispatch —
    // one that died in between must not be trusted with a request.
    const std::size_t want = std::min(fleet_.size(), queue.size());
    for (std::size_t seat = 0; seat < want; ++seat) {
        if (fleet_.live(seat) && !fleet_.ping(seat))
            ++stats_.keepalive_failures;
    }

    /** Per-seat dispatch state for this execute() call. */
    struct SeatState {
        bool busy = false;
        bool assigned_before = false;
        std::size_t slot = 0;
        Clock::time_point last_activity;
        bool has_deadline = false;
        Clock::time_point deadline;
    };
    std::vector<SeatState> seats(fleet_.size());

    std::map<std::size_t, std::size_t> worker_deaths;  // slot -> count
    std::map<std::size_t, std::size_t> slot_retries;
    std::vector<std::size_t> fallback;  // slots bound for in-process
    support::Rng backoff_rng(opts.backoff_seed);
    std::size_t redispatch_events = 0;

    /** Budget for frame reads off one busy seat. */
    const auto seatBudget = [&](const SeatState& seat) {
        IoBudget budget = IoBudget::inactivityOnly(opts.io_timeout_ms);
        budget.has_deadline = seat.has_deadline;
        budget.deadline = seat.deadline;
        return budget;
    };

    /** Hand the queue front to a live idle seat; false = write failed. */
    const auto sendTo = [&](std::size_t seat, std::size_t slot) {
        SeatState& state = seats[seat];
        state.slot = slot;
        const auto wire = codec::encodeFrame(
            codec::FrameType::kSpecRequest,
            codec::encode(codec::SpecRequest{cfg, specs[slot]}));
        if (!runtime::writeAll(fleet_.writeFd(seat), wire.data(),
                               wire.size(),
                               IoBudget::inactivityOnly(opts.io_timeout_ms)))
            return false;
        state.busy = true;
        state.last_activity = Clock::now();
        state.has_deadline = opts.spec_deadline_ms > 0;
        if (state.has_deadline) {
            state.deadline =
                state.last_activity +
                std::chrono::milliseconds(opts.spec_deadline_ms);
        }
        if (state.assigned_before)
            ++stats_.pulls;
        state.assigned_before = true;
        stats_.dispatch_order.push_back(slot);
        return true;
    };

    /**
     * A busy seat's worker is gone: retire it, re-place its spec.  The
     * kill means no late reply to this request can reach a later one.
     */
    const auto forfeit = [&](std::size_t seat, DegradeKind kind,
                             const char* cause) {
        SeatState& state = seats[seat];
        const std::size_t slot = state.slot;
        ++stats_.worker_failures;
        fleet_.retire(seat, true);
        state.busy = false;
        stats_.journal.record(kind, "fleet seat ", seat, ": worker ",
                              cause, " with slot ", slot, " outstanding");
        support::warn("FleetBackend: worker in seat ", seat, " ", cause,
                      " with spec '", specs[slot].label, "' (slot ", slot,
                      ") outstanding");
        if (++worker_deaths[slot] >= opts.quarantine_deaths) {
            stats_.journal.record(
                DegradeKind::kQuarantine, "slot ", slot, " (",
                specs[slot].label, ") survived ", worker_deaths[slot],
                " worker deaths; quarantined to the in-process path");
            support::warn("FleetBackend: spec '", specs[slot].label,
                          "' (slot ", slot, ") killed ",
                          worker_deaths[slot],
                          " workers; quarantining it to the in-process "
                          "path");
            ++stats_.quarantined_specs;
            fallback.push_back(slot);
            return;
        }
        if (slot_retries[slot] >= opts.max_retries) {
            fallback.push_back(slot);
            return;
        }
        ++slot_retries[slot];
        ++stats_.retried_specs;
        ++redispatch_events;
        const int shift = static_cast<int>(
            std::min<std::size_t>(redispatch_events - 1, 20));
        const long base =
            std::min(kBackoffCapMs, opts.backoff_base_ms << shift);
        const double jitter =
            backoff_rng.fork(redispatch_events).uniform(0.5, 1.5);
        const long delay_ms = std::max<long>(
            0, static_cast<long>(static_cast<double>(base) * jitter));
        stats_.backoff_ms.push_back(delay_ms);
        stats_.journal.record(DegradeKind::kRetry, "slot ", slot,
                              " redispatching (retry ", slot_retries[slot],
                              ") after ", delay_ms, " ms backoff");
        if (delay_ms > 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(delay_ms));
        // Back to the queue front: the slot was among the
        // highest-priority pending work or it would not have been
        // running already.
        queue.push_front(slot);
    };

    /**
     * Read one busy seat's reply: a kProfileSet fills its slot and idles
     * the seat; anything else forfeits the spec.
     */
    const auto drainSeat = [&](std::size_t seat) {
        SeatState& state = seats[seat];
        codec::Frame frame;
        const FrameStatus status =
            readWorkerFrame(fleet_.readFd(seat), seatBudget(state), frame);
        if (status != FrameStatus::kFrame) {
            DegradeKind kind = DegradeKind::kWorkerDeath;
            const char* cause = "died";
            if (status == FrameStatus::kCorrupt) {
                kind = DegradeKind::kFrameCorruption;
                cause = "produced a corrupt stream";
            } else if (status == FrameStatus::kTimeout) {
                kind = DegradeKind::kTimeout;
                cause = "exceeded its I/O budget";
            }
            forfeit(seat, kind, cause);
            return;
        }
        try {
            switch (frame.type) {
              case codec::FrameType::kProfileSet:
                results[state.slot] = codec::decodeProfileSet(frame.payload);
                ++stats_.remote_specs;
                state.busy = false;  // idle resident, ready to pull
                break;
              case codec::FrameType::kWorkerError:
                forfeit(seat, DegradeKind::kWorkerDeath,
                        ("reported: " +
                         codec::decode<std::string>(frame.payload))
                            .c_str());
                break;
              default:
                support::fatal("fleet seat ", seat,
                               " sent unexpected frame type '",
                               codec::toString(frame.type), "'");
            }
        } catch (const support::FatalError& e) {
            support::warn("FleetBackend: seat ", seat,
                          " protocol error: ", e.what());
            forfeit(seat, DegradeKind::kFrameCorruption, "broke protocol");
        }
    };

    // The dispatch loop: fill idle seats from the queue front, then
    // wait (poll across every busy pipe) for whichever worker finishes
    // first and hand it the next spec — pull-based stealing; no
    // partition, so no partition imbalance.
    for (;;) {
        for (std::size_t seat = 0;
             seat < seats.size() && !queue.empty(); ++seat) {
            if (seats[seat].busy)
                continue;
            if (!fleet_.live(seat)) {
                switch (fleet_.ensure(seat)) {
                  case WorkerFleet::Ensure::kSpawned:
                    ++stats_.workers_spawned;
                    break;
                  case WorkerFleet::Ensure::kFailed:
                    ++stats_.spawn_failures;
                    stats_.crash_loop = fleet_.disabled();
                    continue;
                  case WorkerFleet::Ensure::kAlreadyLive:
                    break;
                }
            }
            const std::size_t slot = queue.front();
            queue.pop_front();
            if (!sendTo(seat, slot)) {
                seats[seat].busy = true;  // forfeit() expects a busy seat
                forfeit(seat, DegradeKind::kWorkerDeath,
                        "rejected its request");
            }
        }

        std::vector<std::size_t> busy;
        for (std::size_t seat = 0; seat < seats.size(); ++seat) {
            if (seats[seat].busy)
                busy.push_back(seat);
        }
        if (busy.empty()) {
            // Nothing in flight.  With work left and spawning still
            // allowed, retry the seats: every consecutive failure
            // advances the crash-loop counter, so this terminates —
            // either a spawn succeeds or the fleet disables itself.
            if (!queue.empty() && !fleet_.disabled())
                continue;
            break;
        }

        // Poll timeout: the earliest inactivity/deadline expiry across
        // the busy seats (a computing worker writes nothing, so the
        // budget has to be enforced here, not just inside frame reads).
        const auto now = Clock::now();
        long timeout_ms = -1;
        for (const std::size_t seat : busy) {
            const SeatState& state = seats[seat];
            bool bounded = false;
            Clock::time_point expiry{};
            if (opts.io_timeout_ms > 0) {
                expiry = state.last_activity +
                         std::chrono::milliseconds(opts.io_timeout_ms);
                bounded = true;
            }
            if (state.has_deadline &&
                (!bounded || state.deadline < expiry)) {
                expiry = state.deadline;
                bounded = true;
            }
            if (!bounded)
                continue;
            const long remaining = static_cast<long>(
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    expiry - now)
                    .count());
            const long clamped = std::max<long>(0, remaining);
            timeout_ms = timeout_ms < 0 ? clamped
                                        : std::min(timeout_ms, clamped);
        }

        std::vector<struct pollfd> pfds;
        pfds.reserve(busy.size());
        for (const std::size_t seat : busy) {
            struct pollfd pfd {};
            pfd.fd = fleet_.readFd(seat);
            pfd.events = POLLIN;
            pfds.push_back(pfd);
        }
        const int ready = ::poll(
            pfds.data(), pfds.size(),
            timeout_ms < 0 ? -1 : static_cast<int>(timeout_ms));
        if (ready < 0) {
            if (errno == EINTR)
                continue;  // budgets re-derived from the clock above
            support::fatal("FleetBackend: poll failed: ",
                           std::strerror(errno));
        }
        if (ready > 0) {
            for (std::size_t k = 0; k < busy.size(); ++k) {
                if (pfds[k].revents != 0)
                    drainSeat(busy[k]);
            }
        } else {
            // Timeout: forfeit every busy seat whose budget expired.
            const auto deadline_now = Clock::now();
            for (const std::size_t seat : busy) {
                const SeatState& state = seats[seat];
                const bool inactivity_expired =
                    opts.io_timeout_ms > 0 &&
                    deadline_now - state.last_activity >=
                        std::chrono::milliseconds(opts.io_timeout_ms);
                const bool deadline_expired =
                    state.has_deadline && deadline_now >= state.deadline;
                if (inactivity_expired || deadline_expired) {
                    forfeit(seat, DegradeKind::kTimeout,
                            "exceeded its I/O budget");
                }
            }
        }
    }

    // Slots the scheduler could not place — retry budget exhausted,
    // quarantined, or no live worker left — join the in-process path.
    fallback.insert(fallback.end(), queue.begin(), queue.end());
    if (!fallback.empty()) {
        stats_.journal.record(
            DegradeKind::kFallback, fallback.size(),
            " slot(s) fall back in-process (",
            stats_.crash_loop ? "fleet disabled by crash loop"
                              : "retry budget exhausted",
            ")");
        std::sort(fallback.begin(), fallback.end());
        std::vector<ScenarioSpec> fallback_specs;
        fallback_specs.reserve(fallback.size());
        for (const std::size_t slot : fallback)
            fallback_specs.push_back(specs[slot]);
        auto fallback_results = ThreadPoolBackend(opts.fallback_threads)
                                    .execute(fallback_specs, cfg);
        for (std::size_t k = 0; k < fallback.size(); ++k)
            results[fallback[k]] = std::move(fallback_results[k]);
        stats_.fallback_specs = fallback.size();
    }
    for (std::size_t seat = 0; seat < fleet_.size(); ++seat) {
        if (fleet_.live(seat))
            ++stats_.workers_live;
    }
    return results;
}

std::vector<std::string>
defaultServeCommand(const std::string& argv0)
{
    const auto slash = argv0.find_last_of('/');
    const std::string base =
        slash == std::string::npos ? argv0 : argv0.substr(slash + 1);
    if (base == "fingrav_cli")
        return {argv0, "--serve"};
    const std::string dir =
        slash == std::string::npos ? "." : argv0.substr(0, slash);
    return {dir + "/fingrav_cli", "--serve"};
}

}  // namespace fingrav::core
