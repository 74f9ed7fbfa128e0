#ifndef FINGRAV_RUNTIME_WORKER_CHANNEL_HPP_
#define FINGRAV_RUNTIME_WORKER_CHANNEL_HPP_

/**
 * @file
 * Driver-side plumbing for worker subprocesses: fork/exec with a piped
 * stdin/stdout pair, budgeted raw I/O, and framed reads off the wire
 * protocol (fingrav/codec.hpp).
 *
 * core::WorkerFleet drives its `fingrav_cli --serve` residents through
 * one spawn idiom (own process group, exec-failure `_exit(127)`), one
 * I/O budget semantics (inactivity timeout re-armed by progress,
 * optional absolute deadline), and one frame-read status taxonomy that
 * maps 1:1 onto the degradation journal's kinds.
 *
 * Everything here is synchronous and single-threaded by design: the
 * fleet multiplexes across workers by polling readiness before
 * committing to a framed read.
 */

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fingrav/codec.hpp"

namespace fingrav::runtime {

/**
 * The I/O budget one read/write waits under: a per-syscall inactivity
 * timeout (every byte of progress re-arms it) plus an optional absolute
 * deadline (total wall-clock regardless of progress).
 */
struct IoBudget {
    long inactivity_ms = 0;  ///< <= 0: no inactivity bound
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline;

    static IoBudget
    inactivityOnly(long ms)
    {
        IoBudget budget;
        budget.inactivity_ms = ms;
        return budget;
    }
};

/** How a readiness wait ended. */
enum class IoWait { kReady, kTimeout, kError };

/** Wait for fd readiness under the budget (`events`: POLLIN/POLLOUT). */
IoWait awaitReady(int fd, short events, const IoBudget& budget);

/** Write the whole buffer under the budget; false on timeout/error. */
bool writeAll(int fd, const std::uint8_t* data, std::size_t size,
              const IoBudget& budget);

/** Why a read stopped short — the journal taxonomy needs the cause. */
enum class ReadStatus { kOk, kEof, kTimeout, kError };

/**
 * Read exactly `size` bytes under the budget.  `bytes_read` (optional)
 * reports partial progress so a mid-header EOF can be told apart from a
 * clean boundary EOF.
 */
ReadStatus readExact(int fd, std::uint8_t* data, std::size_t size,
                     const IoBudget& budget, std::size_t* bytes_read);

/** close() and poison the fd; no-op when already closed. */
void closeFd(int& fd);

/**
 * Route a dead driver-side pipe into an EPIPE write error instead of a
 * process-killing SIGPIPE.  Installed once, only if the disposition is
 * still the default — an embedding application's handler is kept.
 */
void ignoreSigpipeOnce();

/** One spawned worker subprocess and its pipe pair. */
struct WorkerProcess {
    long pid = -1;
    int to_child = -1;    ///< request pipe, driver write end
    int from_child = -1;  ///< response pipe, driver read end
};

/**
 * fork/exec the worker argv with stdin/stdout piped; stderr shared.
 * The child leads its own process group so a fault injector (or
 * operator) can kill the worker *and* anything it forked in one signal.
 * Returns false (with errno set) when a pipe or fork fails; exec
 * failure surfaces to the driver as immediate EOF (child `_exit(127)`).
 */
bool spawnWorkerProcess(const std::vector<std::string>& argv,
                        WorkerProcess& worker);

/** How one frame read off a worker's stdout ended. */
enum class FrameStatus {
    kFrame,    ///< `frame` holds a verified frame
    kEof,      ///< clean EOF on a frame boundary: the worker is gone
    kCorrupt,  ///< truncated/bit-flipped/foreign-version stream
    kTimeout,  ///< inactivity timeout or deadline budget exceeded
};

/**
 * Read one checksummed frame off `fd` under the budget.  EOF mid-frame
 * and any header/checksum rejection report kCorrupt (the observable a
 * half-written frame leaves); EOF on the boundary reports kEof.
 */
FrameStatus readWorkerFrame(int fd, const IoBudget& budget,
                            core::codec::Frame& frame);

}  // namespace fingrav::runtime

#endif  // FINGRAV_RUNTIME_WORKER_CHANNEL_HPP_
