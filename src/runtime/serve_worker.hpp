#ifndef FINGRAV_RUNTIME_SERVE_WORKER_HPP_
#define FINGRAV_RUNTIME_SERVE_WORKER_HPP_

/**
 * @file
 * Worker-process bootstrap for multi-process campaign placement.
 *
 * `fingrav_cli --serve` (a core::WorkerFleet resident) calls
 * runServeWorker(std::cin, std::cout): a serve loop that answers one
 * request with one reply.  Each kSpecRequest frame (machine config + one
 * ScenarioSpec) read off stdin runs on a fresh hermetic node via
 * core::CampaignRunner::runOne — the exact code path the in-process
 * backends bottom out in — and its ProfileSet goes back on stdout as one
 * kProfileSet frame.  The loop then waits for the next request:
 * core::WorkerFleet keeps the worker resident across dispatches, probing
 * idle residents with kPing (answered kPong) and retiring them with
 * kShutdown (clean exit, same as EOF).  The driver has one request
 * outstanding per worker and kills a worker it gives up on, so a reply
 * needs no address: it answers the request in flight
 * (fingrav/codec.hpp, fingrav/worker_fleet.hpp).  The worker opens no
 * campaign cache; the driver consults and fills its own.
 *
 * stdout belongs to the protocol: the worker must never print there.
 * Callers route diagnostics to stderr (the CLI lowers the log level so
 * inform() cannot leak into the frame stream).  A user-level failure
 * (unknown kernel label, invalid background schedule) is reported as a
 * kWorkerError frame and a nonzero exit, so the driver can re-place the
 * spec on its fallback path instead of hanging.
 *
 * Fault injection (`fingrav_cli --serve --fault-plan PLAN`): the serve
 * loop hosts the worker-side injection sites — result frames are
 * counted over the worker's lifetime, and a scripted fault fires
 * instead of (kill, truncate) or around (corrupt, stall) writing the
 * matching frame.  The driver derives each worker's sub-plan from the
 * run-level plan (support/fault_injector.hpp), so the supervision stack
 * is exercised through the real subprocess machinery, not a test seam.
 */

#include <iosfwd>

namespace fingrav::support {
class FaultInjector;
}

namespace fingrav::runtime {

/**
 * Serve kSpecRequest frames until kShutdown or clean EOF on `in`.
 *
 * @param injector  Optional fault injector consulted before each result
 *               frame (see file comment); null disables.  A kill or
 *               truncate fault abandons the serve loop mid-reply and
 *               returns the fault's exit code, exactly as the driver
 *               would observe a real mid-request death.
 * @return Process exit code: 0 after a clean EOF on a frame boundary,
 *         1 after a protocol violation or a fatal execution error (a
 *         kWorkerError frame is emitted first when possible), 137 after
 *         an injected kill.
 */
int runServeWorker(std::istream& in, std::ostream& out,
                   support::FaultInjector* injector = nullptr);

}  // namespace fingrav::runtime

#endif  // FINGRAV_RUNTIME_SERVE_WORKER_HPP_
