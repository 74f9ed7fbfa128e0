#include "runtime/serve_worker.hpp"

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "fingrav/campaign_runner.hpp"
#include "fingrav/codec.hpp"
#include "support/fault_injector.hpp"
#include "support/logging.hpp"

namespace fingrav::runtime {

namespace {

namespace codec = fingrav::core::codec;

/** Best-effort error report; the driver may already have hung up. */
void
sendError(std::ostream& out, const std::string& message)
{
    codec::writeFrame(out, codec::FrameType::kWorkerError,
                      codec::encode(message));
}

/** Raw encoded-frame write + flush; false when the driver hung up. */
bool
writeBytes(std::ostream& out, const std::uint8_t* data, std::size_t size)
{
    out.write(reinterpret_cast<const char*>(data),
              static_cast<std::streamsize>(size));
    out.flush();
    return static_cast<bool>(out);
}

}  // namespace

int
runServeWorker(std::istream& in, std::ostream& out,
               support::FaultInjector* injector)
{
    // The fault-site coordinate counts result frames over the *process*
    // lifetime, not per request: a persistent fleet worker serves many
    // requests, and a plan like `kill:frame=2` must mean "die before the
    // third result this worker ever produces".
    std::size_t result_frame = 0;
    for (;;) {
        std::optional<codec::Frame> frame;
        try {
            frame = codec::readFrame(in);
        } catch (const support::FatalError& e) {
            sendError(out, e.what());
            return 1;
        }
        if (!frame.has_value())
            return 0;  // clean EOF: the driver closed the request stream
        if (frame->type == codec::FrameType::kShutdown)
            return 0;  // explicit fleet shutdown: same clean exit as EOF
        if (frame->type == codec::FrameType::kPing) {
            // Idle keepalive: the fleet probes residents between
            // dispatches; a missing kPong marks this worker for respawn.
            if (!codec::writeFrame(out, codec::FrameType::kPong, {}))
                return 1;
            continue;
        }
        if (frame->type != codec::FrameType::kSpecRequest) {
            sendError(out, std::string("worker expected a spec-request "
                                       "frame, got ") +
                               codec::toString(frame->type));
            return 1;
        }
        try {
            // One fresh hermetic node, the same runOne the in-process
            // backends use: the reply is bit-identical to local execution.
            const auto request =
                codec::decode<codec::SpecRequest>(frame->payload);
            auto wire = codec::encodeFrame(
                codec::FrameType::kProfileSet,
                codec::encode(core::CampaignRunner::runOne(request.spec,
                                                           request.cfg)));
            // Injection sites fire on the fully encoded frame, so a
            // scripted fault mutates exactly the bytes a real death or
            // corruption would leave on the pipe.
            if (injector != nullptr) {
                const auto fault = injector->onResultFrame(result_frame);
                if (fault.has_value()) {
                    switch (fault->kind) {
                      case support::FaultKind::kKillWorker:
                        // Die before replying: the driver sees EOF with
                        // the request outstanding.
                        out.flush();
                        return 137;
                      case support::FaultKind::kTruncateFrame:
                        // Half a frame, then death: the driver sees a
                        // truncated stream (frame corruption).
                        writeBytes(out, wire.data(), wire.size() / 2);
                        return 1;
                      case support::FaultKind::kCorruptFrame:
                        // Flip one payload byte; the checksum the driver
                        // verifies catches it.
                        wire[codec::kFrameHeaderBytes] ^= 0x01;
                        break;
                      case support::FaultKind::kStallPipe:
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(fault->stall_ms));
                        break;
                      default:
                        break;
                    }
                }
            }
            if (!writeBytes(out, wire.data(), wire.size()))
                return 1;  // driver hung up; nothing left to report to
            ++result_frame;
        } catch (const std::exception& e) {
            // FatalError (user-level: bad label, bad schedule) and
            // anything else (bad_alloc, logic errors) alike: report and
            // let the driver re-place the spec, never std::terminate.
            sendError(out, e.what());
            return 1;
        }
    }
}

}  // namespace fingrav::runtime
