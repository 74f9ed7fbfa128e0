#include "runtime/shard_worker.hpp"

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fingrav/campaign_cache.hpp"
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
runShardWorker(std::istream& in, std::ostream& out,
               core::CampaignCache* cache, support::FaultInjector* injector)
{
    // The fault-site coordinate counts result frames over the *process*
    // lifetime, not per request: a persistent fleet worker serves many
    // one-spec requests, and a plan like `kill:frame=2` must mean "die
    // before the third result this worker ever produces".
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
        if (frame->type != codec::FrameType::kShardRequest) {
            sendError(out, std::string("worker expected a shard-request "
                                       "frame, got ") +
                               codec::toString(frame->type));
            return 1;
        }
        try {
            const auto request =
                codec::decode<codec::ShardRequest>(frame->payload);
            std::size_t completed = 0;
            for (const auto& [slot, spec] : request.items) {
                // One fresh hermetic node per spec, the same runOne the
                // in-process backends use: results shipped back are
                // bit-identical to local execution.  A shared cache dir
                // lets workers reuse (and feed) the fleet's results;
                // cached or fresh, the shipped bytes are the same.
                std::optional<core::ProfileSet> hit;
                if (cache != nullptr)
                    hit = cache->lookup(spec, request.cfg);
                auto set = hit.has_value()
                               ? std::move(*hit)
                               : core::CampaignRunner::runOne(spec,
                                                              request.cfg);
                if (cache != nullptr && !hit.has_value())
                    cache->store(spec, request.cfg, set);
                auto wire = codec::encodeFrame(
                    codec::FrameType::kShardResult,
                    codec::encode(codec::ShardResult{slot, std::move(set)}));
                // Injection sites fire on the fully encoded frame, so a
                // scripted fault mutates exactly the bytes a real death
                // or corruption would leave on the pipe.
                if (injector != nullptr) {
                    const auto fault =
                        injector->onResultFrame(result_frame);
                    if (fault.has_value()) {
                        switch (fault->kind) {
                          case support::FaultKind::kKillWorker:
                            // Die before writing this frame: the driver
                            // sees EOF with this slot (and everything
                            // after it) outstanding.
                            out.flush();
                            return 137;
                          case support::FaultKind::kTruncateFrame:
                            // Half a frame, then death: the driver sees
                            // a truncated stream (frame corruption).
                            writeBytes(out, wire.data(), wire.size() / 2);
                            return 1;
                          case support::FaultKind::kCorruptFrame:
                            // Flip one payload byte; the checksum the
                            // driver verifies catches it.
                            wire[codec::kFrameHeaderBytes] ^= 0x01;
                            break;
                          case support::FaultKind::kStallPipe:
                            std::this_thread::sleep_for(
                                std::chrono::milliseconds(
                                    fault->stall_ms));
                            break;
                          default:
                            break;
                        }
                    }
                }
                if (!writeBytes(out, wire.data(), wire.size()))
                    return 1;  // driver hung up; nothing left to report to
                ++result_frame;
                ++completed;
            }
            if (!codec::writeFrame(
                    out, codec::FrameType::kShardDone,
                    codec::encode(static_cast<std::uint32_t>(completed))))
                return 1;
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
