#include "sim/power_logger.hpp"

#include <algorithm>
#include <cmath>

#include "support/logging.hpp"

namespace fingrav::sim {

namespace {

/** Bitwise rail-power equality (segments extend only on exact matches). */
bool
sameRails(const RailPower& a, const RailPower& b)
{
    return a.xcd == b.xcd && a.iod == b.iod && a.hbm == b.hbm &&
           a.misc == b.misc;
}

}  // namespace

PowerLogger::PowerLogger(support::Duration window,
                         const ClockDomain& gpu_clock, double noise_w,
                         support::Rng rng)
    : window_(window), gpu_clock_(gpu_clock), noise_w_(noise_w),
      rng_(std::move(rng)),
      mapped_end_gpu_ns_(gpu_clock.domainTime(mapped_end_).nanos())
{
    if (window < gpu_clock.tick())
        support::fatal("PowerLogger: window ", window.nanos(),
                       "ns is shorter than the GPU timestamp tick ",
                       gpu_clock.tick().nanos(), "ns");
}

void
PowerLogger::start(support::SimTime master_now)
{
    if (capturing_)
        return;
    capturing_ = true;
    const std::int64_t gpu_ns = gpu_clock_.domainTime(master_now).nanos();
    // Capture begins at the next window-grid boundary: a real logger's
    // window phase is a property of the device, not of the request.
    window_start_gpu_ns_ = nextWindowEndGpuNs(gpu_ns);
    acc_xcd_ = acc_iod_ = acc_hbm_ = acc_misc_ = 0.0;
    seg_span_ns_ = 0;
}

support::SimTime
PowerLogger::nextWindowEndMaster(support::SimTime master_now)
{
    if (cut_from_ <= master_now && master_now < cut_until_)
        return cut_;
    const std::int64_t boundary =
        nextWindowEndGpuNs(gpu_clock_.domainTime(master_now).nanos());
    const auto start =
        gpu_clock_.masterTime(support::SimTime::fromNanos(boundary));
    // The inverse map truncates; step forward to the first integer
    // master nanosecond at/after the boundary (at most a few ns).
    auto cut = start;
    while (gpu_clock_.domainTime(cut).nanos() < boundary)
        cut += support::Duration::nanos(1);
    // The GPU clock is monotone in master time, so every master time in
    // [master_now, cut) maps before the boundary and recomputes this same
    // cut — unless the inverse map overshot, leaving a master time below
    // `start` already at the boundary.  One reading rules that out.
    const bool no_overshoot =
        start <= master_now ||
        gpu_clock_.domainTime(start - support::Duration::nanos(1)).nanos() <
            boundary;
    cut_ = cut;
    cut_from_ = master_now;
    cut_until_ = no_overshoot ? cut : master_now + support::Duration::nanos(1);
    return cut;
}

void
PowerLogger::stop()
{
    capturing_ = false;
    // The partially filled window is discarded, pending segment included.
    seg_span_ns_ = 0;
}

void
PowerLogger::flushSegment()
{
    if (seg_span_ns_ <= 0)
        return;
    const double span = static_cast<double>(seg_span_ns_);
    acc_xcd_ += seg_rails_.xcd * span;
    acc_iod_ += seg_rails_.iod * span;
    acc_hbm_ += seg_rails_.hbm * span;
    acc_misc_ += seg_rails_.misc * span;
    seg_span_ns_ = 0;
}

void
PowerLogger::emitWindow(std::int64_t window_end_gpu_ns)
{
    const double w_ns = static_cast<double>(window_.nanos());
    const std::int64_t ts = window_end_gpu_ns / gpu_clock_.tick().nanos();
    double xcd = acc_xcd_ / w_ns;
    double iod = acc_iod_ / w_ns;
    double hbm = acc_hbm_ / w_ns;
    double misc = acc_misc_ / w_ns;
    if (noise_w_ > 0.0) {
        xcd += rng_.normal(0.0, noise_w_);
        iod += rng_.normal(0.0, noise_w_);
        hbm += rng_.normal(0.0, noise_w_);
        misc += rng_.normal(0.0, noise_w_ * 0.5);
    }
    // Appended column-wise: samples are never staged as row structs.
    samples_.push(ts, xcd + iod + hbm + misc, xcd, iod, hbm);
}

void
PowerLogger::addSlice(support::SimTime master_start, support::Duration dt,
                      const RailPower& rails)
{
    if (!capturing_ || dt.nanos() <= 0)
        return;

    // Map the slice to GPU-domain nanoseconds.  Drift is ppm-scale, so the
    // mapped interval has essentially the master length; all boundary
    // arithmetic below is exact integer math in GPU time, and mapped slice
    // endpoints telescope across consecutive calls — so the start of a
    // slice is usually the end mapped by the previous one.
    const std::int64_t g0 = master_start == mapped_end_
                                ? mapped_end_gpu_ns_
                                : gpu_clock_.domainTime(master_start).nanos();
    mapped_end_ = master_start + dt;
    mapped_end_gpu_ns_ = gpu_clock_.domainTime(mapped_end_).nanos();
    const std::int64_t g1 = mapped_end_gpu_ns_;
    if (g1 <= g0)
        return;

    const std::int64_t w = window_.nanos();
    std::int64_t cur = std::max(g0, window_start_gpu_ns_);
    if (cur >= g1)
        return;

    if (seg_span_ns_ > 0 && !sameRails(seg_rails_, rails))
        flushSegment();
    seg_rails_ = rails;

    // Bulk path: a long constant-power slice closes many windows at once.
    const std::int64_t whole_windows = (g1 - window_start_gpu_ns_) / w;
    if (whole_windows > 4)
        samples_.reserve(samples_.size() +
                         static_cast<std::size_t>(whole_windows));

    while (cur < g1) {
        const std::int64_t window_end = window_start_gpu_ns_ + w;
        const std::int64_t span_end = std::min(g1, window_end);
        seg_span_ns_ += span_end - cur;
        if (span_end == window_end) {
            flushSegment();
            emitWindow(window_end);
            window_start_gpu_ns_ = window_end;
            acc_xcd_ = acc_iod_ = acc_hbm_ = acc_misc_ = 0.0;
        }
        cur = span_end;
    }
}

}  // namespace fingrav::sim
