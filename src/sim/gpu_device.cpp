#include "sim/gpu_device.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "support/logging.hpp"

namespace fingrav::sim {

namespace {

using fingrav::support::Duration;
using fingrav::support::SimTime;

/**
 * Maximum temperature drift tolerated within one stretch, degrees C.
 *
 * Power is held constant per stretch, which freezes the temperature →
 * leakage → power feedback loop for the stretch's duration.  Capping the
 * per-stretch drift bounds that approximation everywhere — with or
 * without a capturing logger — while still letting stretches grow
 * unbounded once the thermal RC has converged.  At the default leakage
 * coefficients 0.05 C bounds the per-stretch power error near 0.03 W,
 * well under the logger noise floor.
 */
constexpr double kThermalEpsC = 0.05;

/** Upper bound on the thermal-feedback stretch cap (overflow guard). */
constexpr double kThermalBoundMaxS = 3600.0;

}  // namespace

GpuDevice::GpuDevice(const MachineConfig& cfg, support::Rng rng,
                     std::size_t device_id)
    : cfg_(cfg), device_id_(device_id), rng_(std::move(rng)),
      gpu_clock_(
          // Each GPU boots at a different wall time: give the counter a
          // large random epoch offset so nothing accidentally relies on
          // GPU time resembling CPU time.
          support::Duration::seconds(rng_.uniform(1e3, 9e4)),
          cfg.gpu_clock_drift_ppm, cfg.timestamp_tick),
      power_(cfg.power), governor_(cfg.dvfs), thermal_(cfg.thermal),
      thermal_cap_num_(cfg.thermal.time_constant.toSeconds() * kThermalEpsC),
      queues_(1)
{
}

std::uint64_t
GpuDevice::submit(const KernelWork& work, support::SimTime ready_at,
                  std::size_t queue)
{
    if (work.nominal_duration.nanos() <= 0)
        support::fatal("GpuDevice::submit: device ", device_id_, " queue ",
                       queue, ": non-positive kernel duration (",
                       work.nominal_duration.nanos(), " ns)");
    if (queue >= 16)
        support::fatal("GpuDevice::submit: queue ", queue,
                       " out of range (max 16 hardware queues)");
    if (queue >= queues_.size())
        queues_.resize(queue + 1);

    const bool front = queues_[queue].empty();
    QueueEntry& entry = queues_[queue].emplace_back();
    entry.id = next_id_++;
    entry.work = work;
    if (entry.work.fabric_group == KernelWork::kAutoFabricGroup) {
        // Each un-grouped launch is its own transfer; without a node
        // arbiter (standalone device) fabric traffic stays local-only.
        entry.work.fabric_group =
            fabric_ != nullptr ? fabric_->allocGroup() : 0;
    }
    if (entry.work.fabric_group != 0) {
        ++fabric_kernels_;
        if (fabric_ != nullptr)
            fabric_->noteSubmitted();
    }
    // Work cannot start before the device's own present.
    entry.ready_at = std::max(ready_at, now_);
    if (front)
        next_start_ = std::min(next_start_, entry.ready_at);
    entry.remaining_s = work.nominal_duration.toSeconds();
    queue_state_.dirty = true;
    return entry.id;
}

bool
GpuDevice::idle() const
{
    for (const auto& q : queues_) {
        if (!q.empty())
            return false;
    }
    return true;
}

void
GpuDevice::startReady()
{
    if (now_ < next_start_)
        return;  // no unstarted front is due yet
    bool was_idle = true;
    for (const auto& q : queues_) {
        if (!q.empty() && q.front().started)
            was_idle = false;
    }
    next_start_ = kNever;
    for (auto& q : queues_) {
        if (q.empty() || q.front().started)
            continue;
        QueueEntry& front = q.front();
        if (front.ready_at > now_) {
            next_start_ = std::min(next_start_, front.ready_at);
            continue;
        }
        front.started = now_;
        front.rate = 0.0;  // force rate/due computation
        front.rate_anchor = now_;
        queue_state_.dirty = true;
        if (front.work.fabric_group != 0)
            demands_stale_ = true;
        if (was_idle) {
            governor_.wake();
            was_idle = false;
        }
    }
}

void
GpuDevice::refreshQueueState()
{
    // Raw utilization demand (uncapped sums) for the contention model:
    // when concurrent queues oversubscribe a resource dimension —
    // including CU residency slots (occupancy) — every resident
    // kernel's progress is scaled by the peak oversubscription.
    double demand_occ = 0.0;
    double demand_xcd = 0.0;
    double demand_llc = 0.0;
    double demand_hbm = 0.0;
    double demand_fab = 0.0;
    UtilizationVector agg;
    std::size_t running = 0;
    for (const auto& q : queues_) {
        if (q.empty() || !q.front().started)
            continue;
        const UtilizationVector& u = q.front().work.util;
        demand_occ += u.xcd_occupancy;
        demand_xcd += u.xcd_issue;
        demand_llc += u.llc_bw;
        demand_hbm += u.hbm_bw;
        demand_fab += u.fabric_bw;
        agg = agg.saturatingAdd(u);
        ++running;
    }
    // Shared node fabric: this device's transfers plus the committed
    // demand of transfers on other devices, each distinct transfer once.
    // Oversubscription stretches progress (fair share) and saturates the
    // links, so fabric utilization — and IOD power — rises while the
    // contended phase lasts.  Only the node-fabric share of utilization
    // is scaled: on-package traffic (fabric_group 0) never touches the
    // contended GPU-to-GPU links.
    double fabric_stretch = 1.0;
    if (fabric_ != nullptr) {
        postFabricDemands();
        // The shared demand is a pure function of the posted transfers
        // and the committed view, which only changes with the epoch:
        // re-price only when one of the two moved.
        if (fabric_demands_.empty()) {
            priced_stretch_ = 1.0;
        } else if (price_stale_ || fabric_->epoch() != priced_epoch_) {
            priced_stretch_ = std::max(
                1.0, fabric_->sharedDemand(device_id_, fabric_demands_));
            priced_epoch_ = fabric_->epoch();
            price_stale_ = false;
        }
        fabric_stretch = priced_stretch_;
        if (fabric_stretch > 1.0) {
            double node_fab = 0.0;
            for (const auto& d : fabric_demands_)
                node_fab += d.demand;
            agg.fabric_bw = std::min(
                1.0, agg.fabric_bw + node_fab * (fabric_stretch - 1.0));
        }
    }
    queue_state_.contention =
        std::max({1.0, demand_occ, demand_xcd, demand_llc, demand_hbm,
                  demand_fab, fabric_stretch});
    queue_state_.util = agg;
    queue_state_.running = running;
    queue_state_.active = running > 0;
    queue_state_.dirty = false;
    // Contention or the running set may have moved: re-rate the fronts.
    progress_f_ = std::numeric_limits<double>::quiet_NaN();
}

void
GpuDevice::postFabricDemands()
{
    // The pending slot keeps the last posted list, which only a
    // node-fabric start or retirement can change.
    if (!demands_stale_)
        return;
    demands_stale_ = false;
    fabric_demands_.clear();
    for (const auto& q : queues_) {
        if (!q.empty() && q.front().started &&
            q.front().work.fabric_group != 0) {
            fabric_demands_.push_back(
                {q.front().work.fabric_group, q.front().work.util.fabric_bw});
        }
    }
    fabric_->postDemand(device_id_, fabric_demands_);
    price_stale_ = true;
}

void
GpuDevice::noteFabricEpoch()
{
    if (fabric_ == nullptr)
        return;
    const std::uint64_t e = fabric_->epoch();
    if (e != fabric_epoch_seen_) {
        fabric_epoch_seen_ = e;
        // Only running transfers price the committed view; without any,
        // the fabric stretch is 1 whatever the epoch.
        if (!fabric_demands_.empty())
            queue_state_.dirty = true;
    }
}

void
GpuDevice::pollFabricDemand()
{
    startReady();
    // Only the posted transfers matter to the coming commit.  Contention
    // is priced when the device next steps, against the view that commit
    // publishes.
    if (fabric_ != nullptr)
        postFabricDemands();
}

support::SimTime
GpuDevice::nextFabricEvent(support::SimTime limit)
{
    startReady();
    noteFabricEpoch();
    if (queue_state_.dirty)
        refreshQueueState();
    refreshProgress(governor_.frequencyRatio());
    // Demand can only change through this device's node-fabric kernels,
    // but *any* queue event — a start or completion on any queue —
    // changes local contention and re-anchors their rates (possibly
    // pulling a fabric completion earlier).  So while a fabric kernel is
    // queued or running anywhere on the device, every front boundary is
    // a conservative probe point; with none, demand cannot change.
    if (fabric_kernels_ == 0)
        return limit;
    SimTime best = limit;
    for (const auto& q : queues_) {
        if (q.empty())
            continue;
        const QueueEntry& front = q.front();
        if (front.started) {
            if (front.completion_due < best)
                best = front.completion_due;
        } else if (front.ready_at > now_ && front.ready_at < best) {
            best = front.ready_at;
        }
    }
    return best;
}

void
GpuDevice::refreshProgress(double f)
{
    // A rate is a pure function of the kernel, f and the contention, and
    // every start or completion refreshes the queue state: with neither
    // f nor the queue state changed, every rate still holds.
    if (f == progress_f_)
        return;
    progress_f_ = f;
    for (auto& q : queues_) {
        if (q.empty() || !q.front().started)
            continue;
        QueueEntry& e = q.front();
        const double rate =
            ((1.0 - e.work.freq_sensitivity) +
             e.work.freq_sensitivity * f) /
            queue_state_.contention;
        FINGRAV_ASSERT(rate > 0.0, "non-positive progress rate");
        if (rate == e.rate)
            continue;  // anchor and completion time stay valid
        if (e.rate > 0.0 && now_ > e.rate_anchor) {
            e.remaining_s -=
                (now_ - e.rate_anchor).toSeconds() * e.rate;
        }
        e.rate = rate;
        e.rate_anchor = now_;
        const double complete_ns =
            std::ceil(std::max(0.0, e.remaining_s) / rate * 1e9);
        e.completion_due =
            now_ + Duration::nanos(std::max<std::int64_t>(
                       1, static_cast<std::int64_t>(complete_ns)));
    }
}

UtilizationVector
GpuDevice::aggregateUtil(std::size_t* running) const
{
    UtilizationVector agg;
    std::size_t n = 0;
    for (const auto& q : queues_) {
        if (!q.empty() && q.front().started) {
            agg = agg.saturatingAdd(q.front().work.util);
            ++n;
        }
    }
    if (running != nullptr)
        *running = n;
    return agg;
}

RailPower
GpuDevice::currentPower() const
{
    const UtilizationVector util = aggregateUtil(nullptr);
    return power_.instantaneous(util, governor_.frequencyRatio(),
                                thermal_.temperature());
}

PowerLogger&
GpuDevice::addLogger(support::Duration window, double noise_w)
{
    const double noise = noise_w < 0.0 ? cfg_.logger_noise_w : noise_w;
    loggers_.push_back(std::make_unique<PowerLogger>(
        window, gpu_clock_, noise,
        rng_.fork(1000 + loggers_.size())));
    return *loggers_.back();
}

void
GpuDevice::advanceTo(support::SimTime master)
{
    stepLoop(master, /*stop_on_idle=*/false);
}

support::SimTime
GpuDevice::advanceUntilIdle(support::SimTime limit)
{
    return stepLoop(limit, /*stop_on_idle=*/true);
}

support::SimTime
GpuDevice::nextLoggerCut(support::SimTime limit)
{
    SimTime best = limit;
    for (const auto& logger : loggers_) {
        if (logger->capturing())
            best = std::min(best, logger->nextWindowEndMaster(now_));
    }
    return best;
}

support::SimTime
GpuDevice::stepLoop(support::SimTime limit, bool stop_on_idle)
{
    while (now_ < limit) {
        startReady();
        // Fabric-demand stretch terminator: when the committed node-fabric
        // view moved (a remote transfer started or completed at the last
        // epoch barrier), re-price contention before the next stretch.
        noteFabricEpoch();

        const double f = governor_.frequencyRatio();
        if (queue_state_.dirty)
            refreshQueueState();
        refreshProgress(f);
        const bool active = queue_state_.active;

        // ---- stretch end: the earliest next event -----------------------
        SimTime t_end = limit;
        for (const auto& q : queues_) {
            if (q.empty())
                continue;
            const QueueEntry& front = q.front();
            if (front.started) {
                if (front.completion_due < t_end)
                    t_end = front.completion_due;
            } else if (front.ready_at > now_ && front.ready_at < t_end) {
                t_end = front.ready_at;
            }
        }
        if (active) {
            if (governor_.inExcursion()) {
                const SimTime expiry = now_ + governor_.holdRemaining();
                if (expiry < t_end)
                    t_end = expiry;
            }
            if (const auto budget = governor_.timeToBoostBudget()) {
                const SimTime crossing = now_ + *budget;
                if (crossing < t_end)
                    t_end = crossing;
            }
        } else if (const auto park = governor_.timeToPark()) {
            const SimTime parks = now_ + *park;
            if (parks < t_end)
                t_end = parks;
        }
        if (!loggers_.empty())
            t_end = nextLoggerCut(t_end);

        // Power is held constant over the stretch, so it is evaluated
        // before choosing the integration bound.
        const RailPower rails = power_.instantaneous(
            queue_state_.util, f, thermal_.temperature());

        // While the governor is actively moving the clock (recovery slew,
        // sustained backoff, or a limit the EMAs may cross), integration
        // stays bounded by the legacy quantum so the control-loop dynamics
        // are preserved; quiescent stretches integrate in one exact step.
        const Duration quantum = active ? cfg_.power_step : cfg_.idle_step;
        const bool quiescent =
            !active || governor_.quiescentAt(rails.total());
        if (!quiescent && now_ + quantum < t_end)
            t_end = now_ + quantum;

        // Thermal-feedback bound: temperature feeds back into leakage
        // power, so a stretch may only run as far as temperature can
        // drift by kThermalEpsC.  dT over dt is (target - T) * dt / tau
        // to first order; the cap therefore loosens as the RC converges
        // and never cuts finer than the legacy idle quantum — so a stretch
        // already within that quantum skips the division.
        const double gap_c =
            std::abs(thermal_.steadyState(rails.total()) -
                     thermal_.temperature());
        if (gap_c > kThermalEpsC && now_ + cfg_.idle_step < t_end) {
            const double bound_s =
                std::min(kThermalBoundMaxS, thermal_cap_num_ / gap_c);
            const Duration bound =
                std::max(cfg_.idle_step, Duration::seconds(bound_s));
            if (now_ + bound < t_end)
                t_end = now_ + bound;
        }

        if (t_end <= now_)
            break;  // can only happen when limit == now_
        const Duration dt = t_end - now_;

        // ---- logger feed: one bulk slice per stretch --------------------
        for (auto& logger : loggers_)
            logger->addSlice(now_, dt, rails);

        // ---- integrate the stretch --------------------------------------
        governor_.update(dt, rails.total(), active);
        thermal_.update(dt, rails.total());
        ++step_stats_.stretches;
        now_ = t_end;

        // ---- harvest completions due exactly now ------------------------
        for (std::size_t qi = 0; qi < queues_.size(); ++qi) {
            auto& q = queues_[qi];
            if (q.empty() || !q.front().started)
                continue;
            QueueEntry& front = q.front();
            if (front.completion_due <= now_) {
                execution_log_.push_back(
                    {front.id, *front.started, now_, qi});
                if (front.work.fabric_group != 0) {
                    --fabric_kernels_;
                    demands_stale_ = true;
                    if (fabric_ != nullptr)
                        fabric_->noteRetired();
                }
                q.pop_front();
                queue_state_.dirty = true;
                if (!q.empty())
                    next_start_ = std::min(next_start_, q.front().ready_at);
            }
        }

        if (stop_on_idle && idle())
            return now_;
    }
    return now_;
}

}  // namespace fingrav::sim
