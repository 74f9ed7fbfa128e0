#include "runtime/host_runtime.hpp"

#include <algorithm>
#include <utility>

#include "support/logging.hpp"

namespace fingrav::runtime {

namespace {

/** CPU clock read cost (rdtsc-ish plus call overhead). */
constexpr auto kClockReadCost = fingrav::support::Duration::nanos(40);

/** Host-side cost of issuing an asynchronous launch call. */
constexpr auto kLaunchCallCost = fingrav::support::Duration::nanos(700);

/** Host-side cost of a sync call when the device is already idle. */
constexpr auto kSyncPollCost = fingrav::support::Duration::nanos(600);

/** Sync watchdog: a single synchronize may not span more than this. */
constexpr auto kSyncLimit = fingrav::support::Duration::seconds(30.0);

}  // namespace

HostRuntime::HostRuntime(sim::Simulation& sim, support::Rng rng)
    : sim_(sim), rng_(std::move(rng)),
      cpu_now_(support::SimTime::fromNanos(0)),
      loggers_(sim.deviceCount())
{
}

std::int64_t
HostRuntime::readCpuClock() const
{
    return sim_.cpuClock().domainTime(cpu_now_).nanos();
}

std::int64_t
HostRuntime::cpuClockAt(support::SimTime master) const
{
    return sim_.cpuClock().domainTime(master).nanos();
}

std::int64_t
HostRuntime::cpuNowNs()
{
    cpu_now_ += kClockReadCost;
    return readCpuClock();
}

void
HostRuntime::sleep(support::Duration d)
{
    if (d.nanos() < 0)
        support::fatal("HostRuntime::sleep: negative duration");
    cpu_now_ += d;
}

void
HostRuntime::pumpBackground(support::SimTime horizon)
{
    if (background_ != nullptr)
        background_->pump(horizon);
}

void
HostRuntime::armBackground(std::vector<BackgroundStream> streams,
                           support::Rng rng)
{
    if (streams.empty())
        return;  // isolated scenario: keep the legacy runtime bitwise
    if (background_ != nullptr)
        support::fatal("armBackground: channel already armed");
    background_ = std::make_unique<BackgroundChannel>(
        sim_, std::move(streams), std::move(rng));
}

std::vector<std::pair<std::int64_t, std::int64_t>>
HostRuntime::backgroundActiveCpuIntervals(std::int64_t from_ns,
                                          std::int64_t to_ns)
{
    if (background_ == nullptr)
        return {};
    return background_->activeCpuIntervals(from_ns, to_ns);
}

void
HostRuntime::catchUpDevice(std::size_t device, bool pump_background)
{
    // Background events due by the host present must be in the device
    // queues (or on the fabric) before anyone advances past them.
    if (pump_background)
        pumpBackground(cpu_now_);
    // While collectives are in flight the devices are fabric-coupled:
    // catching one up alone would price contention from a stale sibling
    // snapshot, so the whole node rides to the host present together.
    if (sim_.fabric().coupled())
        sim_.advanceAllTo(cpu_now_);
    else
        sim_.device(device).advanceTo(cpu_now_);
}

std::uint64_t
HostRuntime::launch(const sim::KernelWork& work, std::size_t device,
                    std::size_t queue)
{
    cpu_now_ += kLaunchCallCost;
    const auto ready =
        cpu_now_ + sim_.config().launch_overhead;
    return sim_.device(device).submit(work, ready, queue);
}

std::uint64_t
HostRuntime::launchOnAllDevices(const sim::KernelWork& work,
                                std::size_t queue)
{
    cpu_now_ += kLaunchCallCost;
    const auto ready = cpu_now_ + sim_.config().launch_overhead;
    // The per-device copies are one inter-GPU transfer: stamp a single
    // transfer id so the collective does not contend with itself on the
    // shared node fabric (concurrent collectives get distinct ids).
    sim::KernelWork shared = work;
    if (shared.fabric_group == sim::KernelWork::kAutoFabricGroup)
        shared.fabric_group = sim_.fabric().allocGroup();
    std::uint64_t id0 = 0;
    for (std::size_t d = 0; d < sim_.deviceCount(); ++d) {
        const auto id = sim_.device(d).submit(shared, ready, queue);
        if (d == 0)
            id0 = id;
    }
    return id0;
}

void
HostRuntime::synchronize(std::size_t device)
{
    synchronizeImpl(device, /*pump_background=*/true);
}

void
HostRuntime::synchronizeImpl(std::size_t device, bool pump_background)
{
    if (pump_background)
        pumpBackground(cpu_now_);
    auto& dev = sim_.device(device);
    if (dev.idle()) {
        catchUpDevice(device, pump_background);
        cpu_now_ += kSyncPollCost;
        return;
    }
    // While node-fabric transfers are outstanding the drain must step the
    // whole node in fabric epochs, or contended collectives would finish
    // at uncontended speed; otherwise the legacy single-device drain.
    // With a background channel armed, the drain is additionally split at
    // the channel's due times: a background launch (or injected-demand
    // toggle) scheduled *during* the drain fires at its exact master
    // time, so the contended phase of a foreground execution is priced
    // from the environment that was live while it ran.
    const auto limit = cpu_now_ + kSyncLimit;
    auto done = cpu_now_;
    for (;;) {
        auto bound = limit;
        if (pump_background && background_ != nullptr &&
            background_->hasPending())
            bound = std::min(limit, background_->nextDue());
        done = sim_.fabric().coupled()
                   ? sim_.advanceDeviceUntilIdle(device, bound)
                   : dev.advanceUntilIdle(bound);
        if (dev.idle() || bound == limit)
            break;
        pumpBackground(bound);
    }
    if (!dev.idle())
        support::fatal("HostRuntime::synchronize: device ", device,
                       " did not drain within the watchdog window");
    // Completion may precede the host present (the host raced ahead) or
    // follow it (the host blocked); either way the sync call returns after
    // the later of the two plus the sync return overhead.
    cpu_now_ = std::max(cpu_now_, done);
    const double jitter = rng_.lognormalJitter(0.08);
    cpu_now_ += sim_.config().sync_overhead * jitter;
}

void
HostRuntime::synchronizeAll()
{
    // Batched pre-pass: bring every device to the host present in one
    // coordinated loop, then drain them in order.  The per-device sync
    // overhead/jitter accounting below is unchanged.  Already-due
    // background events are submitted first, but the drains themselves do
    // not feed the channel: the environment never drains, so an
    // end-of-run synchronizeAll drains the node against the submitted
    // environment only and later cycle starts slip to the next host
    // interaction.
    pumpBackground(cpu_now_);
    sim_.advanceAllTo(cpu_now_);
    for (std::size_t d = 0; d < sim_.deviceCount(); ++d)
        synchronizeImpl(d, /*pump_background=*/false);
}

HostTiming
HostRuntime::timedRun(const sim::KernelWork& work, std::size_t device)
{
    HostTiming t;
    t.cpu_start_ns = cpuNowNs() + sim_.config().launch_overhead.nanos() +
                     kLaunchCallCost.nanos();
    launch(work, device);
    synchronize(device);
    t.cpu_end_ns = cpuNowNs();
    return t;
}

HostTiming
HostRuntime::timedRunOnAllDevices(const sim::KernelWork& work,
                                  std::size_t device)
{
    HostTiming t;
    t.cpu_start_ns = cpuNowNs() + sim_.config().launch_overhead.nanos() +
                     kLaunchCallCost.nanos();
    launchOnAllDevices(work);
    synchronize(device);
    t.cpu_end_ns = cpuNowNs();
    return t;
}

TimestampRead
HostRuntime::readGpuTimestamp(std::size_t device)
{
    TimestampRead r;
    r.cpu_before_ns = readCpuClock();
    // The round trip takes the configured delay with multiplicative
    // jitter; the counter is sampled mid-flight.
    const double jitter = rng_.lognormalJitter(
        sim_.config().timestamp_read_jitter);
    const auto delay = sim_.config().timestamp_read_delay * jitter;
    const auto sample_point = cpu_now_ + delay * 0.5;
    r.gpu_counter = sim_.device(device).gpuClock().readCounter(sample_point);
    cpu_now_ += delay;
    r.cpu_after_ns = readCpuClock();
    return r;
}

support::Duration
HostRuntime::benchmarkTimestampReadDelay(std::size_t device,
                                         std::size_t iterations)
{
    if (iterations == 0)
        support::fatal("benchmarkTimestampReadDelay: zero iterations");
    const std::int64_t t0 = readCpuClock();
    for (std::size_t i = 0; i < iterations; ++i)
        (void)readGpuTimestamp(device);
    const std::int64_t t1 = readCpuClock();
    return support::Duration::nanos((t1 - t0) /
                                    static_cast<std::int64_t>(iterations));
}

sim::PowerLogger*
HostRuntime::findLogger(std::size_t device, support::Duration window) const
{
    for (auto* logger : loggers_[device]) {
        if (logger->window() == window)
            return logger;
    }
    return nullptr;
}

void
HostRuntime::startPowerLog(std::size_t device, support::Duration window)
{
    auto& dev = sim_.device(device);
    catchUpDevice(device);
    sim::PowerLogger* logger = nullptr;
    if (window.nanos() > 0) {
        logger = findLogger(device, window);
    } else if (!loggers_[device].empty()) {
        // Unspecified window: reuse the primary logger whatever its
        // window (callers read the window back via powerLogWindow).
        logger = loggers_[device].front();
    }
    if (logger == nullptr) {
        const auto w =
            window.nanos() > 0 ? window : sim_.config().logger_window;
        logger = &dev.addLogger(w);
        loggers_[device].push_back(logger);
    }
    logger->clearSamples();
    logger->start(cpu_now_);
}

sim::SampleColumns
HostRuntime::stopPowerLog(std::size_t device, support::Duration window)
{
    sim::PowerLogger* logger = nullptr;
    if (window.nanos() > 0) {
        logger = findLogger(device, window);
        if (logger == nullptr || !logger->capturing())
            support::fatal("stopPowerLog: no active capture with window ",
                           window.toMicros(), "us on device ", device);
    } else {
        // Unaddressed stop: legal only while exactly one capture is live.
        for (auto* candidate : loggers_[device]) {
            if (!candidate->capturing())
                continue;
            if (logger != nullptr)
                support::fatal("stopPowerLog: several captures active on "
                               "device ", device,
                               "; address the logger by window");
            logger = candidate;
        }
        if (logger == nullptr)
            support::fatal("stopPowerLog: no active capture on device ",
                           device);
    }
    catchUpDevice(device);
    logger->stop();
    auto out = logger->samples();
    logger->clearSamples();
    return out;
}

}  // namespace fingrav::runtime
