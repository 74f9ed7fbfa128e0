#include "fingrav/scenario.hpp"

#include <algorithm>
#include <cmath>

#include "kernels/workloads.hpp"
#include "sim/simulation.hpp"
#include "support/logging.hpp"

namespace fingrav::core {

const char*
toString(BackgroundKind kind)
{
    switch (kind) {
      case BackgroundKind::kKernel:
        return "kernel";
      case BackgroundKind::kFabricDemand:
        return "fabric-demand";
    }
    return "?";
}

namespace {

/** Always-on span of a one-shot demand injection ("the whole campaign"). */
constexpr auto kAlwaysOn = support::Duration::seconds(1e6);

runtime::BackgroundStream
compileLoad(const BackgroundLoad& load, sim::Simulation& sim)
{
    runtime::BackgroundStream s;
    s.first = support::SimTime::fromNanos(0) + load.offset;
    if (load.offset.nanos() < 0)
        support::fatal("BackgroundLoad: negative offset");
    if (load.duty_cycle <= 0.0 || load.duty_cycle > 1.0)
        support::fatal("BackgroundLoad: duty_cycle must be in (0, 1], got ",
                       load.duty_cycle);

    const bool one_shot = load.period.nanos() <= 0;
    if (one_shot && load.cycles > 1)
        support::fatal("BackgroundLoad: ", load.cycles,
                       " cycles need a positive period");
    s.period = load.period;
    s.cycles = one_shot ? 1 : load.cycles;

    if (load.kind == BackgroundKind::kFabricDemand) {
        if (load.demand <= 0.0)
            support::fatal("BackgroundLoad: fabric demand must be positive, "
                           "got ", load.demand);
        s.inject_demand = load.demand;
        s.active = one_shot ? kAlwaysOn : load.period * load.duty_cycle;
        return s;
    }

    if (load.device >= sim.deviceCount())
        support::fatal("BackgroundLoad: device ", load.device,
                       " out of range (", sim.deviceCount(), " devices); "
                       "set ScenarioSpec::devices or pick another device");
    const auto model = kernels::kernelByLabel(load.kernel, sim.config());
    // Background processes run warm; their cold ramp is not the subject.
    s.work = model->workAt(1.0);
    s.device = load.device;
    s.queue = load.queue;
    s.jitter_sigma = load.jitter_sigma < 0.0
                         ? sim.config().exec_time_sigma
                         : load.jitter_sigma;
    if (one_shot) {
        s.launches_per_cycle = 1;
    } else {
        // Duty-cycle sizing: enough back-to-back copies to occupy about
        // duty_cycle of each period at the nominal (uncontended) rate.
        const double span =
            load.duty_cycle * static_cast<double>(load.period.nanos());
        const double nominal =
            static_cast<double>(s.work.nominal_duration.nanos());
        FINGRAV_ASSERT(nominal > 0.0, "background kernel with zero cost");
        s.launches_per_cycle = std::max<std::size_t>(
            1, static_cast<std::size_t>(std::floor(span / nominal)));
    }
    s.active = s.work.nominal_duration *
               static_cast<double>(s.launches_per_cycle);
    return s;
}

}  // namespace

std::vector<runtime::BackgroundStream>
buildBackgroundStreams(const ScenarioSpec& spec, sim::Simulation& sim)
{
    std::vector<runtime::BackgroundStream> out;
    out.reserve(spec.background.size());
    for (const auto& load : spec.background)
        out.push_back(compileLoad(load, sim));
    return out;
}

}  // namespace fingrav::core
