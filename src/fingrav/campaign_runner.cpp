#include "fingrav/campaign_runner.hpp"

#include <algorithm>
#include <utility>

#include "kernels/workloads.hpp"
#include "support/logging.hpp"

namespace fingrav::core {

namespace {

std::size_t
scenarioDevices(const ScenarioSpec& spec,
                const kernels::KernelModelPtr& kernel,
                const sim::MachineConfig& cfg)
{
    if (spec.devices != 0)
        return spec.devices;
    if (kernel->isCollective())
        return 0;  // full node
    // Non-collective foreground: one GPU, plus enough devices to host
    // every background kernel load — capped at the node size (a load on
    // a device the node does not have is rejected downstream).
    std::size_t devices = 1;
    for (const auto& load : spec.background) {
        if (load.kind == BackgroundKind::kKernel)
            devices = std::max(devices, load.device + 1);
    }
    return std::min(devices, cfg.node_gpus);
}

}  // namespace

CampaignNode::CampaignNode(const ScenarioSpec& spec,
                           const sim::MachineConfig& cfg)
    : kernel_(kernels::kernelByLabel(spec.label, cfg)),
      sim_(cfg, spec.seed, scenarioDevices(spec, kernel_, cfg)),
      host_(sim_, sim_.forkRng(7))
{
    // The background channel is armed off dedicated root stream 9; an
    // empty background list arms nothing, so an isolated scenario's node
    // is bitwise the pre-scenario node (forking is a pure function of
    // the root seed and never perturbs streams 7/8).
    host_.armBackground(buildBackgroundStreams(spec, sim_), sim_.forkRng(9));
}

CampaignRunner::CampaignRunner(std::size_t threads)
    : backend_(std::make_shared<ThreadPoolBackend>(threads))
{
}

CampaignRunner::CampaignRunner(std::shared_ptr<ExecutionBackend> backend)
    : backend_(std::move(backend))
{
    if (!backend_)
        support::fatal("CampaignRunner: null execution backend");
}

ProfileSet
CampaignRunner::runOne(const ScenarioSpec& spec, const sim::MachineConfig& cfg)
{
    CampaignNode node(spec, cfg);
    return Profiler(node.host(), spec.opts, node.profilerRng())
        .profile(node.kernel());
}

std::vector<ProfileSet>
CampaignRunner::run(const std::vector<ScenarioSpec>& specs,
                    const sim::MachineConfig& cfg) const
{
    auto results = backend_->execute(specs, cfg);
    if (results.size() != specs.size()) {
        support::panic("execution backend '", backend_->name(),
                       "' returned ", results.size(), " results for ",
                       specs.size(), " specs");
    }
    return results;
}

}  // namespace fingrav::core
