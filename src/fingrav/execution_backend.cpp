#include "fingrav/execution_backend.hpp"

#include <algorithm>
#include <thread>
#include <utility>

#include "fingrav/campaign_cache.hpp"
#include "fingrav/campaign_runner.hpp"
#include "support/logging.hpp"
#include "support/thread_pool.hpp"

namespace fingrav::core {

ExecutionBackend::CacheConsult
ExecutionBackend::consultCache(const std::vector<ScenarioSpec>& specs,
                               const sim::MachineConfig& cfg) const
{
    CacheConsult consult;
    consult.results.resize(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (cache()) {
            if (auto hit = cache()->lookup(specs[i], cfg)) {
                consult.results[i] = std::move(*hit);
                continue;
            }
        }
        consult.pending.push_back(specs[i]);
        consult.slots.push_back(i);
    }
    return consult;
}

void
ExecutionBackend::commitCache(CacheConsult& consult,
                              std::vector<ProfileSet>&& executed,
                              const sim::MachineConfig& cfg) const
{
    if (executed.size() != consult.pending.size()) {
        support::panic("execution backend: ", executed.size(),
                       " results for ", consult.pending.size(),
                       " pending specs");
    }
    for (std::size_t j = 0; j < executed.size(); ++j) {
        if (cache())
            cache()->store(consult.pending[j], cfg, executed[j]);
        consult.results[consult.slots[j]] = std::move(executed[j]);
    }
}

ThreadPoolBackend::ThreadPoolBackend(std::size_t threads) : threads_(threads)
{
    if (threads_ == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        threads_ = hw > 0 ? hw : 1;
    }
}

std::vector<ProfileSet>
ThreadPoolBackend::execute(const std::vector<ScenarioSpec>& specs,
                           const sim::MachineConfig& cfg)
{
    if (!cache())
        return executeUncached(specs, cfg);
    // Consult the cache before placing anything: cached specs never
    // occupy a pool slot, and only the residue fans out.
    auto consult = consultCache(specs, cfg);
    commitCache(consult, executeUncached(consult.pending, cfg), cfg);
    return std::move(consult.results);
}

std::vector<ProfileSet>
ThreadPoolBackend::executeUncached(const std::vector<ScenarioSpec>& specs,
                                   const sim::MachineConfig& cfg)
{
    std::vector<ProfileSet> results(specs.size());
    const std::size_t workers =
        std::min<std::size_t>(threads_, specs.size() > 0 ? specs.size() : 1);
    if (workers <= 1) {
        for (std::size_t i = 0; i < specs.size(); ++i)
            results[i] = CampaignRunner::runOne(specs[i], cfg);
        return results;
    }
    // Campaigns are hermetic, so the pool only decides where each one
    // executes; every result lands in its spec's slot regardless of
    // completion order.
    support::ThreadPool pool(workers);
    pool.parallelFor(specs.size(), [&](std::size_t i) {
        results[i] = CampaignRunner::runOne(specs[i], cfg);
    });
    return results;
}

}  // namespace fingrav::core
