#ifndef FINGRAV_FINGRAV_EXECUTION_BACKEND_HPP_
#define FINGRAV_FINGRAV_EXECUTION_BACKEND_HPP_

/**
 * @file
 * Pluggable campaign placement: where a spec list executes.
 *
 * CampaignRunner's public contract — run(specs) returns ProfileSets in
 * spec order, bit-identical to the serial loop — never depended on
 * campaigns executing in the caller's address space; it only depended on
 * campaigns being hermetic (pure functions of (spec, machine config))
 * and results being slot-addressed.  ExecutionBackend makes that split
 * explicit: the runner owns the contract, a backend owns placement.
 *
 *  - ThreadPoolBackend: the classic in-process path — specs fanned over
 *    a support::ThreadPool, one fresh node per campaign, each node
 *    stepped serially on the thread that runs its campaign.
 *
 *  - FleetBackend (fingrav/worker_fleet.hpp): specs pulled one at a time
 *    by resident worker *processes* over the codec wire format, with an
 *    in-process fallback for failed workers.  A one-shot dispatch is a
 *    FleetBackend that goes out of scope.
 *
 * Backend admissibility: execute() must return exactly specs.size()
 * results with results[i] produced from specs[i], each bit-identical to
 * CampaignRunner::runOne(specs[i], cfg).  Placement — threads,
 * processes, machines, retry and completion order — must be invisible
 * in the results (tests/fleet_test.cpp).
 */

#include <cstddef>
#include <memory>
#include <vector>

#include "fingrav/profiler.hpp"
#include "fingrav/scenario.hpp"
#include "sim/machine_config.hpp"

namespace fingrav::core {

class CampaignCache;

/** Where a campaign spec list executes; see file comment for the
 *  admissibility contract. */
class ExecutionBackend {
  public:
    virtual ~ExecutionBackend() = default;

    /** Short placement name for diagnostics ("thread-pool", "fleet"). */
    virtual const char* name() const = 0;

    /** Execute every spec; results in spec order (see contract above). */
    virtual std::vector<ProfileSet> execute(
        const std::vector<ScenarioSpec>& specs,
        const sim::MachineConfig& cfg) = 0;

    /**
     * Attach a content-addressed campaign cache
     * (fingrav/campaign_cache.hpp).  Every built-in backend then
     * consults it *before placing work* — cached specs never reach a
     * thread pool slot or a worker process — and stores every freshly
     * executed result.  Because cached results are bit-identical to
     * execution by the cache's own contract, attaching a cache never
     * perturbs execute()'s output; null detaches.
     */
    void attachCache(std::shared_ptr<CampaignCache> cache)
    {
        cache_ = std::move(cache);
    }

    /** The cache in force (null = uncached). */
    const std::shared_ptr<CampaignCache>& cache() const { return cache_; }

  protected:
    /**
     * The per-spec cache consult every backend shares: results holds
     * every cache hit in its slot; pending/slots list the residual specs
     * (in spec order) the backend must still place.  With no cache
     * attached, everything is pending.
     */
    struct CacheConsult {
        std::vector<ProfileSet> results;
        std::vector<ScenarioSpec> pending;
        std::vector<std::size_t> slots;  ///< pending[j] -> specs slot
    };
    CacheConsult consultCache(const std::vector<ScenarioSpec>& specs,
                              const sim::MachineConfig& cfg) const;

    /** Store freshly executed pending results and merge them into their
     *  slots of `consult.results`. */
    void commitCache(CacheConsult& consult,
                     std::vector<ProfileSet>&& executed,
                     const sim::MachineConfig& cfg) const;

  private:
    std::shared_ptr<CampaignCache> cache_;
};

/** The in-process placement: campaigns fanned over a support::ThreadPool. */
class ThreadPoolBackend final : public ExecutionBackend {
  public:
    /**
     * @param threads  Campaign-level concurrency including the calling
     *                 thread; 0 = hardware concurrency, 1 = serial.
     */
    explicit ThreadPoolBackend(std::size_t threads = 0);

    const char* name() const override { return "thread-pool"; }

    std::vector<ProfileSet> execute(const std::vector<ScenarioSpec>& specs,
                                    const sim::MachineConfig& cfg) override;

  private:
    /** The classic fan-out, after the cache consult. */
    std::vector<ProfileSet> executeUncached(
        const std::vector<ScenarioSpec>& specs,
        const sim::MachineConfig& cfg);

    std::size_t threads_;
};

}  // namespace fingrav::core

#endif  // FINGRAV_FINGRAV_EXECUTION_BACKEND_HPP_
