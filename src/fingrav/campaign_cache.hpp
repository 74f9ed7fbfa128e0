#ifndef FINGRAV_FINGRAV_CAMPAIGN_CACHE_HPP_
#define FINGRAV_FINGRAV_CAMPAIGN_CACHE_HPP_

/**
 * @file
 * Content-addressed campaign memoization: the fleet's cache layer.
 *
 * Guidance tables and ablation sweeps overwhelmingly re-profile
 * scenarios whose (ScenarioSpec, MachineConfig) inputs they have seen
 * before, and campaigns are pure functions of exactly those inputs plus
 * the codec schema version.  The wire codec (fingrav/codec.hpp) gives
 * every such pair a canonical byte string, so a campaign result is
 * content-addressable:
 *
 *     key  = canonical_bytes(codec::kVersion, ScenarioSpec, MachineConfig
 *                            with advance_threads = 1)
 *     hash = FNV-1a-64(key)
 *
 * CampaignCache maps that key to the resulting ProfileSet through two
 * tiers:
 *
 *  - a size-bounded in-memory LRU holding decoded ProfileSets (weighted
 *    by their canonical encoded size, so the bound tracks real payload
 *    volume, not entry counts);
 *
 *  - an optional on-disk store of codec-framed blobs,
 *    `<dir>/<hash:016x>.fgc`, each a kCacheEntry frame carrying the
 *    *full* key bytes plus the encoded ProfileSet.  Writes go to a
 *    process-unique temp file and are published by atomic rename, so
 *    concurrent writers (threads, worker processes, other machines on a
 *    shared filesystem) can never expose a half-written entry.
 *
 * Durability contract — the load-bearing property the fault-injection
 * suite (tests/cache_fault_test.cpp) attacks: a lookup NEVER surfaces an
 * error and NEVER returns a value that is not bit-identical to
 * re-executing the campaign.  Truncated files, bit flips, foreign codec
 * versions, key mismatches (hash collisions or foreign blobs) and
 * unreadable directories are all treated as a miss — counted in stats(),
 * the caller simply re-executes and the store overwrites the bad entry.
 * Invalidation is structural: the key embeds codec::kVersion, so the
 * kVersion bump discipline that guards the wire also expires every
 * cached result whose layout semantics changed.
 *
 * Specs carrying a custom profile_fn are not cacheable (a std::function
 * has no canonical bytes — the same reason they never cross the shard
 * wire); lookup()/store() ignore them, mirroring the backend contract.
 *
 * Thread safety: all members are safe to call concurrently; disk I/O is
 * performed outside the tier lock.
 */

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "fingrav/profiler.hpp"
#include "fingrav/scenario.hpp"
#include "sim/machine_config.hpp"
#include "support/fault_injector.hpp"
#include "support/run_journal.hpp"

namespace fingrav::core {

/** CampaignCache configuration. */
struct CacheOptions {
    /** On-disk store directory; empty = in-memory tier only.  Created
     *  (one level) on first store if absent. */
    std::string dir;

    /** In-memory LRU bound, in canonical-encoding bytes.  0 disables
     *  the memory tier (every hit re-reads the disk store). */
    std::size_t memory_capacity_bytes = 256u << 20;

    /** Scripted disk-tier faults (store-short actions fail store()
     *  writes ENOSPC-style at the real write site; see
     *  support/fault_injector.hpp).  Empty in production. */
    support::FaultPlan fault_plan;
};

/** What a cache observed since construction (monotonic counters) plus a
 *  snapshot of the memory tier.  All hits are bit-exact by contract. */
struct CacheStats {
    std::uint64_t memory_hits = 0;   ///< served from the LRU tier
    std::uint64_t disk_hits = 0;     ///< served from the on-disk store
    std::uint64_t misses = 0;        ///< absent everywhere (incl. corrupt)
    /** Of the misses: lookups that found a disk blob but rejected it
     *  (truncated, bit-flipped, foreign version, key mismatch).  The
     *  silent-fallback observable the fault suite asserts on. */
    std::uint64_t corrupt_misses = 0;
    std::uint64_t stores = 0;           ///< results inserted
    std::uint64_t store_failures = 0;   ///< disk writes that failed (silent)
    std::uint64_t evictions = 0;        ///< LRU entries displaced
    std::uint64_t uncacheable = 0;      ///< profile_fn specs bypassing us
    std::uint64_t disk_bytes_written = 0;
    std::uint64_t disk_bytes_read = 0;
    std::uint64_t memory_entries = 0;   ///< snapshot
    std::uint64_t memory_bytes = 0;     ///< snapshot (encoded-size weight)

    std::uint64_t hits() const { return memory_hits + disk_hits; }
    std::uint64_t lookups() const { return hits() + misses; }
};

/** One on-disk store surveyed by CampaignCache::scanDir (cache stats). */
struct CacheDirScan {
    std::uint64_t entries = 0;        ///< *.fgc blobs present
    std::uint64_t valid_entries = 0;  ///< blobs that fully revalidate
    std::uint64_t corrupt_entries = 0;
    std::uint64_t bytes = 0;          ///< total blob bytes
    std::uint64_t temp_files = 0;     ///< unpublished write-temp leftovers
};

/** Two-tier content-addressed (spec, config) -> ProfileSet cache. */
class CampaignCache {
  public:
    explicit CampaignCache(CacheOptions opts = {});

    /** False for specs carrying a profile_fn: no canonical bytes, no
     *  key, never cached (they bypass the wire for the same reason). */
    static bool cacheable(const ScenarioSpec& spec);

    /**
     * The canonical content key: codec version + ScenarioSpec +
     * MachineConfig, in canonical codec bytes, with the placement-only
     * advance_threads encoded as 1 so every thread count shares one key.
     * Fatal for uncacheable specs — callers gate on cacheable() first.
     */
    static std::string key(const ScenarioSpec& spec,
                           const sim::MachineConfig& cfg);

    /** FNV-1a-64 of the key bytes: the on-disk blob address. */
    static std::uint64_t keyHash(const std::string& key);

    /**
     * Look the scenario up in both tiers.  Returns the cached ProfileSet
     * — bit-identical to executing the spec — or nullopt on any miss
     * (absent, corrupt, foreign version, unreadable, uncacheable).
     * Never throws for any disk-store state.
     */
    std::optional<ProfileSet> lookup(const ScenarioSpec& spec,
                                     const sim::MachineConfig& cfg);

    /**
     * Insert an executed result into both tiers.  Disk failures (no
     * directory, no permission, disk full) are silent — the cache
     * degrades to its memory tier and the failure is counted.
     * Uncacheable specs are ignored.
     */
    void store(const ScenarioSpec& spec, const sim::MachineConfig& cfg,
               const ProfileSet& set);

    /** Counter snapshot (thread-safe). */
    CacheStats stats() const;

    /**
     * Every degradation since construction — corrupt blobs served as
     * misses, failed store writes — as typed events.  The counters in
     * stats() stay authoritative for totals; the journal carries the
     * per-event context backends fold into their own run journal so no
     * cache degradation stays silent (support/run_journal.hpp).
     */
    const support::RunJournal& journal() const { return journal_; }

    /** The options in force. */
    const CacheOptions& options() const { return opts_; }

    /**
     * Survey an on-disk store: blob count and bytes, how many blobs
     * revalidate end to end, and leftover write-temps.  Powers the CLI's
     * `cache stats`; never throws (a missing directory scans as empty).
     */
    static CacheDirScan scanDir(const std::string& dir);

    /** The blob path a key hashes to (tests, tooling). */
    static std::string entryPath(const std::string& dir,
                                 const std::string& key);

  private:
    struct Entry {
        std::string key;
        ProfileSet set;
        std::size_t weight = 0;  ///< canonical encoded payload size
    };

    /** Insert into the LRU (caller holds no lock). */
    void memoryInsert(const std::string& key, const ProfileSet& set,
                      std::size_t weight);

    CacheOptions opts_;
    support::FaultInjector injector_;
    support::RunJournal journal_;

    mutable std::mutex mu_;
    std::list<Entry> lru_;  ///< front = most recently used
    std::unordered_map<std::string, std::list<Entry>::iterator> index_;
    std::size_t memory_bytes_ = 0;
    CacheStats stats_;
};

}  // namespace fingrav::core

#endif  // FINGRAV_FINGRAV_CAMPAIGN_CACHE_HPP_
