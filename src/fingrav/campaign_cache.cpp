#include "fingrav/campaign_cache.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <utility>
#include <vector>

#include <unistd.h>

#include "fingrav/codec.hpp"
#include "support/logging.hpp"

namespace fingrav::core {

namespace fscodec = fingrav::core::codec;
namespace stdfs = std::filesystem;

namespace {

/** A whole file in one buffer, which only the read writes. */
struct FileBytes {
    std::unique_ptr<std::uint8_t[]> data;
    std::size_t size = 0;
};

/** Read a whole file with one read sized from its length; nullopt when
 *  it cannot be opened or read. */
std::optional<FileBytes>
readAll(const std::string& path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        return std::nullopt;
    const std::streamsize size = in.tellg();
    if (size < 0 || !in.seekg(0))
        return std::nullopt;
    FileBytes bytes{std::make_unique_for_overwrite<std::uint8_t[]>(
                        static_cast<std::size_t>(size)),
                    static_cast<std::size_t>(size)};
    if (!in.read(reinterpret_cast<char*>(bytes.data.get()), size))
        return std::nullopt;
    return bytes;
}

/**
 * Decode one on-disk blob back to its (key bytes, ProfileSet) entry,
 * validating and decoding the frame in place in `bytes`.  Throws
 * support::FatalError on ANY inconsistency — truncation, bit flip
 * (checksum), foreign version, wrong frame type, trailing bytes — which
 * callers translate into a miss.
 */
fscodec::CacheEntry
decodeEntry(const FileBytes& bytes)
{
    const auto frame = fscodec::parseFrame({bytes.data.get(), bytes.size});
    if (frame.type != fscodec::FrameType::kCacheEntry) {
        support::fatal("campaign cache: blob holds a ",
                       fscodec::toString(frame.type),
                       " frame, not a cache entry");
    }
    return fscodec::decode<fscodec::CacheEntry>(frame.payload);
}

}  // namespace

CampaignCache::CampaignCache(CacheOptions opts)
    : opts_(std::move(opts)), injector_(opts_.fault_plan)
{
}

std::string
CampaignCache::key(const ScenarioSpec& spec, const sim::MachineConfig& cfg)
{
    return fscodec::cacheKey(spec, cfg);
}

std::uint64_t
CampaignCache::keyHash(const std::string& key)
{
    return fscodec::fnv1a64(
        reinterpret_cast<const std::uint8_t*>(key.data()), key.size());
}

std::string
CampaignCache::entryPath(const std::string& dir, const std::string& key)
{
    char name[32];
    std::snprintf(name, sizeof name, "%016llx.fgc",
                  static_cast<unsigned long long>(keyHash(key)));
    return (stdfs::path(dir) / name).string();
}

std::optional<ProfileSet>
CampaignCache::lookup(const ScenarioSpec& spec, const sim::MachineConfig& cfg)
{
    const std::string k = key(spec, cfg);

    {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = index_.find(k);
        if (it != index_.end()) {
            lru_.splice(lru_.begin(), lru_, it->second);
            ++stats_.memory_hits;
            return it->second->set;
        }
    }

    if (opts_.dir.empty()) {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.misses;
        return std::nullopt;
    }

    // Disk tier.  Everything from here on is adversarial territory: the
    // blob may be truncated, bit-flipped, written by a foreign codec
    // version, or a hash-colliding stranger.  All of it is a miss.
    const auto bytes = readAll(entryPath(opts_.dir, k));
    if (!bytes.has_value()) {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.misses;
        return std::nullopt;
    }
    try {
        auto [stored_key, set] = decodeEntry(*bytes);
        if (stored_key != k) {
            // A valid blob for different content (hash collision or a
            // foreign file): serving it would violate bit-identity.
            support::fatal("campaign cache: blob key does not match "
                           "the probed content key");
        }
        memoryInsert(k, set, bytes->size);
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.disk_hits;
        stats_.disk_bytes_read += bytes->size;
        return std::move(set);
    } catch (const std::exception& e) {
        // The caller simply re-executes and the subsequent store
        // overwrites the bad blob — never an error to the caller, but
        // never silent either: the rejection is journaled.
        journal_.record(support::DegradeKind::kCacheCorruptionMiss,
                        "blob rejected (", e.what(), "); re-executing");
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.misses;
        ++stats_.corrupt_misses;
        return std::nullopt;
    }
}

void
CampaignCache::store(const ScenarioSpec& spec, const sim::MachineConfig& cfg,
                     const ProfileSet& set)
{
    const std::string k = key(spec, cfg);
    const fscodec::CacheEntryView entry{k, set};
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.stores;
    }
    if (opts_.dir.empty()) {
        // No blob is written, so none is encoded: the weight is the size
        // the blob would have, counted.
        memoryInsert(k, set,
                     fscodec::kFrameHeaderBytes + fscodec::encodedSize(entry));
        return;
    }
    const auto payload = fscodec::encode(entry);
    const auto header =
        fscodec::encodeFrameHeader(fscodec::FrameType::kCacheEntry, payload);
    const std::size_t blob_bytes = header.size() + payload.size();
    memoryInsert(k, set, blob_bytes);

    // Atomic publication: write a process-unique temp sibling, then
    // rename onto the final name.  Readers either see the previous blob
    // or the complete new one, never a partial write — the property the
    // concurrent-writer fault test leans on.
    auto fail = [&](const char* cause) {
        journal_.record(support::DegradeKind::kCacheStoreFailure,
                        "store write failed (", cause,
                        "); disk tier skipped for this entry");
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.store_failures;
    };
    std::error_code ec;
    stdfs::create_directories(opts_.dir, ec);  // best effort
    const std::string path = entryPath(opts_.dir, k);
    static std::atomic<std::uint64_t> temp_seq{0};
    const std::string temp =
        path + ".tmp." + std::to_string(::getpid()) + "." +
        std::to_string(temp_seq.fetch_add(1, std::memory_order_relaxed));
    // The first `n` bytes of the blob, header then payload, written
    // straight from both buffers.
    const auto writeBlob = [&](std::ofstream& out, std::size_t n) {
        const std::size_t from_header = std::min(n, header.size());
        out.write(reinterpret_cast<const char*>(header.data()),
                  static_cast<std::streamsize>(from_header));
        out.write(reinterpret_cast<const char*>(payload.data()),
                  static_cast<std::streamsize>(n - from_header));
    };
    {
        std::ofstream out(temp, std::ios::binary | std::ios::trunc);
        if (!out) {
            fail("cannot open temp file");
            return;
        }
        // Injected ENOSPC-style short write: only part of the blob
        // reaches the temp file before the stream "fails".  The same
        // cleanup path a real full disk takes runs — the temp is
        // removed, nothing is published, the failure is counted and
        // journaled — so lookups can never see the partial blob.
        if (injector_.armed() && injector_.onStoreWrite()) {
            writeBlob(out, blob_bytes / 2);
            out.flush();
            out.close();
            stdfs::remove(temp, ec);
            fail("injected short write, ENOSPC-style");
            return;
        }
        writeBlob(out, blob_bytes);
        out.flush();
        if (!out) {
            out.close();
            stdfs::remove(temp, ec);
            fail("short write");
            return;
        }
    }
    stdfs::rename(temp, path, ec);
    if (ec) {
        stdfs::remove(temp, ec);
        fail("rename failed");
        return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    stats_.disk_bytes_written += blob_bytes;
}

CacheStats
CampaignCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    CacheStats out = stats_;
    out.memory_entries = lru_.size();
    out.memory_bytes = memory_bytes_;
    return out;
}

void
CampaignCache::memoryInsert(const std::string& key, const ProfileSet& set,
                            std::size_t weight)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (opts_.memory_capacity_bytes == 0)
        return;
    const auto it = index_.find(key);
    if (it != index_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second);
        memory_bytes_ -= it->second->weight;
        it->second->set = set;
        it->second->weight = weight;
        memory_bytes_ += weight;
    } else {
        lru_.push_front(Entry{key, set, weight});
        index_[key] = lru_.begin();
        memory_bytes_ += weight;
    }
    while (memory_bytes_ > opts_.memory_capacity_bytes && !lru_.empty()) {
        const Entry& victim = lru_.back();
        memory_bytes_ -= victim.weight;
        index_.erase(victim.key);
        lru_.pop_back();
        ++stats_.evictions;
    }
}

CacheDirScan
CampaignCache::scanDir(const std::string& dir)
{
    CacheDirScan scan;
    std::error_code ec;
    stdfs::directory_iterator it(dir, ec);
    if (ec)
        return scan;
    for (const auto& entry : it) {
        std::error_code sec;
        if (!entry.is_regular_file(sec))
            continue;
        const std::string name = entry.path().filename().string();
        if (name.find(".fgc.tmp.") != std::string::npos) {
            ++scan.temp_files;
            continue;
        }
        if (entry.path().extension() != ".fgc")
            continue;
        ++scan.entries;
        scan.bytes += entry.file_size(sec);
        const auto bytes = readAll(entry.path().string());
        if (!bytes.has_value()) {
            ++scan.corrupt_entries;
            continue;
        }
        try {
            const auto [key, set] = decodeEntry(*bytes);
            // The blob must also live at the address its key hashes to —
            // a renamed/copied foreign blob fails revalidation.
            if (stdfs::path(entryPath(dir, key)).filename() !=
                entry.path().filename())
                throw support::FatalError("misaddressed cache blob");
            ++scan.valid_entries;
        } catch (const std::exception&) {
            ++scan.corrupt_entries;
        }
    }
    return scan;
}

}  // namespace fingrav::core
