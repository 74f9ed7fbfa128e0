/**
 * @file
 * CampaignCache durability contract under adversarial store states.
 *
 * The property every test attacks: a lookup NEVER surfaces an error and
 * NEVER returns data that is not bit-identical to re-executing the
 * campaign.  Truncations at every boundary, a bit flip at EVERY byte of
 * a blob, foreign codec versions, foreign frame types, misaddressed
 * blobs, concurrent writers and unwritable stores must all degrade to a
 * silent miss — counted in stats() — after which re-execution repairs
 * the store in place.
 *
 * The worker binary / CLI is the real fingrav_cli, resolved via the
 * FINGRAV_CLI_PATH compile definition (CMakeLists.txt).
 */

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>

#include <gtest/gtest.h>

#include "fingrav/campaign_cache.hpp"
#include "fingrav/campaign_runner.hpp"
#include "fingrav/codec.hpp"
#include "support/logging.hpp"
#include "tests/test_fixtures.hpp"

#ifndef FINGRAV_CLI_PATH
#error "FINGRAV_CLI_PATH must point at the fingrav_cli binary"
#endif

namespace fc = fingrav::core;
namespace fs = fingrav::support;

namespace {

using fingrav::testing::TempDir;

/** Two cheap scenarios: enough to distinguish addresses and contents. */
std::vector<fc::ScenarioSpec>
faultSpecs()
{
    auto specs = fingrav::testing::fig10Specs(3, false);
    specs.resize(2);
    return specs;
}

std::vector<std::uint8_t>
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                     std::istreambuf_iterator<char>());
}

void
writeFile(const std::string& path, const std::vector<std::uint8_t>& bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

/** Execute the specs once through a cache over `dir`, populating it. */
std::vector<fc::ProfileSet>
populate(const std::string& dir, const std::vector<fc::ScenarioSpec>& specs)
{
    fc::CacheOptions copts;
    copts.dir = dir;
    const fc::CampaignRunner runner(1);
    runner.attachCache(std::make_shared<fc::CampaignCache>(copts));
    return runner.run(specs);
}

/** A fresh cache instance over `dir` (no memory-tier carry-over). */
fc::CampaignCache
freshCache(const std::string& dir)
{
    fc::CacheOptions copts;
    copts.dir = dir;
    return fc::CampaignCache(copts);
}

}  // namespace

TEST(CacheFault, TruncationAtEveryBoundaryIsASilentMiss)
{
    const auto specs = faultSpecs();
    const auto cfg = fingrav::sim::mi300xConfig();
    TempDir dir("fingrav_fault");
    const auto reference = populate(dir.path(), specs);

    const auto& spec = specs.front();
    const std::string path = fc::CampaignCache::entryPath(
        dir.path(), fc::CampaignCache::key(spec, cfg));
    const auto intact = readFile(path);
    ASSERT_GT(intact.size(), fc::codec::kFrameHeaderBytes);

    const std::vector<std::size_t> cuts{
        0, 1, fc::codec::kFrameHeaderBytes - 1, fc::codec::kFrameHeaderBytes,
        fc::codec::kFrameHeaderBytes + (intact.size() -
                                        fc::codec::kFrameHeaderBytes) / 2,
        intact.size() - 1};
    auto cache = freshCache(dir.path());
    std::uint64_t expected_corrupt = 0;
    for (const std::size_t cut : cuts) {
        writeFile(path, std::vector<std::uint8_t>(intact.begin(),
                                                  intact.begin() + cut));
        EXPECT_FALSE(cache.lookup(spec, cfg).has_value())
            << "truncated at " << cut << " of " << intact.size();
        ++expected_corrupt;
        EXPECT_EQ(cache.stats().corrupt_misses, expected_corrupt);
    }

    // Re-execution repairs the blob in place; the repaired entry then
    // hits and is bit-identical.
    const auto repaired = populate(dir.path(), specs);
    ASSERT_EQ(repaired.size(), reference.size());
    EXPECT_TRUE(fc::identicalProfileSets(repaired.front(),
                                         reference.front()));
    auto after = freshCache(dir.path());
    const auto hit = after.lookup(spec, cfg);
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(fc::identicalProfileSets(*hit, reference.front()));
    EXPECT_EQ(fc::CampaignCache::scanDir(dir.path()).corrupt_entries, 0u);
}

TEST(CacheFault, BitFlipAtEveryByteIsRejected)
{
    // The exhaustive frame-level gate: flipping ANY single byte of a
    // blob — header, length, checksum, key, payload — must yield a
    // silent counted miss.  (The payload-level canonical-codec version
    // of this property lives in property_test.cpp.)
    const auto specs = faultSpecs();
    const auto cfg = fingrav::sim::mi300xConfig();
    TempDir dir("fingrav_fault");
    populate(dir.path(), specs);

    const auto& spec = specs.front();
    const std::string path = fc::CampaignCache::entryPath(
        dir.path(), fc::CampaignCache::key(spec, cfg));
    const auto intact = readFile(path);
    ASSERT_FALSE(intact.empty());

    auto cache = freshCache(dir.path());
    std::uint64_t flips = 0;
    for (std::size_t pos = 0; pos < intact.size(); ++pos) {
        auto mutated = intact;
        mutated[pos] ^= 0xFF;
        writeFile(path, mutated);
        const auto hit = cache.lookup(spec, cfg);
        EXPECT_FALSE(hit.has_value()) << "byte " << pos << " flip served";
        ++flips;
    }
    const auto stats = cache.stats();
    EXPECT_EQ(stats.corrupt_misses, flips);
    EXPECT_EQ(stats.disk_hits, 0u);

    // Restore and verify the cache recovers without any reset.
    writeFile(path, intact);
    EXPECT_TRUE(cache.lookup(spec, cfg).has_value());
}

TEST(CacheFault, ForeignVersionAndForeignTypeAreMisses)
{
    // A frame whose checksum is intact but whose version (or type) is
    // foreign must be treated as a miss — this is how a kVersion bump
    // structurally expires every stale blob.
    const auto specs = faultSpecs();
    const auto cfg = fingrav::sim::mi300xConfig();
    TempDir dir("fingrav_fault");
    populate(dir.path(), specs);

    const auto& spec = specs.front();
    const std::string path = fc::CampaignCache::entryPath(
        dir.path(), fc::CampaignCache::key(spec, cfg));
    const auto intact = readFile(path);
    ASSERT_GT(intact.size(), fc::codec::kFrameHeaderBytes);
    // Header layout: magic[0..3] version[4..5] type[6..7] (little-endian).
    ASSERT_EQ(intact[4], fc::codec::kVersion & 0xFF);
    ASSERT_EQ(intact[5], (fc::codec::kVersion >> 8) & 0xFF);

    auto future = intact;
    future[4] = static_cast<std::uint8_t>((fc::codec::kVersion + 1) & 0xFF);
    writeFile(path, future);
    auto cache = freshCache(dir.path());
    EXPECT_FALSE(cache.lookup(spec, cfg).has_value());
    EXPECT_EQ(cache.stats().corrupt_misses, 1u);

    // A valid frame of the wrong type (a bare profile-set masquerading at
    // a cache address) is equally a miss.
    auto foreign_type = intact;
    foreign_type[6] = static_cast<std::uint8_t>(
        fc::codec::FrameType::kProfileSet);
    writeFile(path, foreign_type);
    EXPECT_FALSE(cache.lookup(spec, cfg).has_value());
    EXPECT_EQ(cache.stats().corrupt_misses, 2u);

    const auto scan = fc::CampaignCache::scanDir(dir.path());
    EXPECT_EQ(scan.corrupt_entries, 1u);
    EXPECT_EQ(scan.valid_entries, specs.size() - 1);
}

TEST(CacheFault, MisaddressedBlobIsAMiss)
{
    // A bit-perfect blob copied to another key's address carries the
    // wrong key bytes: serving it would violate bit-identity, so the
    // key comparison must reject it (the hash-collision defence).
    const auto specs = faultSpecs();
    const auto cfg = fingrav::sim::mi300xConfig();
    TempDir dir("fingrav_fault");
    const auto reference = populate(dir.path(), specs);

    const std::string path_a = fc::CampaignCache::entryPath(
        dir.path(), fc::CampaignCache::key(specs[0], cfg));
    const std::string path_b = fc::CampaignCache::entryPath(
        dir.path(), fc::CampaignCache::key(specs[1], cfg));
    writeFile(path_b, readFile(path_a));

    auto cache = freshCache(dir.path());
    // The untouched entry still hits; the foreign one must not serve
    // spec A's results as spec B's.
    const auto hit_a = cache.lookup(specs[0], cfg);
    ASSERT_TRUE(hit_a.has_value());
    EXPECT_TRUE(fc::identicalProfileSets(*hit_a, reference[0]));
    EXPECT_FALSE(cache.lookup(specs[1], cfg).has_value());
    EXPECT_EQ(cache.stats().corrupt_misses, 1u);

    // scanDir revalidates addresses too: the copied blob is flagged.
    const auto scan = fc::CampaignCache::scanDir(dir.path());
    EXPECT_EQ(scan.entries, 2u);
    EXPECT_EQ(scan.valid_entries, 1u);
    EXPECT_EQ(scan.corrupt_entries, 1u);
}

TEST(CacheFault, ConcurrentWritersNeverExposePartialState)
{
    // Many caches (standing in for worker processes on one store)
    // hammering the same entries while readers poll: every hit must be
    // bit-identical, nothing may throw, and the store must end fully
    // valid with no leaked temp files.
    const auto specs = faultSpecs();
    const auto cfg = fingrav::sim::mi300xConfig();
    std::vector<fc::ProfileSet> reference;
    for (const auto& spec : specs)
        reference.push_back(fc::CampaignRunner::runOne(spec, cfg));

    TempDir dir("fingrav_fault");
    constexpr int kWriters = 4;
    constexpr int kRounds = 25;
    std::vector<std::thread> threads;
    std::vector<std::string> errors(kWriters);
    for (int t = 0; t < kWriters; ++t) {
        threads.emplace_back([&, t] {
            try {
                auto cache = freshCache(dir.path());
                for (int round = 0; round < kRounds; ++round) {
                    for (std::size_t i = 0; i < specs.size(); ++i) {
                        cache.store(specs[i], cfg, reference[i]);
                        if (const auto hit = cache.lookup(specs[i], cfg)) {
                            if (!fc::identicalProfileSets(*hit,
                                                          reference[i]))
                                errors[t] = "non-identical hit served";
                        }
                    }
                }
            } catch (const std::exception& e) {
                errors[t] = e.what();
            }
        });
    }
    for (auto& thread : threads)
        thread.join();
    for (int t = 0; t < kWriters; ++t)
        EXPECT_EQ(errors[t], "") << "writer " << t;

    const auto scan = fc::CampaignCache::scanDir(dir.path());
    EXPECT_EQ(scan.entries, specs.size());
    EXPECT_EQ(scan.valid_entries, specs.size());
    EXPECT_EQ(scan.corrupt_entries, 0u);
    EXPECT_EQ(scan.temp_files, 0u);
}

TEST(CacheFault, StaleTempFilesAreInertAndCounted)
{
    // A crashed writer's leftover temp must never be read as an entry —
    // and the scan reports it so operators can sweep.
    const auto specs = faultSpecs();
    const auto cfg = fingrav::sim::mi300xConfig();
    TempDir dir("fingrav_fault");
    const auto reference = populate(dir.path(), specs);

    const std::string path = fc::CampaignCache::entryPath(
        dir.path(), fc::CampaignCache::key(specs[0], cfg));
    writeFile(path + ".tmp.99999.0", {0xDE, 0xAD, 0xBE, 0xEF});

    auto cache = freshCache(dir.path());
    const auto hit = cache.lookup(specs[0], cfg);
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(fc::identicalProfileSets(*hit, reference[0]));
    EXPECT_EQ(cache.stats().corrupt_misses, 0u);

    const auto scan = fc::CampaignCache::scanDir(dir.path());
    EXPECT_EQ(scan.entries, specs.size());
    EXPECT_EQ(scan.valid_entries, specs.size());
    EXPECT_EQ(scan.temp_files, 1u);
}

TEST(CacheFault, UnwritableStoreDegradesToMemoryTier)
{
    // Pointing the store at a path occupied by a regular file makes
    // every disk write fail: stores must stay silent (counted), lookups
    // must remain correct via the memory tier.
    const auto specs = faultSpecs();
    const auto cfg = fingrav::sim::mi300xConfig();
    TempDir dir("fingrav_fault");
    const std::string blocker = dir.path() + "/not_a_directory";
    writeFile(blocker, {0x00});

    fc::CacheOptions copts;
    copts.dir = blocker;
    fc::CampaignCache cache(copts);
    const auto set = fc::CampaignRunner::runOne(specs[0], cfg);
    cache.store(specs[0], cfg, set);
    const auto stats = cache.stats();
    EXPECT_EQ(stats.stores, 1u);
    EXPECT_EQ(stats.store_failures, 1u);
    EXPECT_EQ(stats.disk_bytes_written, 0u);

    // The memory tier still serves; a fresh cache sees a plain miss.
    EXPECT_TRUE(cache.lookup(specs[0], cfg).has_value());
    auto other = freshCache(blocker);
    EXPECT_FALSE(other.lookup(specs[0], cfg).has_value());
    EXPECT_EQ(other.stats().corrupt_misses, 0u);
}

TEST(CacheFault, CliCacheStatsSurveysACorruptedStore)
{
    // End to end through the CLI: `cache stats` must report the same
    // corruption the library sees, and exit cleanly.
    const auto specs = faultSpecs();
    const auto cfg = fingrav::sim::mi300xConfig();
    TempDir dir("fingrav_fault");
    populate(dir.path(), specs);

    const std::string path = fc::CampaignCache::entryPath(
        dir.path(), fc::CampaignCache::key(specs[0], cfg));
    auto bytes = readFile(path);
    bytes[bytes.size() / 2] ^= 0x01;
    writeFile(path, bytes);

    const std::string cmd = std::string(FINGRAV_CLI_PATH) +
                            " cache stats --cache-dir " + dir.path() +
                            " 2>&1";
    FILE* pipe = ::popen(cmd.c_str(), "r");
    ASSERT_NE(pipe, nullptr);
    std::string output;
    char buffer[256];
    while (std::fgets(buffer, sizeof buffer, pipe) != nullptr)
        output += buffer;
    const int status = ::pclose(pipe);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
    EXPECT_NE(output.find("entries        : 2"), std::string::npos)
        << output;
    EXPECT_NE(output.find("valid entries  : 1"), std::string::npos)
        << output;
    EXPECT_NE(output.find("corrupt entries: 1"), std::string::npos)
        << output;
}
