/**
 * @file
 * The journaled verdict cache (serve/cache): LRU semantics,
 * crash-safe persistence (torn tails dropped, intact prefix
 * replayed), compaction, memory-only demotion on append failure,
 * and the canonical-fingerprint key.
 */

#include <gtest/gtest.h>

#include <malloc.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "base/faultinject.hh"
#include "exec/engine_config.hh"
#include "litmus/parser.hh"
#include "serve/cache.hh"

// Sanitizer allocators bypass glibc malloc, so mallinfo2() does not
// see their heap.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define LKMM_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define LKMM_SANITIZED 1
#endif
#endif

namespace lkmm::serve
{
namespace
{

std::string
journalPath(const std::string &name)
{
    const std::string path =
        ::testing::TempDir() + "serve_cache_test_" + name + ".jsonl";
    std::remove(path.c_str());
    return path;
}

/** A result object's canonical text, as the cache stores it. */
std::string
result(const std::string &test, const std::string &verdict)
{
    json::Object o;
    o["test"] = json::Value(test);
    o["verdict"] = json::Value(verdict);
    return json::Value(std::move(o)).serialize();
}

std::string
engineJson(const EngineConfig &engine)
{
    return json::Value(engine.toJson()).serialize();
}

TEST(VerdictCache, LruHitMissAndEviction)
{
    CacheOptions opts;
    opts.maxEntries = 2;
    VerdictCache cache(opts);

    EXPECT_FALSE(cache.lookup("a").has_value());
    cache.insert("a", result("a", "Allow"));
    cache.insert("b", result("b", "Forbid"));
    // Touch "a" so "b" is the LRU victim when "c" arrives.
    EXPECT_TRUE(cache.lookup("a").has_value());
    cache.insert("c", result("c", "Allow"));

    EXPECT_TRUE(cache.lookup("a").has_value());
    EXPECT_TRUE(cache.lookup("c").has_value());
    EXPECT_FALSE(cache.lookup("b").has_value()) << "LRU victim";

    const CacheStats s = cache.stats();
    EXPECT_EQ(s.insertions, 3u);
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.hits, 3u);
    EXPECT_EQ(s.misses, 2u);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(VerdictCache, ReinsertRefreshesInsteadOfDuplicating)
{
    VerdictCache cache(CacheOptions{});
    cache.insert("k", result("k", "Allow"));
    cache.insert("k", result("k", "Allow"));
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.stats().insertions, 1u);
}

TEST(VerdictCache, PersistsAcrossReopenByteIdentically)
{
    CacheOptions opts;
    opts.path = journalPath("persist");
    const std::string stored = result("MP", "Allow");
    {
        VerdictCache cache(opts);
        cache.insert("key1", stored);
        cache.insert("key2", result("SB", "Forbid"));
        cache.close();
    }
    VerdictCache warm(opts);
    EXPECT_EQ(warm.stats().recoveredEntries, 2u);
    EXPECT_FALSE(warm.stats().droppedTail);
    const auto hit = warm.lookup("key1");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, stored)
        << "replayed result must be byte-identical";
}

TEST(VerdictCache, TornTailIsDroppedIntactPrefixSurvives)
{
    CacheOptions opts;
    opts.path = journalPath("torn");
    {
        VerdictCache cache(opts);
        cache.insert("key1", result("MP", "Allow"));
        cache.insert("key2", result("SB", "Forbid"));
        cache.close();
    }
    {
        // A kill -9 mid-append leaves a half-written record.
        std::ofstream torn(opts.path, std::ios::app);
        torn << "{\"crc\":\"dead";
    }
    VerdictCache warm(opts);
    EXPECT_EQ(warm.stats().recoveredEntries, 2u);
    EXPECT_TRUE(warm.stats().droppedTail);
    EXPECT_TRUE(warm.lookup("key1").has_value());
    EXPECT_TRUE(warm.lookup("key2").has_value());

    // The reopened journal must have healed: appending after the
    // torn tail and reopening again keeps every record.
    warm.insert("key3", result("LB", "Allow"));
    warm.close();
    VerdictCache again(opts);
    EXPECT_EQ(again.stats().recoveredEntries, 3u);
    EXPECT_FALSE(again.stats().droppedTail);
}

TEST(VerdictCache, CompactionKeepsLiveEntriesAndShrinksJournal)
{
    CacheOptions opts;
    opts.path = journalPath("compact");
    opts.maxEntries = 2;
    VerdictCache cache(opts);
    // Six inserts journal six records but only two stay live.
    for (int i = 0; i < 6; ++i) {
        const std::string key = "key" + std::to_string(i);
        cache.insert(key, result(key, "Allow"));
    }
    const std::uint64_t before = cache.journalBytes();
    cache.compactNow();
    EXPECT_LT(cache.journalBytes(), before);
    EXPECT_EQ(cache.stats().compactions, 1u);
    cache.close();

    VerdictCache warm(opts);
    EXPECT_EQ(warm.stats().recoveredEntries, 2u);
    EXPECT_TRUE(warm.lookup("key4").has_value());
    EXPECT_TRUE(warm.lookup("key5").has_value());
    EXPECT_FALSE(warm.lookup("key0").has_value());
}

TEST(VerdictCache, AutoCompactsPastThreshold)
{
    CacheOptions opts;
    opts.path = journalPath("autocompact");
    opts.maxEntries = 1;
    opts.compactBytes = 1;  // every insert crosses the threshold
    VerdictCache cache(opts);
    cache.insert("a", result("a", "Allow"));
    cache.insert("b", result("b", "Allow"));
    EXPECT_GE(cache.stats().compactions, 1u);
    cache.close();
    VerdictCache warm(opts);
    EXPECT_EQ(warm.stats().recoveredEntries, 1u);
    EXPECT_TRUE(warm.lookup("b").has_value());
}

TEST(VerdictCache, AppendFailureDemotesToMemoryOnly)
{
    CacheOptions opts;
    opts.path = journalPath("demote");
    VerdictCache cache(opts);
    faultinject::setPlan(
        faultinject::FaultPlan::parse("serve-cache-write:1:error"));
    cache.insert("a", result("a", "Allow"));
    EXPECT_TRUE(faultinject::planFired());
    faultinject::clearPlan();

    // The request-path contract: the insert itself is absorbed...
    EXPECT_EQ(cache.stats().writeErrors, 1u);
    EXPECT_TRUE(cache.lookup("a").has_value()) << "in-memory survives";
    // ...and durability is off for good (appending past a possibly
    // torn record would strand everything behind it).
    cache.insert("b", result("b", "Allow"));
    cache.close();
    VerdictCache cold(opts);
    EXPECT_EQ(cold.stats().recoveredEntries, 0u);
}

/** Live heap bytes per glibc, mmapped chunks included. */
std::size_t
liveHeapBytes()
{
    const struct mallinfo2 mi = mallinfo2();
    return mi.uordblks + mi.hblkhd;
}

TEST(VerdictCache, FootprintPerEntryIsBounded)
{
#ifdef LKMM_SANITIZED
    GTEST_SKIP() << "sanitizer allocators bypass mallinfo2";
#else
    // Entries shaped like lkmm-serve misses on fresh diy tests (on
    // average a 374-byte key and a 260-byte result): a renamed
    // test's fingerprint under the default engine, and a complete
    // verdict with its final states.
    const Program base = parseLitmus(
        "C MP+pooncerelease+poacquireonce\n\n"
        "{ x=0; y=0; }\n\n"
        "P0(int *x, int *y) {\n  WRITE_ONCE(*x, 1);\n"
        "  smp_store_release(y, 1);\n}\n\n"
        "P1(int *x, int *y) {\n  int r0 = smp_load_acquire(y);\n"
        "  int r1 = READ_ONCE(*x);\n}\n\n"
        "exists (1:r0=1 /\\ 1:r1=0)\n");
    const std::string engine = engineJson(EngineConfig{});
    constexpr std::size_t kEntries = 5000;
    std::vector<std::string> keys;
    std::vector<std::string> results;
    std::size_t contentBytes = 0;
    for (std::size_t i = 0; i < kEntries; ++i) {
        Program p = base;
        p.name += "-fresh" + std::to_string(i);
        keys.push_back(
            cacheKey(canonicalFingerprint(p, ""), "lkmm", engine));
        json::Object r;
        r["test"] = p.name;
        r["model"] = "lkmm";
        r["verdict"] = "Forbid";
        r["completeness"] = "complete";
        r["bound"] = "none";
        r["candidates"] = 4;
        r["allowed"] = 3;
        r["witnesses"] = 0;
        r["states"] = json::stringArray(
            {"1:r0=0; 1:r1=0;", "1:r0=0; 1:r1=1;", "1:r0=1; 1:r1=1;"});
        results.push_back(json::Value(std::move(r)).serialize());
        contentBytes += keys.back().size() + results.back().size();
    }

    VerdictCache cache(CacheOptions{});
    const std::size_t before = liveHeapBytes();
    for (std::size_t i = 0; i < kEntries; ++i)
        cache.insert(keys[i], results[i]);
    const std::size_t after = liveHeapBytes();
    ASSERT_EQ(cache.size(), kEntries);

    const double perEntry =
        static_cast<double>(after - before) / kEntries;
    const double content =
        static_cast<double>(contentBytes) / kEntries;
    EXPECT_LE(perEntry, 2 * content)
        << perEntry << " heap bytes per entry for " << content
        << " bytes of key and result";
#endif
}

TEST(CacheKey, FingerprintNormalizesSpellingModelSplitsKeys)
{
    const char *kSpaced = "C MP\n\n{ x=0; y=0; }\n\n"
                          "P0(int *x, int *y) {\n"
                          "  WRITE_ONCE(*x, 1);\n"
                          "  WRITE_ONCE(*y, 1);\n}\n\n"
                          "P1(int *x, int *y) {\n"
                          "  int r0 = READ_ONCE(*y);\n"
                          "  int r1 = READ_ONCE(*x);\n}\n\n"
                          "exists (1:r0=1 /\\ 1:r1=0)\n";
    const char *kCramped = "C MP\n{x=0;y=0;}\n"
                           "P0(int *x, int *y) {\n"
                           "WRITE_ONCE(*x, 1);\n"
                           "WRITE_ONCE(*y, 1);\n}\n"
                           "P1(int *x, int *y) {\n"
                           "int r0 = READ_ONCE(*y);\n"
                           "int r1 = READ_ONCE(*x);\n}\n"
                           "exists (1:r0=1 /\\ 1:r1=0)\n";
    const Program a = parseLitmus(kSpaced);
    const Program b = parseLitmus(kCramped);
    EXPECT_EQ(canonicalFingerprint(a, kSpaced),
              canonicalFingerprint(b, kCramped))
        << "whitespace must not split cache entries";

    const std::string fp = canonicalFingerprint(a, kSpaced);
    const std::string engine = engineJson(EngineConfig{});
    EXPECT_EQ(cacheKey(fp, "lkmm", engine),
              cacheKey(fp, "lkmm", engine));
    EXPECT_NE(cacheKey(fp, "lkmm", engine),
              cacheKey(fp, "sc", engine))
        << "same test under another model is another entry";
}

TEST(CacheKey, ConcatenatedKeyMatchesObjectSerialization)
{
    const std::string mp = canonicalFingerprint(
        parseLitmus("C MP\n{ x=0; y=0; }\n"
                    "P0(int *x, int *y) {\n"
                    "  WRITE_ONCE(*x, 1);\n"
                    "  WRITE_ONCE(*y, 1);\n}\n"
                    "P1(int *x, int *y) {\n"
                    "  int r0 = READ_ONCE(*y);\n"
                    "  int r1 = READ_ONCE(*x);\n}\n"
                    "exists (1:r0=1 /\\ 1:r1=0)\n"),
        "");
    const std::vector<std::string> fingerprints = {
        mp, "", "raw \"source\" with \\ and \x01\t\x1f bytes",
        "non-ASCII \xc3\xa9 \xff"};
    const std::vector<std::string> specs = {
        "lkmm", "sc", "cat:cat/models/lkmm.cat",
        "cat:dir with \"quote\"\\back\x02.cat", ""};
    std::vector<EngineConfig> engines(4);
    engines[1].setMode("brute");
    engines[2].budget.wallClock = std::chrono::milliseconds(1500);
    engines[2].budget.maxCandidates = 1000;
    engines[3].budget.maxRfAssignments = 77;
    engines[3].setMode("brute");

    for (const std::string &fp : fingerprints) {
        for (const std::string &spec : specs) {
            for (const EngineConfig &engine : engines) {
                // The key as a json::Object, before concatenation.
                json::Object object;
                object["fp"] = fp;
                object["model"] = spec;
                object["engine"] = engine.toJson();
                EXPECT_EQ(cacheKey(fp, spec, engineJson(engine)),
                          json::Value(std::move(object)).serialize())
                    << spec << " / " << engine.modeName();
            }
        }
    }
}

TEST(CacheKey, RetiredEngineKeysReplayButNeverMatch)
{
    // A journal written when "incremental" was the default engine:
    // its keys still replay, they just never match a new request.
    const std::string fp = canonicalFingerprint(
        parseLitmus("C MP\n{ x=0; y=0; }\n"
                    "P0(int *x, int *y) {\n"
                    "  WRITE_ONCE(*x, 1);\n"
                    "  WRITE_ONCE(*y, 1);\n}\n"
                    "P1(int *x, int *y) {\n"
                    "  int r0 = READ_ONCE(*y);\n"
                    "  int r1 = READ_ONCE(*x);\n}\n"
                    "exists (1:r0=1 /\\ 1:r1=0)\n"),
        "");
    const std::string key =
        cacheKey(fp, "lkmm", engineJson(EngineConfig{}));
    const std::string current = "\"engine\":\"rf-first\"";
    const std::size_t at = key.find(current);
    ASSERT_NE(at, std::string::npos) << key;
    std::string oldKey = key;
    oldKey.replace(at, current.size(), "\"engine\":\"incremental\"");

    CacheOptions opts;
    opts.path = journalPath("retired-engine");
    {
        VerdictCache cache(opts);
        cache.insert(oldKey, result("MP", "Allow"));
        cache.close();
    }
    VerdictCache warm(opts);
    EXPECT_EQ(warm.stats().recoveredEntries, 1u);
    EXPECT_FALSE(warm.stats().droppedTail);
    EXPECT_FALSE(warm.lookup(key).has_value());
    EXPECT_TRUE(warm.lookup(oldKey).has_value());
}

} // namespace
} // namespace lkmm::serve
