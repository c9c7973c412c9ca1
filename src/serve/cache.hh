/**
 * @file
 * The content-addressed verdict cache behind lkmm-serve.
 *
 * Repeat traffic is the daemon's reason to exist: an interactive
 * litmus-tweak loop re-checks near-identical tests, and a
 * herding-cats-scale campaign issues millions of queries with heavy
 * duplication.  The cache maps
 *
 *     key = canonical-serialized {engine, fp, model}
 *
 * to the canonical JSON text of the verdict result object the server
 * would have computed cold.  The fingerprint `fp` is the PR-3
 * printer fixpoint of the parsed program — printLitmus(parseLitmus(
 * src)) — so any two sources that parse to the same program share an
 * entry regardless of whitespace, comments, or register spelling
 * (unprintable programs fall back to their raw source and still cache
 * exact repeats).
 *
 * Entries are bytes, not json::Value trees: one node per entry holds
 * the key string and the result's serialize() text, and the hash
 * index keys a string_view into that node (list nodes never move),
 * so the key is stored once.  Everything built from an entry is
 * concatenation around those bytes — the hit reply, the journal
 * record {"key":K,"result":R} and its CRC line — and every piece is
 * canonical, so each equals what serializing the equivalent Value
 * would give: a cache hit is byte-identical to the cold response, and
 * each journal line is what journal::encodeLine(Value) writes for the
 * same record.
 * An entry of a 382-byte key and a 229-byte result (a small diy
 * test's verdict) takes about 805 bytes of live glibc heap on
 * x86-64; size --cache-max-entries from that.
 *
 * Persistence rides the CRC-journaled JSONL layer (base/journal):
 * each insert appends {"key":K,"result":R}; reopening replays the
 * longest intact prefix, so a daemon killed -9 mid-append restarts
 * warm minus at most the torn record.  Only Complete results are
 * ever inserted — an Unknown from a truncated run is a property of
 * that run's budget, not of the test, and must never be replayed as
 * an answer.
 *
 * Durability is strictly best-effort: a failed journal append
 * (injected or real) demotes the cache to memory-only for the rest
 * of the process rather than failing the request — continuing to
 * append after a torn record would strand every later record behind
 * the corruption, since recovery stops at the first bad line.
 *
 * A long-lived daemon compacts: when the journal grows past
 * CacheOptions::compactBytes, the live entries are rewritten
 * (oldest-first, so replay reproduces the LRU order) to a sibling
 * file that is renamed over the journal — same record format, same
 * CRC framing, atomically swapped.
 */

#ifndef LKMM_SERVE_CACHE_HH
#define LKMM_SERVE_CACHE_HH

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "base/journal.hh"
#include "litmus/program.hh"

namespace lkmm::serve
{

/**
 * The canonical fingerprint of a litmus source: the printer fixpoint
 * of its parsed program, or the raw source when the program has no
 * litmus-C spelling.
 */
std::string canonicalFingerprint(const Program &prog,
                                 const std::string &rawSource);

/**
 * The cache key: canonical JSON of every verdict-relevant input —
 * {"engine":E,"fp":F,"model":M} with the program fingerprint, the
 * model spec, and the engine config's own canonical JSON
 * (exec/engine_config.hh), built by concatenation.  `engineJson` is
 * json::Value(engine.toJson()).serialize(), which a server computes
 * once; EngineConfig serialization is deterministic, so equal
 * configs always share entries.
 */
std::string cacheKey(const std::string &fingerprint,
                     const std::string &modelSpec,
                     const std::string &engineJson);

struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t compactions = 0;
    /** Entries replayed from the journal at open. */
    std::uint64_t recoveredEntries = 0;
    /** Journal appends that failed (cache went memory-only). */
    std::uint64_t writeErrors = 0;
    /** Did recovery drop a torn/corrupt tail? */
    bool droppedTail = false;
};

struct CacheOptions
{
    /** Journal path; empty = memory-only cache. */
    std::string path;
    /** LRU capacity (0 = unbounded). */
    std::size_t maxEntries = 0;
    /** Compact when the journal exceeds this size (0 = never). */
    std::uint64_t compactBytes = 0;
    journal::Durability durability = journal::Durability::PageCache;
};

/**
 * A thread-safe LRU verdict cache with an optional crash-safe
 * journal.  All methods may be called concurrently.
 */
class VerdictCache
{
  public:
    /**
     * Open the cache, replaying the journal if one is configured.
     * @throws StatusError(IoError) when the journal path exists but
     *         cannot be read or reopened for append.
     */
    explicit VerdictCache(CacheOptions opts);
    ~VerdictCache();

    VerdictCache(const VerdictCache &) = delete;
    VerdictCache &operator=(const VerdictCache &) = delete;

    /**
     * The stored result's canonical JSON text for key, refreshing
     * its LRU position.
     */
    std::optional<std::string> lookup(const std::string &key);

    /**
     * Insert (or refresh) an entry.  `result` must be canonical JSON
     * (json::Value::serialize() text): it is stored, journaled and
     * replied verbatim.  Passes the serve-cache-write fault site;
     * journal failures are absorbed (see file comment), never
     * propagated to the caller.
     */
    void insert(const std::string &key, const std::string &result);

    /** fdatasync the journal (no-op for memory-only). */
    void flush();

    /** Flush and close the journal; the in-memory cache survives. */
    void close();

    /** Rewrite the journal to live entries only, atomically. */
    void compactNow();

    CacheStats stats() const;
    std::size_t size() const;
    std::uint64_t journalBytes() const;

  private:
    struct Entry
    {
        std::string key;
        /** Canonical JSON text of the result object. */
        std::string result;
    };
    using Lru = std::list<Entry>;

    /** Append one record; on failure demote to memory-only. Locked. */
    void appendLocked(const Entry &entry);
    void compactLocked();
    void evictLocked();

    mutable std::mutex mutex_;
    CacheOptions opts_;
    /** Front = most recently used.  Nodes never move, so index_
     *  keys view each node's own key string. */
    Lru lru_;
    std::unordered_map<std::string_view, Lru::iterator> index_;
    std::optional<journal::Writer> writer_;
    std::uint64_t journalBytes_ = 0;
    CacheStats stats_;
};

} // namespace lkmm::serve

#endif // LKMM_SERVE_CACHE_HH
