#include "serve/cache.hh"

#include <cstdio>

#include "base/faultinject.hh"
#include "base/json.hh"
#include "base/status.hh"
#include "litmus/printer.hh"

namespace lkmm::serve
{

std::string
canonicalFingerprint(const Program &prog, const std::string &rawSource)
{
    if (std::optional<std::string> printed = tryPrintLitmus(prog))
        return *printed;
    return rawSource;
}

std::string
cacheKey(const std::string &fingerprint, const std::string &modelSpec,
         const std::string &engineJson)
{
    // The fields in canonical (sorted) order: engine < fp < model.
    std::string key;
    key.reserve(engineJson.size() + fingerprint.size() +
                modelSpec.size() + 32);
    key += "{\"engine\":";
    key += engineJson;
    key += ",\"fp\":";
    json::appendEscaped(key, fingerprint);
    key += ",\"model\":";
    json::appendEscaped(key, modelSpec);
    key += '}';
    return key;
}

namespace
{

/** The canonical journal record {"key":K,"result":R} of an entry. */
std::string
recordPayload(const std::string &key, const std::string &result)
{
    std::string record;
    record.reserve(key.size() + result.size() + 64);
    record += "{\"key\":";
    json::appendEscaped(record, key);
    record += ",\"result\":";
    record += result;
    record += '}';
    return record;
}

} // namespace

VerdictCache::VerdictCache(CacheOptions opts) : opts_(std::move(opts))
{
    if (opts_.path.empty())
        return;

    const journal::RecoverResult recovered =
        journal::recover(opts_.path);
    stats_.droppedTail = recovered.droppedTail;
    for (const json::Value &record : recovered.records) {
        const json::Value *key = record.get("key");
        const json::Value *result = record.get("result");
        if (!key || !key->isString() || !result)
            continue; // foreign record shape: ignore, don't reject
        // Copied, not moved, into the entry: a copy holds no spare
        // capacity from the serializer's growth.
        const std::string text = result->serialize();
        auto it = index_.find(key->asString());
        if (it != index_.end()) {
            // Later appends win, and count as a use for LRU order.
            it->second->result = text;
            lru_.splice(lru_.begin(), lru_, it->second);
            continue;
        }
        lru_.push_front(Entry{key->asString(), text});
        index_.emplace(lru_.front().key, lru_.begin());
    }
    // Journal replay pushes each record to the front, so the list is
    // now newest-first — already LRU order.  Trim to capacity before
    // anyone can hit the excess.
    while (opts_.maxEntries != 0 && lru_.size() > opts_.maxEntries) {
        index_.erase(lru_.back().key);
        lru_.pop_back();
    }
    stats_.recoveredEntries = lru_.size();

    writer_.emplace(journal::Writer::append(
        opts_.path, recovered.validBytes, opts_.durability));
    journalBytes_ = recovered.validBytes;
}

VerdictCache::~VerdictCache()
{
    close();
}

std::optional<std::string>
VerdictCache::lookup(const std::string &key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it == index_.end()) {
        ++stats_.misses;
        return std::nullopt;
    }
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->result;
}

void
VerdictCache::insert(const std::string &key, const std::string &result)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it != index_.end()) {
        // Deterministic recompute: the stored value is already the
        // canonical answer, so refresh recency and skip the journal.
        lru_.splice(lru_.begin(), lru_, it->second);
        return;
    }
    lru_.push_front(Entry{key, result});
    index_.emplace(lru_.front().key, lru_.begin());
    ++stats_.insertions;
    appendLocked(lru_.front());
    evictLocked();
    if (writer_ && opts_.compactBytes != 0 &&
        journalBytes_ > opts_.compactBytes) {
        compactLocked();
    }
}

void
VerdictCache::appendLocked(const Entry &entry)
{
    if (!writer_)
        return;
    try {
        faultinject::checkSite(faultinject::site::kServeCacheWrite,
                               entry.key.c_str());
        journalBytes_ += writer_->appendLine(
            journal::encodeLine(recordPayload(entry.key, entry.result)));
    } catch (...) {
        // The append may have left a torn record; anything written
        // after it would be unrecoverable (recovery stops at the
        // first bad line).  Demote to memory-only instead of failing
        // the request — cache durability is best-effort by contract.
        ++stats_.writeErrors;
        try {
            writer_->close();
        } catch (...) {
        }
        writer_.reset();
    }
}

void
VerdictCache::evictLocked()
{
    while (opts_.maxEntries != 0 && lru_.size() > opts_.maxEntries) {
        index_.erase(lru_.back().key);
        lru_.pop_back();
        ++stats_.evictions;
    }
}

void
VerdictCache::compactLocked()
{
    if (!writer_)
        return;
    const std::string tmpPath = opts_.path + ".compact";
    try {
        journal::Writer tmp =
            journal::Writer::create(tmpPath, opts_.durability);
        std::uint64_t bytes = 0;
        // Oldest-first, so replaying the compacted journal rebuilds
        // the exact LRU order the live cache has now.
        for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
            bytes += tmp.appendLine(
                journal::encodeLine(recordPayload(it->key, it->result)));
        }
        tmp.close();
        writer_->close();
        writer_.reset();
        if (std::rename(tmpPath.c_str(), opts_.path.c_str()) != 0) {
            throw StatusError(Status(
                StatusCode::IoError,
                "rename of compacted cache journal failed"));
        }
        writer_.emplace(journal::Writer::append(opts_.path, bytes,
                                                opts_.durability));
        journalBytes_ = bytes;
        ++stats_.compactions;
    } catch (...) {
        ++stats_.writeErrors;
        std::remove(tmpPath.c_str());
        // If the original journal is still open we keep appending to
        // it (compaction retries at the next threshold crossing);
        // otherwise the cache is memory-only from here on.
        if (writer_ && !writer_->isOpen())
            writer_.reset();
    }
}

void
VerdictCache::flush()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (writer_)
        writer_->sync();
}

void
VerdictCache::close()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (writer_) {
        try {
            writer_->close();
        } catch (...) {
        }
        writer_.reset();
    }
}

void
VerdictCache::compactNow()
{
    std::lock_guard<std::mutex> lock(mutex_);
    compactLocked();
}

CacheStats
VerdictCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

std::size_t
VerdictCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return lru_.size();
}

std::uint64_t
VerdictCache::journalBytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return journalBytes_;
}

} // namespace lkmm::serve
