/**
 * @file
 * An append-only, crash-tolerant JSONL result journal.
 *
 * Catalog sweeps run for hours; a sweep killed at any point — child
 * crash taking the parent down, OOM kill, operator Ctrl-C, power
 * loss — must not lose completed work.  The journal is the durable
 * record: one JSON object per line, each wrapped with a CRC-32 of
 * its canonical serialization:
 *
 *   {"crc":"9ae0daaf","data":{...record...}}
 *
 * Recovery scans the file from the start and accepts the longest
 * prefix of intact lines.  A torn final line (the classic
 * crash-mid-append shape) is dropped silently; recover() reports
 * how many bytes of the file are trustworthy so Writer::append()
 * can truncate the garbage before continuing.  A corrupt line in
 * the *middle* of the file is treated the same way — everything
 * from the first bad line on is discarded — because an append-only
 * writer can't vouch for anything written after a corruption.
 *
 * Durability guarantees, by Durability mode:
 *
 *  - PageCache (the default): append() returns once the record is in
 *    the kernel page cache.  A *process* crash (SIGKILL, abort,
 *    panic) loses nothing — the kernel still owns the bytes; at
 *    worst the final record is torn and recovery drops it.  A
 *    *system* crash (power loss) may lose recent records, or even
 *    the whole file if the directory entry was never synced.
 *  - Fsync (opt-in): create()/append() additionally fsync the parent
 *    directory once at open (so the file itself survives power
 *    loss), and append() issues fdatasync per record.  After
 *    append() returns, the record survives power loss; the journal
 *    can lose at most the record being appended when the power
 *    failed, and recovery drops exactly that torn tail.  Cost: one
 *    device round-trip per record.
 *
 * Either way the on-disk format is identical; torn-write recovery
 * is what distinguishes "lost tail" (acceptable in both modes) from
 * "corrupt tail accepted as data" (never acceptable — that is what
 * the CRC exists to catch, and what lkmm-chaos's ablation check
 * proves it catches).
 *
 * The journal is deliberately generic: records are json::Value
 * objects, or their canonical serialization for callers that keep
 * records as text (encodeLine's payload overload, which the serve
 * verdict cache uses); the sweep-record schema lives in
 * lkmm/sweep_journal.hh.
 */

#ifndef LKMM_BASE_JOURNAL_HH
#define LKMM_BASE_JOURNAL_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "base/json.hh"

namespace lkmm::journal
{

/** CRC-32 (IEEE, zlib polynomial) of a byte string. */
std::uint32_t crc32(const std::string &data);

/** One record rendered as a checksummed journal line (with '\n'). */
std::string encodeLine(const json::Value &record);

/**
 * The same line from the record's serialized bytes: `payload` must
 * equal json::Value::serialize() of the record (canonical JSON),
 * since decodeLine() checks the CRC against that re-serialization.
 * Lets a caller that keeps records as canonical text journal them
 * without rebuilding a Value.
 */
std::string encodeLine(const std::string &payload);

/**
 * Decode one line (without trailing '\n').  nullopt when the line
 * is torn, malformed, or fails its checksum.
 */
std::optional<json::Value> decodeLine(std::string_view line);

/** What recover() salvaged from a journal file. */
struct RecoverResult
{
    /** The intact records, in write order. */
    std::vector<json::Value> records;
    /** Length of the trustworthy prefix of the file, in bytes. */
    std::uint64_t validBytes = 0;
    /** Did the file contain garbage past the valid prefix? */
    bool droppedTail = false;
};

/**
 * Read back a journal, tolerating a torn tail.  A missing file is
 * an empty journal, not an error; an unreadable file throws
 * StatusError(IoError).  The read is the journal-recover fault site;
 * the bytes then go through recoverBytes().
 */
RecoverResult recover(const std::string &path);

/**
 * Recover journal content already in memory: the longest prefix of
 * intact lines, exactly as recover() does for the same bytes on disk.
 */
RecoverResult recoverBytes(const std::string &content);

/** How hard append() pushes a record toward the platter. */
enum class Durability
{
    /** Record reaches the kernel page cache (crash-safe, not
     *  power-loss-safe).  The default. */
    PageCache,
    /** fdatasync per append + parent-directory fsync at open
     *  (power-loss-safe at device-round-trip cost). */
    Fsync,
};

/**
 * Appends checksummed records to a journal file.
 *
 * Writers are move-only and flush each record eagerly: after
 * append() returns, the record is durable to the chosen Durability
 * level (see the file comment for the exact guarantees).  sync()
 * additionally issues fdatasync on demand in PageCache mode.
 */
class Writer
{
  public:
    /** Start a fresh journal, truncating any existing file. */
    static Writer create(const std::string &path,
                         Durability durability = Durability::PageCache);

    /**
     * Continue a recovered journal: truncate to validBytes (cutting
     * any torn tail) and append from there.
     */
    static Writer append(const std::string &path, std::uint64_t validBytes,
                         Durability durability = Durability::PageCache);

    Writer(Writer &&other) noexcept;
    Writer &operator=(Writer &&other) noexcept;
    Writer(const Writer &) = delete;
    Writer &operator=(const Writer &) = delete;
    ~Writer();

    /**
     * Append one record and flush it to the file.
     * @return the bytes written, i.e. encodeLine(record).size().
     */
    std::size_t append(const json::Value &record);

    /** Append a line built by encodeLine(); returns its size. */
    std::size_t appendLine(const std::string &line);

    /** fdatasync the file. */
    void sync();

    void close();

    bool isOpen() const { return fd_ >= 0; }

  private:
    Writer(int fd, Durability durability)
        : fd_(fd), durability_(durability)
    {}

    int fd_ = -1;
    Durability durability_ = Durability::PageCache;
};

namespace testing
{
/**
 * Ablation hook: when disabled, decodeLine() accepts any
 * syntactically valid line without verifying its checksum.  This
 * deliberately breaks the corruption-detection guarantee; it exists
 * only so the chaos suite can prove it would notice if the CRC check
 * ever regressed (lkmm-chaos --ablate-crc must FAIL).  Never set in
 * production code.
 */
void setCrcChecksDisabled(bool disabled);
bool crcChecksDisabled();
} // namespace testing

} // namespace lkmm::journal

#endif // LKMM_BASE_JOURNAL_HH
