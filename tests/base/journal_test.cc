/**
 * @file
 * The crash-tolerant result journal (base/journal): checksummed
 * line encoding, recovery of the longest intact prefix, torn-tail
 * truncation on reopen, and corruption detection.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "base/journal.hh"
#include "base/json.hh"
#include "base/strutil.hh"

namespace lkmm
{
namespace
{

json::Value
record(int i)
{
    json::Object o;
    o["seq"] = json::Value(i);
    o["name"] = json::Value("test-" + std::to_string(i));
    return json::Value(std::move(o));
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

void
appendRaw(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << bytes;
}

class JournalTest : public ::testing::Test
{
  protected:
    std::string
    path(const char *name) const
    {
        return testing::TempDir() + "journal_test_" + name + ".jsonl";
    }
};

TEST_F(JournalTest, Crc32KnownVector)
{
    // The standard IEEE 802.3 check value.
    EXPECT_EQ(journal::crc32("123456789"), 0xcbf43926u);
    EXPECT_EQ(journal::crc32(""), 0u);
}

TEST_F(JournalTest, LineRoundTrip)
{
    const json::Value rec = record(7);
    const std::string line = journal::encodeLine(rec);
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.back(), '\n');
    std::optional<json::Value> back =
        journal::decodeLine(line.substr(0, line.size() - 1));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, rec);
}

/** The line as a {"crc","data"} Value, serialized whole. */
std::string
wrapperLine(const json::Value &rec)
{
    json::Object wrapper;
    wrapper["crc"] =
        json::Value(format("%08x", journal::crc32(rec.serialize())));
    wrapper["data"] = rec;
    return json::Value(std::move(wrapper)).serialize() + "\n";
}

TEST(Journal, EncodeLineMatchesWrapperEncoding)
{
    const std::vector<std::string> texts = {
        "plain",
        "quote \" and backslash \\ inside",
        "control \x01\x1f\b\f\n\r\t bytes",
        std::string("nul \0 byte", 10),
        "non-ASCII \xc3\xa9\xe2\x88\x80 \xff\xfe bytes",
        "",
    };
    for (const std::string &text : texts) {
        json::Object o;
        o["name"] = text;
        o["seq"] = json::Value(std::int64_t{-7});
        o[text + "/key"] = json::Value(2.5);
        o["nested"] = json::Value(json::Array{
            json::Value(text), json::Value(nullptr), json::Value(true)});
        const json::Value rec(std::move(o));
        const std::string expected = wrapperLine(rec);
        EXPECT_EQ(journal::encodeLine(rec), expected);
        EXPECT_EQ(journal::encodeLine(rec.serialize()), expected);
        std::optional<json::Value> back =
            journal::decodeLine(expected.substr(0, expected.size() - 1));
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(*back, rec);
    }
}

TEST_F(JournalTest, AppendReturnsTheBytesItWrote)
{
    const std::string p = path("append_bytes");
    std::uint64_t total = 0;
    {
        journal::Writer w = journal::Writer::create(p);
        total += w.append(record(0));
        total += w.appendLine(journal::encodeLine(record(1).serialize()));
        EXPECT_EQ(total, journal::encodeLine(record(0)).size() +
                             journal::encodeLine(record(1)).size());
    }
    EXPECT_EQ(readFile(p).size(), total);
    const journal::RecoverResult r = journal::recover(p);
    ASSERT_EQ(r.records.size(), 2u);
    EXPECT_EQ(r.records[1], record(1));
    std::remove(p.c_str());
}

TEST_F(JournalTest, DecodeRejectsCorruption)
{
    std::string line = journal::encodeLine(record(1));
    line.pop_back(); // strip '\n'
    // Flip one payload character: crc must catch it.
    std::string bad = line;
    bad[bad.size() / 2] ^= 1;
    EXPECT_FALSE(journal::decodeLine(bad).has_value());
    // Torn line (prefix of a valid one).
    EXPECT_FALSE(
        journal::decodeLine(line.substr(0, line.size() / 2)).has_value());
    // Valid JSON but no wrapper fields.
    EXPECT_FALSE(journal::decodeLine("{\"x\":1}").has_value());
}

TEST_F(JournalTest, WriteReadBack)
{
    const std::string p = path("roundtrip");
    {
        journal::Writer w = journal::Writer::create(p);
        for (int i = 0; i < 5; ++i)
            w.append(record(i));
        w.sync();
    }
    journal::RecoverResult rec = journal::recover(p);
    ASSERT_EQ(rec.records.size(), 5u);
    EXPECT_FALSE(rec.droppedTail);
    EXPECT_EQ(rec.validBytes, readFile(p).size());
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(rec.records[i], record(i));
}

TEST_F(JournalTest, MissingFileIsEmptyJournal)
{
    journal::RecoverResult rec = journal::recover(path("nonexistent"));
    EXPECT_TRUE(rec.records.empty());
    EXPECT_EQ(rec.validBytes, 0u);
    EXPECT_FALSE(rec.droppedTail);
}

TEST_F(JournalTest, TornTailIsDroppedAndTruncatedOnReopen)
{
    const std::string p = path("torn");
    {
        journal::Writer w = journal::Writer::create(p);
        w.append(record(0));
        w.append(record(1));
    }
    const std::size_t intact = readFile(p).size();
    // Simulate a crash mid-append: half of a third record, no '\n'.
    const std::string third = journal::encodeLine(record(2));
    appendRaw(p, third.substr(0, third.size() / 2));

    journal::RecoverResult rec = journal::recover(p);
    ASSERT_EQ(rec.records.size(), 2u);
    EXPECT_TRUE(rec.droppedTail);
    EXPECT_EQ(rec.validBytes, intact);

    // Reopening for append cuts the garbage, then writing works.
    {
        journal::Writer w = journal::Writer::append(p, rec.validBytes);
        w.append(record(2));
    }
    journal::RecoverResult again = journal::recover(p);
    ASSERT_EQ(again.records.size(), 3u);
    EXPECT_FALSE(again.droppedTail);
    EXPECT_EQ(again.records[2], record(2));
}

TEST_F(JournalTest, MidFileCorruptionStopsRecovery)
{
    const std::string p = path("midfile");
    {
        journal::Writer w = journal::Writer::create(p);
        for (int i = 0; i < 3; ++i)
            w.append(record(i));
    }
    // Corrupt a byte inside the second record.
    std::string content = readFile(p);
    const std::size_t firstLen = journal::encodeLine(record(0)).size();
    content[firstLen + 10] ^= 1;
    {
        std::ofstream out(p, std::ios::binary | std::ios::trunc);
        out << content;
    }
    journal::RecoverResult rec = journal::recover(p);
    // Only the prefix before the corruption survives; everything
    // after is untrusted even if it still checksums.
    ASSERT_EQ(rec.records.size(), 1u);
    EXPECT_TRUE(rec.droppedTail);
    EXPECT_EQ(rec.validBytes, firstLen);
}

TEST_F(JournalTest, TornNewlineFreeTailAfterValidLine)
{
    const std::string p = path("tail2");
    {
        journal::Writer w = journal::Writer::create(p);
        w.append(record(0));
    }
    appendRaw(p, "garbage with no newline");
    journal::RecoverResult rec = journal::recover(p);
    ASSERT_EQ(rec.records.size(), 1u);
    EXPECT_TRUE(rec.droppedTail);
}

TEST_F(JournalTest, TruncationAtEveryByteOffsetRecoversIntactPrefix)
{
    // The crash-consistency property, proven exhaustively: for EVERY
    // possible torn-write length, recovery returns exactly the
    // records whose lines fit intact, reports exactly their total
    // length as trustworthy, and the truncated journal remains
    // cleanly appendable.
    const std::string full = path("every_offset_src");
    {
        journal::Writer w = journal::Writer::create(full);
        for (int i = 0; i < 4; ++i)
            w.append(record(i));
    }
    const std::string bytes = readFile(full);
    std::vector<std::size_t> lineEnds;
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        if (bytes[i] == '\n')
            lineEnds.push_back(i + 1);
    }
    ASSERT_EQ(lineEnds.size(), 4u);

    const std::string p = path("every_offset");
    for (std::size_t offset = 0; offset <= bytes.size(); ++offset) {
        {
            std::ofstream out(p, std::ios::binary | std::ios::trunc);
            out << bytes.substr(0, offset);
        }
        std::size_t wantRecords = 0;
        std::size_t wantValid = 0;
        for (std::size_t end : lineEnds) {
            if (end > offset)
                break;
            ++wantRecords;
            wantValid = end;
        }
        journal::RecoverResult rec = journal::recover(p);
        ASSERT_EQ(rec.records.size(), wantRecords) << "offset " << offset;
        ASSERT_EQ(rec.validBytes, wantValid) << "offset " << offset;
        ASSERT_EQ(rec.droppedTail, offset != wantValid)
            << "offset " << offset;
        for (std::size_t i = 0; i < wantRecords; ++i)
            ASSERT_EQ(rec.records[i], record(static_cast<int>(i)));
        // The reopened journal accepts appends at every offset.
        {
            journal::Writer w = journal::Writer::append(p, rec.validBytes);
            w.append(record(99));
        }
        journal::RecoverResult again = journal::recover(p);
        ASSERT_EQ(again.records.size(), wantRecords + 1)
            << "offset " << offset;
        ASSERT_EQ(again.records.back(), record(99)) << "offset " << offset;
    }
}

TEST_F(JournalTest, RecoverBytesMatchesRecoverOnTornAndCorrupted)
{
    // recover(path) is a file read in front of recoverBytes(); the
    // two must agree on every field for the same bytes, torn tail
    // and mid-file corruption alike.
    std::string intact;
    for (int i = 0; i < 4; ++i)
        intact += journal::encodeLine(record(i));
    const std::string fifth = journal::encodeLine(record(4));
    const std::string torn = intact + fifth.substr(0, fifth.size() / 2);
    std::string corrupted = intact + fifth;
    // Flip a digit inside the third record's data: the JSON stays
    // well-formed, so only the CRC notices.
    const std::size_t third = intact.find("\"seq\":2");
    ASSERT_NE(third, std::string::npos);
    corrupted[third + 6] = '7';

    for (const std::string &bytes : {torn, corrupted}) {
        const std::string p = path("bytes");
        std::remove(p.c_str());
        appendRaw(p, bytes);
        const journal::RecoverResult fromFile = journal::recover(p);
        const journal::RecoverResult fromBytes =
            journal::recoverBytes(bytes);
        EXPECT_TRUE(fromFile.droppedTail);
        EXPECT_EQ(fromBytes.droppedTail, fromFile.droppedTail);
        EXPECT_EQ(fromBytes.validBytes, fromFile.validBytes);
        EXPECT_EQ(fromBytes.records, fromFile.records);
    }
    EXPECT_EQ(journal::recoverBytes(torn).records.size(), 4u);
    EXPECT_EQ(journal::recoverBytes(corrupted).records.size(), 2u);
}

TEST_F(JournalTest, FsyncDurabilityWritesTheSameFormat)
{
    // Fsync mode changes when bytes are durable, never what they
    // are: a PageCache reader must accept an Fsync journal and
    // vice versa.
    const std::string p = path("fsync");
    {
        journal::Writer w =
            journal::Writer::create(p, journal::Durability::Fsync);
        w.append(record(0));
        w.append(record(1));
    }
    journal::RecoverResult rec = journal::recover(p);
    ASSERT_EQ(rec.records.size(), 2u);
    EXPECT_FALSE(rec.droppedTail);

    // Torn-tail repair works identically in Fsync mode.
    const std::string third = journal::encodeLine(record(2));
    appendRaw(p, third.substr(0, third.size() / 3));
    journal::RecoverResult torn = journal::recover(p);
    ASSERT_EQ(torn.records.size(), 2u);
    {
        journal::Writer w = journal::Writer::append(
            p, torn.validBytes, journal::Durability::Fsync);
        w.append(record(2));
    }
    journal::RecoverResult again = journal::recover(p);
    ASSERT_EQ(again.records.size(), 3u);
    EXPECT_EQ(again.records[2], record(2));
}

TEST_F(JournalTest, CrcAblationHookDisablesCorruptionDetection)
{
    // The hook exists so lkmm-chaos --ablate-crc can prove the suite
    // notices a CRC regression; this test pins the hook's semantics
    // (and restores it, whatever happens).
    struct Restore
    {
        ~Restore() { journal::testing::setCrcChecksDisabled(false); }
    } restore;

    std::string line = journal::encodeLine(record(1));
    line.pop_back(); // strip '\n'
    // Flip a digit inside the data so the JSON stays well-formed.
    const std::size_t dataPos = line.find("\"data\"");
    ASSERT_NE(dataPos, std::string::npos);
    std::size_t flip = std::string::npos;
    for (std::size_t i = dataPos; i < line.size(); ++i) {
        if (line[i] >= '0' && line[i] <= '9') {
            flip = i;
            break;
        }
    }
    ASSERT_NE(flip, std::string::npos);
    line[flip] = static_cast<char>('0' + (line[flip] - '0' + 1) % 10);

    EXPECT_FALSE(journal::decodeLine(line).has_value())
        << "with CRC checks on, the corrupt record is rejected";
    journal::testing::setCrcChecksDisabled(true);
    EXPECT_TRUE(journal::testing::crcChecksDisabled());
    EXPECT_TRUE(journal::decodeLine(line).has_value())
        << "ablated: the corrupt record is (wrongly) accepted";
    journal::testing::setCrcChecksDisabled(false);
    EXPECT_FALSE(journal::decodeLine(line).has_value());
}

} // namespace
} // namespace lkmm
