/**
 * @file
 * Length-prefixed framing (base/channel): round trips, clean EOF vs
 * torn frame, and the oversized-length admission check.  All over
 * socketpair(2), so no daemon or child is involved — the persistent
 * request/reply loop is exercised through its callers' tests
 * (serve/worker_test.cc, fuzz/campaign_test.cc).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

#include "base/status.hh"
#include "base/channel.hh"

namespace lkmm::channel
{
namespace
{

/** A connected AF_UNIX stream pair, closed on scope exit. */
struct SocketPair
{
    int fds[2] = {-1, -1};

    SocketPair()
    {
        EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    }
    ~SocketPair()
    {
        closeEnd(0);
        closeEnd(1);
    }
    void closeEnd(int i)
    {
        if (fds[i] >= 0) {
            ::close(fds[i]);
            fds[i] = -1;
        }
    }
};

TEST(Framing, RoundTripsPayloads)
{
    SocketPair sp;
    // Covers empty, tiny, and bigger-than-one-recv payloads (the
    // read loop must reassemble partial recvs).
    const std::string big(200000, 'x');
    for (const std::string &payload :
         {std::string(), std::string("{\"op\":\"ping\"}"), big}) {
        std::thread writer(
            [&] { writeFrame(sp.fds[0], payload); });
        const auto got = readFrame(sp.fds[1]);
        writer.join();
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(*got, payload);
    }
}

TEST(Framing, CleanEofAtBoundaryIsNullopt)
{
    SocketPair sp;
    sp.closeEnd(0);
    EXPECT_FALSE(readFrame(sp.fds[1]).has_value());
}

TEST(Framing, TornHeaderAndTornPayloadThrowIoError)
{
    {
        SocketPair sp;
        // Two bytes of a four-byte header, then EOF: mid-frame death.
        const char partial[2] = {0, 0};
        ASSERT_EQ(::send(sp.fds[0], partial, sizeof partial, 0),
                  static_cast<ssize_t>(sizeof partial));
        sp.closeEnd(0);
        EXPECT_THROW(readFrame(sp.fds[1]), StatusError);
    }
    {
        SocketPair sp;
        // A header promising 8 bytes, then only 3 of them.
        const unsigned char header[4] = {0, 0, 0, 8};
        ASSERT_EQ(::send(sp.fds[0], header, 4, 0), 4);
        ASSERT_EQ(::send(sp.fds[0], "abc", 3, 0), 3);
        sp.closeEnd(0);
        EXPECT_THROW(readFrame(sp.fds[1]), StatusError);
    }
}

TEST(Framing, OversizedDeclaredLengthRejectedBeforePayload)
{
    SocketPair sp;
    // Declare 2^31 bytes but send none: the reject must come from
    // the header alone (no attempt to buffer the payload).
    const unsigned char header[4] = {0x80, 0, 0, 0};
    ASSERT_EQ(::send(sp.fds[0], header, 4, 0), 4);
    try {
        readFrame(sp.fds[1], /*maxFrameBytes=*/1024);
        FAIL() << "oversized frame accepted";
    } catch (const StatusError &e) {
        EXPECT_EQ(e.status().code(), StatusCode::InvalidArgument)
            << e.what();
    }
}

TEST(Framing, WriteToClosedPeerIsIoErrorNotSigpipe)
{
    SocketPair sp;
    sp.closeEnd(1);
    // MSG_NOSIGNAL turns a dead peer into EPIPE; if SIGPIPE fired
    // instead, the whole test binary would die here.
    try {
        // One write may land in the (now orphaned) buffer; the
        // second is guaranteed to see the reset.
        writeFrame(sp.fds[0], "first");
        writeFrame(sp.fds[0], "second");
        FAIL() << "write to closed peer succeeded twice";
    } catch (const StatusError &e) {
        EXPECT_EQ(e.status().code(), StatusCode::IoError) << e.what();
    }
}

} // namespace
} // namespace lkmm::channel
