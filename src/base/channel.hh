/**
 * @file
 * Length-prefixed frames, and the one request/reply loop a parent
 * runs with a persistent forked child over its subprocess channel.
 *
 * A frame is a 4-byte big-endian payload length followed by that
 * many payload bytes.  The length prefix makes framing independent
 * of payload content — a malformed body desynchronizes nothing, the
 * reader can always read the next frame — and gives the reader a
 * cheap admission check: an oversized declared length is rejected
 * *before* a byte of payload is read, so a hostile or buggy peer
 * cannot make it buffer arbitrary data.  lkmm-serve speaks frames to
 * its clients (serve/protocol.hh) and to its workers.
 *
 * A persistent child amortizes the fork over many requests.  Its
 * body, serveFrames(), answers one reply frame per request frame
 * until EOF on the channel.  The parent's call() writes one request,
 * polls for the reply under a watchdog deadline and, when the child
 * dies, overruns or tears the reply, kills and reaps it and decodes
 * how it ended through subprocess::Outcome.  Two callers share the
 * loop: the lkmm-serve worker tier (serve/worker.hh) and lkmm-fuzz's
 * side worker (fuzz/oracle.hh).  Each passes its own fault sites.
 *
 * Nothing here raises SIGPIPE: writes use send(MSG_NOSIGNAL), so a
 * vanished peer surfaces as an EPIPE IoError — which base/retry
 * classifies as transient, i.e. fatal to this conversation only.
 */

#ifndef LKMM_BASE_CHANNEL_HH
#define LKMM_BASE_CHANNEL_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "base/subprocess.hh"

namespace lkmm::channel
{

/** Default cap on a frame's declared payload length (1 MiB). */
inline constexpr std::uint32_t kDefaultMaxFrameBytes = 1u << 20;

/**
 * Frame cap on a persistent child's channel.  Larger than the
 * default: the channel is trusted (both ends are this codebase) and
 * a reply, such as a serve result's states array, can outgrow its
 * request.
 */
inline constexpr std::uint32_t kChildMaxFrameBytes = 8u << 20;

/**
 * Read one frame from fd.
 *
 * Returns nullopt on a clean EOF at a frame boundary (the peer
 * closed between frames — a normal disconnect).  Throws
 * StatusError(IoError) when the connection dies mid-frame (torn
 * header or payload, ECONNRESET, receive timeout) and
 * StatusError(InvalidArgument) when the declared length exceeds
 * maxFrameBytes — in that case no payload bytes have been consumed,
 * but the stream is no longer at a frame boundary, so the caller
 * must close the connection after reporting the error.
 *
 * faultSite, when non-null, names a base/faultinject site consulted
 * around each recv() so chaos schedules can tear the read.
 */
std::optional<std::string>
readFrame(int fd, std::uint32_t maxFrameBytes = kDefaultMaxFrameBytes,
          const char *faultSite = nullptr);

/**
 * Write one frame (header + payload) to fd.  Uses MSG_NOSIGNAL, so
 * a dead peer yields StatusError(IoError) carrying EPIPE instead of
 * killing the process.  faultSite as in readFrame().
 */
void writeFrame(int fd, const std::string &payload,
                const char *faultSite = nullptr);

/** Answers one request frame inside a persistent child. */
using Handler = std::function<std::string(const std::string &request)>;

/**
 * The persistent child body, called from a subprocess::Child::spawn
 * body with its channel.  It restores SIGTERM/SIGINT to their
 * default disposition (the parent's handlers must not keep a child
 * alive that supervision means to kill) and ignores SIGPIPE, then
 * answers each request frame with handle() until EOF.  EOF is the
 * retirement signal (recycle, shutdown or parent death).
 *
 * Returns the child's exit code: 0 at EOF or on a torn request,
 * Child::kCallbackError when a reply cannot be written.  replySite,
 * when non-null, is consulted around the reply write, so a fault
 * plan can make a reply undeliverable or kill the child there.
 */
int serveFrames(int fd, const Handler &handle,
                const char *replySite = nullptr);

/** What one call() produced. */
struct Reply
{
    /** The child's reply; nullopt when the child died or overran. */
    std::optional<std::string> frame;
    /** The watchdog killed the child past the deadline. */
    bool timedOut = false;
    /**
     * Why the exchange failed, ending in how the reaped child ended:
     * "worker closed the channel mid-request (killed by signal 9
     * (Killed))".  Empty when frame is set.
     */
    std::string detail;
};

/**
 * Send one request to a persistent child and wait for its reply
 * until `deadline` (nullopt = no watchdog).  A write that fails, a
 * poll error, EOF, a torn or oversized reply and a deadline overrun
 * each kill and reap the child, so a Reply without a frame leaves
 * `child` finished and the caller spawns a fresh one.  The bytes
 * read for the reply are also bounded by the deadline, so a child
 * that sent half a frame and wedged still dies on time.  site, when
 * non-null, is consulted around the write, the poll and the read.
 * Never throws.
 */
Reply call(subprocess::Child &child, const std::string &request,
           std::optional<std::chrono::steady_clock::time_point> deadline,
           const char *site = nullptr);

/**
 * SIGKILL a child (a no-op when it already died), reap it and
 * describe how it ended (Outcome::describe, or why the reap
 * failed).  With timedOut the outcome is TimedOut.  For a caller
 * that received a reply it cannot decode; never throws.
 */
std::string reap(subprocess::Child &child, bool timedOut = false);

} // namespace lkmm::channel

#endif // LKMM_BASE_CHANNEL_HH
