#include "base/channel.hh"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "base/eintr.hh"
#include "base/status.hh"
#include "base/strutil.hh"

namespace lkmm::channel
{

namespace
{

/**
 * Run a syscall thunk through retryEintr at `site`, or retry EINTR
 * alone when the caller passes no site.
 */
template <typename Fn>
auto
retryAt(const char *site, int errnoForError, Fn &&fn) -> decltype(fn())
{
    if (site)
        return retryEintr(site, errnoForError, fn);
    auto rc = fn();
    while (rc == -1 && errno == EINTR)
        rc = fn();
    return rc;
}

/**
 * Throw IoError for a failed `op`.  The message carries both the
 * symbolic strerror text ("Broken pipe") and the number, so
 * base/retry's transient-marker match sees the canonical spelling.
 */
[[noreturn]] void
throwIo(const char *op, int err)
{
    throw StatusError(Status(
        StatusCode::IoError,
        format("%s failed: %s (errno %d)", op, std::strerror(err), err)));
}

/**
 * recv() exactly n bytes.  Returns the byte count actually read,
 * which is less than n only when the peer closed the stream.
 */
std::size_t
readAll(int fd, char *buf, std::size_t n, const char *faultSite)
{
    std::size_t got = 0;
    while (got < n) {
        const ssize_t rc = retryAt(faultSite, ECONNRESET, [&] {
            return ::recv(fd, buf + got, n - got, 0);
        });
        if (rc == 0)
            break;
        if (rc < 0)
            throwIo("frame recv", errno);
        got += static_cast<std::size_t>(rc);
    }
    return got;
}

/** send() the whole buffer; MSG_NOSIGNAL keeps EPIPE an errno. */
void
writeAll(int fd, const char *buf, std::size_t n, const char *faultSite)
{
    std::size_t sent = 0;
    while (sent < n) {
        const ssize_t rc = retryAt(faultSite, EPIPE, [&] {
            return ::send(fd, buf + sent, n - sent, MSG_NOSIGNAL);
        });
        if (rc < 0)
            throwIo("frame send", errno);
        sent += static_cast<std::size_t>(rc);
    }
}

void
setRecvTimeout(int fd, std::chrono::milliseconds timeout)
{
    timeval tv{};
    if (timeout.count() > 0) {
        tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
        tv.tv_usec = static_cast<suseconds_t>(
            (timeout.count() % 1000) * 1000);
    }
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

} // namespace

std::optional<std::string>
readFrame(int fd, std::uint32_t maxFrameBytes, const char *faultSite)
{
    unsigned char header[4];
    const std::size_t got =
        readAll(fd, reinterpret_cast<char *>(header), sizeof(header),
                faultSite);
    if (got == 0)
        return std::nullopt; // clean EOF at a frame boundary
    if (got < sizeof(header)) {
        throw StatusError(Status(
            StatusCode::IoError,
            "torn frame: connection closed inside the length prefix"));
    }
    const std::uint32_t length =
        (static_cast<std::uint32_t>(header[0]) << 24) |
        (static_cast<std::uint32_t>(header[1]) << 16) |
        (static_cast<std::uint32_t>(header[2]) << 8) |
        static_cast<std::uint32_t>(header[3]);
    if (maxFrameBytes != 0 && length > maxFrameBytes) {
        throw StatusError(Status(
            StatusCode::InvalidArgument,
            format("oversized frame: %u bytes declared, limit is %u",
                   length, maxFrameBytes)));
    }
    std::string payload(length, '\0');
    if (readAll(fd, payload.data(), length, faultSite) < length) {
        throw StatusError(Status(
            StatusCode::IoError,
            "torn frame: connection closed inside the payload"));
    }
    return payload;
}

void
writeFrame(int fd, const std::string &payload, const char *faultSite)
{
    const std::uint32_t length =
        static_cast<std::uint32_t>(payload.size());
    std::string frame;
    frame.reserve(sizeof(std::uint32_t) + payload.size());
    frame.push_back(static_cast<char>((length >> 24) & 0xff));
    frame.push_back(static_cast<char>((length >> 16) & 0xff));
    frame.push_back(static_cast<char>((length >> 8) & 0xff));
    frame.push_back(static_cast<char>(length & 0xff));
    frame.append(payload);
    writeAll(fd, frame.data(), frame.size(), faultSite);
}

int
serveFrames(int fd, const Handler &handle, const char *replySite)
{
    // A parent with its own SIGTERM/SIGINT handlers (the daemon, a
    // fuzz campaign) must not pass them on: the child dies by
    // default disposition, so supervision sees an honest wait
    // status.  SIGPIPE stays ignored (frames use MSG_NOSIGNAL, but
    // the handler should not be killable by a stray write).
    ::signal(SIGTERM, SIG_DFL);
    ::signal(SIGINT, SIG_DFL);
    ::signal(SIGPIPE, SIG_IGN);

    for (;;) {
        std::optional<std::string> frame;
        try {
            frame = readFrame(fd, kChildMaxFrameBytes);
        } catch (...) {
            return 0; // torn channel: parent is gone or recycling
        }
        if (!frame)
            return 0;
        const std::string reply = handle(*frame);
        try {
            writeFrame(fd, reply, replySite);
        } catch (...) {
            return subprocess::Child::kCallbackError;
        }
    }
}

Reply
call(subprocess::Child &child, const std::string &request,
     std::optional<std::chrono::steady_clock::time_point> deadline,
     const char *site)
{
    Reply reply;
    bool dead = false;
    try {
        writeFrame(child.fd(), request, site);
    } catch (const std::exception &e) {
        dead = true;
        reply.detail = std::string("dispatch write failed: ") + e.what();
    }

    while (!dead && !reply.timedOut && !reply.frame) {
        int timeoutMs = -1;
        if (deadline) {
            const auto now = std::chrono::steady_clock::now();
            if (now >= *deadline) {
                reply.timedOut = true;
                break;
            }
            const auto left = std::chrono::duration_cast<
                std::chrono::milliseconds>(*deadline - now);
            timeoutMs = static_cast<int>(
                std::min<std::int64_t>(left.count() + 1, 60000));
        }
        pollfd pfd{};
        pfd.fd = child.fd();
        pfd.events = POLLIN;
        const int rc = retryAt(site, EIO, [&] {
            return ::poll(&pfd, 1, timeoutMs);
        });
        if (rc < 0) {
            dead = true;
            reply.detail = std::string("dispatch poll failed: ") +
                std::strerror(errno);
            break;
        }
        if (rc == 0)
            continue; // loop re-checks the watchdog
        // Readable: bound the remaining frame read by the watchdog
        // so a child that sent half a frame and wedged still dies
        // on time.
        std::chrono::milliseconds recvBudget{0};
        if (deadline) {
            const auto left = std::chrono::duration_cast<
                std::chrono::milliseconds>(
                *deadline - std::chrono::steady_clock::now());
            recvBudget = std::chrono::milliseconds(
                std::max<std::int64_t>(left.count(), 1));
        }
        setRecvTimeout(child.fd(), recvBudget);
        try {
            reply.frame = readFrame(child.fd(), kChildMaxFrameBytes, site);
            if (!reply.frame) {
                dead = true;
                reply.detail = "worker closed the channel mid-request";
            }
        } catch (const std::exception &e) {
            if (deadline &&
                std::chrono::steady_clock::now() >= *deadline) {
                reply.timedOut = true;
            } else {
                dead = true;
                reply.detail =
                    std::string("result read failed: ") + e.what();
            }
        }
    }

    if (reply.frame)
        return reply;
    // Death or overrun: SIGKILL (a no-op if the child is already
    // gone), reap and decode through the subprocess taxonomy.
    const std::string reaped = reap(child, reply.timedOut);
    reply.detail =
        reply.detail.empty() ? reaped : reply.detail + " (" + reaped + ")";
    return reply;
}

std::string
reap(subprocess::Child &child, bool timedOut)
{
    // The caller's answer is on its way regardless, so a kill or
    // reap that fails is just more of this death.
    try {
        if (timedOut)
            child.killTimedOut();
        else
            child.kill();
        return child.finish().describe();
    } catch (const std::exception &e) {
        return std::string("reap failed: ") + e.what();
    }
}

} // namespace lkmm::channel
