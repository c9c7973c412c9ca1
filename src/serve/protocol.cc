#include "serve/protocol.hh"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "base/channel.hh"
#include "base/status.hh"
#include "base/strutil.hh"

namespace lkmm::serve
{

namespace
{

/**
 * Render errno for an IoError message.  Includes both the symbolic
 * strerror text ("Connection refused") and the number, so
 * base/retry's transient-marker match sees the canonical spelling.
 */
std::string
errnoText(int err)
{
    return format("%s (errno %d)", std::strerror(err), err);
}

} // namespace

Client
Client::connect(const std::string &socketPath)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socketPath.size() >= sizeof(addr.sun_path)) {
        throw StatusError(Status(
            StatusCode::InvalidArgument,
            format("socket path too long for sockaddr_un (%zu bytes, "
                   "limit %zu): %s",
                   socketPath.size(), sizeof(addr.sun_path) - 1,
                   socketPath.c_str())));
    }
    std::memcpy(addr.sun_path, socketPath.c_str(),
                socketPath.size() + 1);

    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
        throw StatusError(Status(
            StatusCode::IoError,
            format("socket failed: %s", errnoText(errno).c_str())));
    }
    int rc;
    do {
        rc = ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                       sizeof(addr));
    } while (rc == -1 && errno == EINTR);
    if (rc != 0) {
        const int err = errno;
        ::close(fd);
        throw StatusError(Status(
            StatusCode::IoError,
            format("connect to %s failed: %s", socketPath.c_str(),
                   errnoText(err).c_str())));
    }
    return Client(fd);
}

Client::Client(Client &&other) noexcept : fd_(other.fd_)
{
    other.fd_ = -1;
}

Client &
Client::operator=(Client &&other) noexcept
{
    if (this != &other) {
        close();
        fd_ = other.fd_;
        other.fd_ = -1;
    }
    return *this;
}

Client::~Client()
{
    close();
}

void
Client::setTimeout(std::chrono::milliseconds timeout)
{
    timeval tv{};
    tv.tv_sec = timeout.count() / 1000;
    tv.tv_usec = (timeout.count() % 1000) * 1000;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

json::Value
Client::request(const json::Value &req)
{
    channel::writeFrame(fd_, req.serialize());
    const std::optional<std::string> reply = channel::readFrame(fd_);
    if (!reply) {
        throw StatusError(Status(
            StatusCode::IoError,
            "server closed the connection before replying"));
    }
    return json::Value::parse(*reply);
}

void
Client::sendRaw(const std::string &payload)
{
    channel::writeFrame(fd_, payload);
}

std::optional<std::string>
Client::receiveRaw()
{
    return channel::readFrame(fd_);
}

void
Client::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

} // namespace lkmm::serve
