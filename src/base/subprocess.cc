#include "base/subprocess.hh"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "base/eintr.hh"
#include "base/faultinject.hh"
#include "base/status.hh"
#include "base/strutil.hh"

namespace lkmm::subprocess
{

namespace site = faultinject::site;

namespace
{

[[noreturn]] void
sysError(const char *what)
{
    throw StatusError(Status(
        StatusCode::Internal,
        std::string(what) + ": " + std::strerror(errno)));
}

void
applyLimits(const Limits &limits)
{
    if (limits.cpuSeconds) {
        // Hard limit one second above soft: the child gets a
        // catchable SIGXCPU at the soft limit and an uncatchable
        // SIGKILL shortly after if it ignores it.
        struct rlimit rl;
        rl.rlim_cur = limits.cpuSeconds;
        rl.rlim_max = limits.cpuSeconds + 1;
        setrlimit(RLIMIT_CPU, &rl);
    }
    if (limits.memoryBytes) {
        struct rlimit rl;
        rl.rlim_cur = limits.memoryBytes;
        rl.rlim_max = limits.memoryBytes;
        setrlimit(RLIMIT_AS, &rl);
    }
}

/**
 * Close every file descriptor except 0/1/2 and `keep`.  A fork
 * inherits every open fd: listening sockets, other clients'
 * connections, journals, and the channel end of a child another
 * thread is spawning at the same moment.  A child holding a
 * sibling's channel end delays that sibling's EOF until it exits
 * itself, so the sibling's parent may record a finished child as
 * timed out; other fds stay pinned long after the parent released
 * them.  close_range (Linux 5.9) does it in two calls.  Where it
 * fails (ENOSYS on older kernels, EPERM under some seccomp
 * profiles), scan /proc/self/fd instead.
 */
void
closeInheritedFds(int keep)
{
    const unsigned above = static_cast<unsigned>(std::max(keep + 1, 3));
    if ((keep <= 3 || ::close_range(3, static_cast<unsigned>(keep - 1),
                                    0) == 0) &&
        ::close_range(above, ~0U, 0) == 0)
        return;

    DIR *dir = ::opendir("/proc/self/fd");
    if (dir == nullptr)
        return; // /proc unavailable too: keep the inherited fds
    const int dirFd = ::dirfd(dir);
    std::vector<int> toClose;
    while (struct dirent *entry = ::readdir(dir)) {
        char *end = nullptr;
        const long fd = std::strtol(entry->d_name, &end, 10);
        if (end == entry->d_name || *end != '\0')
            continue;
        if (fd > 2 && fd != dirFd && fd != keep)
            toClose.push_back(static_cast<int>(fd));
    }
    ::closedir(dir);
    // Close after the scan: closing mid-iteration invalidates the
    // directory stream on some libcs.
    for (const int fd : toClose)
        ::close(fd);
}

void
writeAll(int fd, const std::string &data)
{
    std::size_t written = 0;
    while (written < data.size()) {
        ssize_t n = retryEintr(site::kSubprocessChildWrite, EPIPE, [&] {
            return ::write(fd, data.data() + written,
                           data.size() - written);
        });
        if (n < 0)
            return; // parent gone; nothing sensible left to do
        written += static_cast<std::size_t>(n);
    }
}

} // namespace

std::string
Outcome::describe() const
{
    switch (kind) {
      case ExitKind::Exited:
        return format("exited %d", exitCode);
      case ExitKind::Signaled:
        return format("killed by signal %d (%s)", signal,
                      strsignal(signal));
      case ExitKind::TimedOut:
        return "timed out (killed by watchdog)";
    }
    return "?";
}

Child
Child::spawn(const Body &body, const Limits &limits)
{
    int sv[2];
    if (retryEintr(site::kSubprocessPipe, EMFILE, [&] {
            return ::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0,
                                sv);
        }) != 0) {
        sysError("socketpair failed");
    }

    // fork's characteristic transient failure is EAGAIN (pid/rlimit
    // pressure); the batch runner's RetryPolicy heals it with
    // backoff, which the subprocess-fork fault site exists to prove.
    pid_t pid = retryEintr(site::kSubprocessFork, EAGAIN,
                           [&] { return ::fork(); });
    if (pid < 0) {
        int saved = errno;
        ::close(sv[0]);
        ::close(sv[1]);
        errno = saved;
        sysError("fork failed");
    }

    if (pid == 0) {
        // Child.  Only _exit from here on: running atexit handlers
        // or flushing the parent's stdio buffers in a forked copy
        // would corrupt the parent's output.
        ::close(sv[0]);
        closeInheritedFds(sv[1]);
        if (limits.newProcessGroup) {
            // Become our own group leader so the watchdog can kill
            // the whole group and leak scans can find stragglers.
            ::setpgid(0, 0);
        }
        applyLimits(limits);
        int code = kCallbackError;
        try {
            code = body(sv[1]);
        } catch (...) {
        }
        ::_exit(code);
    }

    // Parent.
    ::close(sv[1]);
    Child child;
    child.pid_ = pid;
    child.fd_ = sv[0];
    child.processGroup_ = limits.newProcessGroup;
    if (limits.deadline.count() > 0)
        child.deadline_ = std::chrono::steady_clock::now() + limits.deadline;
    return child;
}

Child
Child::spawn(const std::function<std::string()> &work, const Limits &limits)
{
    return spawn(
        [&work](int channel) {
            // A parent that died early must not leave us writing to
            // a broken channel forever.
            ::signal(SIGPIPE, SIG_DFL);
            writeAll(channel, work());
            return 0;
        },
        limits);
}

Child::Child(Child &&other) noexcept
{
    *this = std::move(other);
}

Child &
Child::operator=(Child &&other) noexcept
{
    if (this != &other) {
        reapForDestructor();
        pid_ = std::exchange(other.pid_, -1);
        fd_ = std::exchange(other.fd_, -1);
        processGroup_ = other.processGroup_;
        killRequested_ = other.killRequested_;
        timedOut_ = other.timedOut_;
        finished_ = std::exchange(other.finished_, true);
        deadline_ = other.deadline_;
        output_ = std::move(other.output_);
    }
    return *this;
}

Child::~Child()
{
    reapForDestructor();
}

void
Child::signalKill()
{
    if (processGroup_)
        ::kill(-pid_, SIGKILL);
    else
        ::kill(pid_, SIGKILL);
}

void
Child::reapForDestructor()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    if (pid_ > 0 && !finished_) {
        // No injection here: the destructor is the last line of
        // defense against process leaks and must stay infallible.
        signalKill();
        int status;
        while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
        }
        finished_ = true;
    }
}

bool
Child::onReadable()
{
    if (fd_ < 0)
        return true;
    char buf[4096];
    // The first read may block: poll() reported the channel readable,
    // and finish() drains by calling us until EOF.  A read that fills
    // the buffer is followed only by non-blocking ones, or a child
    // that wrote an exact multiple of the buffer and then hung would
    // hold us here past its deadline.
    int flags = 0;
    for (;;) {
        ssize_t n = retryEintr(site::kSubprocessRead, EIO, [&] {
            return ::recv(fd_, buf, sizeof(buf), flags);
        });
        if (n > 0) {
            output_.append(buf, static_cast<std::size_t>(n));
            if (n < static_cast<ssize_t>(sizeof(buf)))
                return false; // drained what was available
            flags = MSG_DONTWAIT;
            continue;
        }
        if (n == 0) {
            ::close(fd_);
            fd_ = -1;
            return true; // EOF: child closed its end
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return false;
        // Read error: treat like EOF, the wait status tells the rest.
        ::close(fd_);
        fd_ = -1;
        return true;
    }
}

void
Child::kill()
{
    if (pid_ <= 0 || finished_)
        return;
    killRequested_ = true;
    // An injected kill failure leaves the child running for now;
    // finish() repeats the SIGKILL uninjected before it blocks.
    if (faultinject::checkSiteErrno(site::kSubprocessKill, EPERM) != 0)
        return;
    signalKill();
}

void
Child::killTimedOut()
{
    if (pid_ > 0 && !finished_)
        timedOut_ = true;
    kill();
}

Outcome
Child::finish()
{
    // A child whose kill was requested may still be running (the
    // kill failed); the drain below would then block until it exits
    // on its own, which a hung child never does.
    if (killRequested_ && !finished_)
        signalKill();
    // Drain whatever the child managed to write.  After SIGKILL or
    // _exit its end is closed, so this terminates at EOF.
    while (fd_ >= 0)
        onReadable();

    Outcome outcome;
    outcome.output = std::move(output_);
    output_.clear();
    outcome.pid = pid_;

    if (pid_ > 0 && !finished_) {
        int status = 0;
        if (retryEintr(site::kSubprocessWaitpid, ECHILD, [&] {
                return ::waitpid(pid_, &status, 0);
            }) < 0) {
            sysError("waitpid failed");
        }
        finished_ = true;
        if (timedOut_) {
            outcome.kind = ExitKind::TimedOut;
        } else if (WIFSIGNALED(status)) {
            outcome.kind = ExitKind::Signaled;
            outcome.signal = WTERMSIG(status);
        } else {
            outcome.kind = ExitKind::Exited;
            outcome.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
        }
    }
    return outcome;
}

void
Child::retire(std::chrono::milliseconds grace)
{
    try {
        if (fd_ >= 0)
            ::shutdown(fd_, SHUT_WR);
        deadline_ = std::chrono::steady_clock::now() + grace;
        const std::vector<Child *> self{this};
        while (waitAny(self).empty()) {
        }
        finish();
    } catch (...) {
        // The destructor reaps without injection.
    }
}

std::vector<std::size_t>
waitAny(const std::vector<Child *> &children,
        std::chrono::milliseconds slice)
{
    std::vector<std::size_t> done;
    if (children.empty())
        return done;
    std::vector<struct pollfd> fds;
    fds.reserve(children.size());
    int timeoutMs = slice.count() < 0
        ? -1
        : static_cast<int>(std::min<std::chrono::milliseconds::rep>(
              slice.count(), INT_MAX));
    const auto now = std::chrono::steady_clock::now();
    for (const Child *child : children) {
        // A child already at EOF needs no wait: poll ignores its -1.
        if (child->fd_ < 0)
            timeoutMs = 0;
        fds.push_back({child->fd_, POLLIN, 0});
        if (child->deadline_) {
            const auto left =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    *child->deadline_ - now)
                    .count();
            const int ms = static_cast<int>(
                std::clamp<decltype(left)>(left + 1, 0, INT_MAX));
            timeoutMs = timeoutMs < 0 ? ms : std::min(timeoutMs, ms);
        }
    }

    // poll's EINTR returns to the caller, NOT hidden in retryEintr:
    // a caller's loop re-checks its cancellation token at once
    // instead of at the end of its slice (see base/eintr.hh).
    int rc;
    if (int injected = faultinject::checkSiteErrno(site::kSubprocessPoll,
                                                   EIO)) {
        errno = injected;
        rc = -1;
    } else {
        rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                    timeoutMs);
    }
    if (rc < 0) {
        if (errno == EINTR)
            return done;
        sysError("poll failed");
    }

    const auto after = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < children.size(); ++i) {
        Child &child = *children[i];
        bool finished = child.fd_ < 0;
        if (!finished && (fds[i].revents & (POLLIN | POLLHUP | POLLERR)))
            finished = child.onReadable();
        if (!finished && child.deadline_ && after >= *child.deadline_) {
            child.killTimedOut();
            finished = true;
        }
        if (finished)
            done.push_back(i);
    }
    return done;
}

std::size_t
residentSetKb(pid_t pid)
{
    const std::string path =
        "/proc/" + std::to_string(pid) + "/statm";
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return 0;
    char buf[128];
    ssize_t n;
    while ((n = ::read(fd, buf, sizeof(buf) - 1)) < 0 &&
           errno == EINTR) {
    }
    ::close(fd);
    if (n <= 0)
        return 0;
    buf[n] = '\0';
    // statm: size resident shared ... (in pages)
    unsigned long long size = 0, resident = 0;
    if (std::sscanf(buf, "%llu %llu", &size, &resident) != 2)
        return 0;
    const long pageKb = ::sysconf(_SC_PAGESIZE) / 1024;
    return static_cast<std::size_t>(resident) *
        static_cast<std::size_t>(pageKb > 0 ? pageKb : 4);
}

Outcome
runIsolated(const std::function<std::string()> &work, const Limits &limits)
{
    Child child = Child::spawn(work, limits);
    const std::vector<Child *> one{&child};
    while (waitAny(one).empty()) {
    }
    return child.finish();
}

} // namespace lkmm::subprocess
