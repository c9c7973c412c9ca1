/**
 * The crash-isolation runtime (base/subprocess): one-shot payload
 * delivery, exit-status decoding for every child death shape
 * (clean exit, thrown exception, signal, watchdog timeout), rlimit
 * enforcement, the persistent-child channel with its kill and
 * retire paths, and the waitAny watchdog.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <ctime>
#include <string>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include "base/faultinject.hh"
#include "base/status.hh"
#include "base/subprocess.hh"

namespace lkmm
{
namespace
{

using namespace std::chrono_literals;
using subprocess::ExitKind;
using subprocess::Limits;
using subprocess::Outcome;
using subprocess::runIsolated;

TEST(Subprocess, DeliversPayload)
{
    Outcome out = runIsolated([] { return std::string("hello sweep"); });
    EXPECT_TRUE(out.ok());
    EXPECT_EQ(out.kind, ExitKind::Exited);
    EXPECT_EQ(out.exitCode, 0);
    EXPECT_EQ(out.output, "hello sweep");
}

TEST(Subprocess, LargePayloadCrossesPipeBuffer)
{
    // Well past the default channel buffer capacity: the parent must
    // drain while the child is still writing or this deadlocks.
    const std::string big(1 << 20, 'x');
    Outcome out = runIsolated([&] { return big; });
    EXPECT_TRUE(out.ok());
    EXPECT_EQ(out.output.size(), big.size());
    EXPECT_EQ(out.output, big);
}

TEST(Subprocess, ThrowingCallbackExitsWithErrorCode)
{
    Outcome out = runIsolated(
        []() -> std::string { throw std::runtime_error("boom"); });
    EXPECT_EQ(out.kind, ExitKind::Exited);
    EXPECT_EQ(out.exitCode, subprocess::Child::kCallbackError);
    EXPECT_TRUE(out.output.empty());
    EXPECT_FALSE(out.ok());
}

TEST(Subprocess, SignalDeathIsDecoded)
{
    // SIGKILL: not interceptable, so the decode is identical under
    // sanitizers (unlike SIGSEGV, which ASan turns into an exit).
    Outcome out = runIsolated([]() -> std::string {
        std::raise(SIGKILL);
        return "unreachable";
    });
    EXPECT_EQ(out.kind, ExitKind::Signaled);
    EXPECT_EQ(out.signal, SIGKILL);
    EXPECT_FALSE(out.describe().empty());
}

TEST(Subprocess, WatchdogKillsPastDeadlineChild)
{
    Limits limits;
    limits.deadline = 200ms;
    const auto start = std::chrono::steady_clock::now();
    Outcome out = runIsolated(
        []() -> std::string {
            for (;;) {
                struct timespec ts = {1, 0};
                nanosleep(&ts, nullptr);
            }
        },
        limits);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_EQ(out.kind, ExitKind::TimedOut);
    // Killed promptly, not after the child's own schedule.
    EXPECT_LT(elapsed, 10s);
}

TEST(Subprocess, PartialOutputSurvivesTimeout)
{
    // A child that reports progress then hangs: the parent keeps
    // what arrived before the kill.
    Limits limits;
    limits.deadline = 200ms;
    Outcome out = runIsolated(
        []() -> std::string {
            // Write directly so the bytes leave the process before
            // the hang; the return value is never reached.
            for (;;) {
                struct timespec ts = {1, 0};
                nanosleep(&ts, nullptr);
            }
        },
        limits);
    EXPECT_EQ(out.kind, ExitKind::TimedOut);
}

TEST(Subprocess, FullBufferThenHangStillTimesOut)
{
    // A child that writes exactly one parent read buffer (4 KiB) and
    // then hangs.  After a read that fills its buffer the parent must
    // read on without blocking, or it waits on the live child past the
    // deadline.  The body writes to the channel itself, so this runs
    // runIsolated's loop over a Child::spawn(body).
    Limits limits;
    limits.deadline = 200ms;
    const std::string chunk(4096, 'x');
    const auto start = std::chrono::steady_clock::now();
    subprocess::Child child = subprocess::Child::spawn(
        [&chunk](int channel) -> int {
            if (::write(channel, chunk.data(), chunk.size()) !=
                static_cast<ssize_t>(chunk.size()))
                return 1;
            struct timespec ts = {30, 0};
            nanosleep(&ts, nullptr);
            return 0;
        },
        limits);
    const std::vector<subprocess::Child *> one{&child};
    while (subprocess::waitAny(one).empty()) {
    }
    const Outcome out = child.finish();
    EXPECT_LT(std::chrono::steady_clock::now() - start, 5s);
    EXPECT_EQ(out.kind, ExitKind::TimedOut) << out.describe();
    EXPECT_EQ(out.output, chunk);
}

TEST(Subprocess, CpuLimitKillsSpinningChild)
{
    Limits limits;
    limits.cpuSeconds = 1;
    // Wall-clock backstop in case RLIMIT_CPU misbehaves in some
    // environment; the CPU limit should fire first.
    limits.deadline = 30s;
    Outcome out = runIsolated(
        []() -> std::string {
            volatile unsigned long x = 0;
            for (;;)
                ++x;
        },
        limits);
    EXPECT_EQ(out.kind, ExitKind::Signaled);
    EXPECT_TRUE(out.signal == SIGXCPU || out.signal == SIGKILL);
}

TEST(Subprocess, DestructorReapsUnfinishedChild)
{
    // Spawn a sleeper and drop the handle: the destructor must
    // SIGKILL + reap, leaving no zombie (and not blocking).
    const auto start = std::chrono::steady_clock::now();
    {
        subprocess::Child child =
            subprocess::Child::spawn([]() -> std::string {
                struct timespec ts = {30, 0};
                nanosleep(&ts, nullptr);
                return "";
            });
        EXPECT_GT(child.pid(), 0);
    }
    EXPECT_LT(std::chrono::steady_clock::now() - start, 10s);
}

TEST(Subprocess, OutcomeDescribeShapes)
{
    Outcome exited;
    exited.kind = ExitKind::Exited;
    exited.exitCode = 3;
    EXPECT_EQ(exited.describe(), "exited 3");

    Outcome timedOut;
    timedOut.kind = ExitKind::TimedOut;
    EXPECT_EQ(timedOut.describe(), "timed out (killed by watchdog)");

    Outcome signaled;
    signaled.kind = ExitKind::Signaled;
    signaled.signal = SIGKILL;
    EXPECT_NE(signaled.describe().find("signal 9"), std::string::npos);
}

TEST(Subprocess, NewProcessGroupMakesChildTheGroupLeader)
{
    Limits limits;
    limits.newProcessGroup = true;
    const Outcome out = runIsolated(
        [] { return std::to_string(::getpgid(0)) + ":" +
                    std::to_string(::getpid()); },
        limits);
    ASSERT_TRUE(out.ok()) << out.describe();
    const std::size_t colon = out.output.find(':');
    ASSERT_NE(colon, std::string::npos);
    EXPECT_EQ(out.output.substr(0, colon), out.output.substr(colon + 1))
        << "the child's pid must be its pgid";

    // Without the flag the child stays in the parent's group.
    const Outcome same = runIsolated(
        [] { return std::to_string(::getpgid(0)); });
    ASSERT_TRUE(same.ok());
    EXPECT_EQ(same.output, std::to_string(::getpgid(0)));
}

TEST(Subprocess, InjectedEintrOnReadIsAbsorbed)
{
    // retryEintr around the parent's channel read: one injected EINTR
    // must be invisible to the caller.
    faultinject::FaultPlan plan;
    plan.site = faultinject::site::kSubprocessRead;
    plan.kind = faultinject::FaultKind::Eintr;
    faultinject::setPlan(plan);
    const Outcome out = runIsolated([] { return std::string("ok"); });
    EXPECT_TRUE(faultinject::planFired());
    faultinject::reset();
    ASSERT_TRUE(out.ok()) << out.describe();
    EXPECT_EQ(out.output, "ok");
}

TEST(Subprocess, InjectedEintrOnWaitpidIsAbsorbed)
{
    faultinject::FaultPlan plan;
    plan.site = faultinject::site::kSubprocessWaitpid;
    plan.kind = faultinject::FaultKind::Eintr;
    faultinject::setPlan(plan);
    const Outcome out = runIsolated([] { return std::string("ok"); });
    EXPECT_TRUE(faultinject::planFired());
    faultinject::reset();
    ASSERT_TRUE(out.ok()) << out.describe();
}

TEST(Subprocess, InjectedForkFailureSurfacesAsStatusError)
{
    faultinject::FaultPlan plan;
    plan.site = faultinject::site::kSubprocessFork;
    plan.kind = faultinject::FaultKind::Error;
    faultinject::setPlan(plan);
    EXPECT_THROW(runIsolated([] { return std::string("never"); }),
                 StatusError);
    EXPECT_TRUE(faultinject::planFired());
    faultinject::reset();
    // One-shot: the next spawn succeeds (this is what lets the batch
    // runner's transient-retry policy heal a flaky fork).
    const Outcome out = runIsolated([] { return std::string("ok"); });
    ASSERT_TRUE(out.ok());
}

TEST(Subprocess, InjectedKillFailureDelaysButNeverWedgesTheParent)
{
    // The watchdog's SIGKILL fails once; finish() must still kill
    // the hung child instead of waiting out its 30 s sleep.
    faultinject::FaultPlan plan;
    plan.site = faultinject::site::kSubprocessKill;
    plan.kind = faultinject::FaultKind::Error;
    faultinject::setPlan(plan);
    Limits limits;
    limits.deadline = 200ms;
    const auto start = std::chrono::steady_clock::now();
    const Outcome out = runIsolated(
        []() -> std::string {
            struct timespec ts = {30, 0};
            nanosleep(&ts, nullptr);
            return "";
        },
        limits);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_TRUE(faultinject::planFired());
    faultinject::reset();
    EXPECT_EQ(out.kind, ExitKind::TimedOut);
    EXPECT_LT(elapsed, 5s);
}

TEST(Subprocess, WaitAnyReturnsAtOnceForAnEmptySet)
{
    // The zero-fd poll with no deadline would block forever.
    EXPECT_TRUE(subprocess::waitAny({}).empty());
}

TEST(Subprocess, WaitAnyReturnsWhenTheSliceRunsOut)
{
    // A hung child with no deadline: each slice ends without it, so
    // a caller can check its stop condition and kill it.
    subprocess::Child child =
        subprocess::Child::spawn([](int) -> int {
            struct timespec ts = {30, 0};
            nanosleep(&ts, nullptr);
            return 0;
        });
    const std::vector<subprocess::Child *> one{&child};
    const auto start = std::chrono::steady_clock::now();
    EXPECT_TRUE(subprocess::waitAny(one, 50ms).empty());
    EXPECT_TRUE(subprocess::waitAny(one, 50ms).empty());
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_GE(elapsed, 100ms);
    EXPECT_LT(elapsed, 5s);
    child.kill();
    const Outcome out = child.finish();
    EXPECT_EQ(out.kind, ExitKind::Signaled);
    EXPECT_EQ(out.signal, SIGKILL);
}

TEST(Subprocess, ChildHoldsNoInheritedDescriptor)
{
    // Parallel fuzz campaigns spawn children from several threads at
    // once: one that kept a sibling's channel end would delay the
    // sibling's EOF until it exits itself.  A pipe opened before the
    // spawn stands in for that channel.
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const Outcome out = runIsolated([&fds] {
        const bool open = ::fcntl(fds[0], F_GETFD) != -1 ||
            ::fcntl(fds[1], F_GETFD) != -1;
        return std::string(open ? "open" : "closed");
    });
    ::close(fds[0]);
    ::close(fds[1]);
    ASSERT_TRUE(out.ok()) << out.describe();
    EXPECT_EQ(out.output, "closed");
}

TEST(Subprocess, OutcomeCarriesThePid)
{
    subprocess::Child child = subprocess::Child::spawn(
        [] { return std::to_string(::getpid()); });
    const pid_t pid = child.pid();
    const std::vector<subprocess::Child *> one{&child};
    while (subprocess::waitAny(one).empty()) {
    }
    const Outcome out = child.finish();
    ASSERT_TRUE(out.ok()) << out.describe();
    EXPECT_EQ(out.pid, pid);
    EXPECT_EQ(out.output, std::to_string(pid));
}

/** A persistent body: echo each chunk back until EOF. */
int
echoUntilEof(int channel)
{
    char buf[64];
    ssize_t n;
    while ((n = ::read(channel, buf, sizeof(buf))) > 0) {
        if (::write(channel, buf, static_cast<std::size_t>(n)) != n)
            return 1;
    }
    return n == 0 ? 0 : 2;
}

TEST(Subprocess, ChannelIsBidirectionalAndRetireEndsTheChild)
{
    subprocess::Child child = subprocess::Child::spawn(echoUntilEof);
    const pid_t pid = child.pid();
    ASSERT_EQ(::write(child.fd(), "ping", 4), 4);
    char buf[4] = {};
    ASSERT_EQ(::read(child.fd(), buf, sizeof(buf)), 4);
    EXPECT_EQ(std::string(buf, 4), "ping");

    // EOF is the goodbye: the child leaves well inside the grace,
    // and is reaped (not just signalled) by the time retire returns.
    const auto start = std::chrono::steady_clock::now();
    child.retire(10s);
    EXPECT_LT(std::chrono::steady_clock::now() - start, 5s);
    EXPECT_NE(::kill(pid, 0), 0) << "retired child " << pid
                                 << " still exists";
}

TEST(Subprocess, RetireKillsAChildThatIgnoresEof)
{
    subprocess::Child child =
        subprocess::Child::spawn([](int) -> int {
            struct timespec ts = {30, 0};
            nanosleep(&ts, nullptr);
            return 0;
        });
    const pid_t pid = child.pid();
    const auto start = std::chrono::steady_clock::now();
    child.retire(200ms);
    EXPECT_LT(std::chrono::steady_clock::now() - start, 10s);
    EXPECT_NE(::kill(pid, 0), 0);
}

TEST(Subprocess, KillKeepsTheChildsOwnDeathShape)
{
    // kill() on a child that already died must not relabel it: the
    // decoded outcome is its own signal, not our SIGKILL and not a
    // watchdog timeout.
    subprocess::Child child =
        subprocess::Child::spawn([](int) -> int {
            std::raise(SIGTERM);
            return 0;
        });
    const std::vector<subprocess::Child *> one{&child};
    while (subprocess::waitAny(one).empty()) {
    }
    child.kill();
    const Outcome out = child.finish();
    EXPECT_EQ(out.kind, ExitKind::Signaled);
    EXPECT_EQ(out.signal, SIGTERM);
}

} // namespace
} // namespace lkmm
