/**
 * @file
 * The one process handle for crash isolation.
 *
 * The enumerator is exponential and the input corpus untrusted; a
 * segfault, OOM, or runaway loop in one test must cost exactly that
 * test, never the sweep or the daemon.  Every forked child in the
 * tree goes through Child: Child::spawn forks, connects the child by
 * one bidirectional socketpair channel, applies setrlimit caps in
 * the child, runs a body on the channel, and _exits with the body's
 * code.  Two bodies exist:
 *
 *   - the one-shot spawn(work): the callback's string result travels
 *     back over the channel (fork-per-task sweeps, chaos schedules,
 *     and the fuzz oracle side that confirms a side-worker death);
 *   - the persistent body, base/channel's serveFrames, which answers
 *     request frames until EOF on the channel (the lkmm-serve worker
 *     tier and lkmm-fuzz's side worker).  Its parent sends each
 *     request through channel::call, the one request/reply loop.
 *
 * The parent owns the watchdog: waitAny polls a set of channels
 * until the nearest deadline and SIGKILLs a child that overruns it;
 * channel::call does the same per request for a persistent child.
 *
 * The exit protocol makes every failure mode distinguishable:
 *
 *   outcome           meaning
 *   ----------------  ----------------------------------------------
 *   Exited(0)+output  callback completed; output is its payload
 *   Exited(!=0)       callback threw / runtime died "cleanly"
 *                     (sanitizer aborts land here too)
 *   Signaled(sig)     hard crash: SIGSEGV, SIGABRT, rlimit SIGKILL,
 *                     or the parent's kill()
 *   TimedOut          parent watchdog killed a past-deadline child
 *
 * The caller maps these onto its own taxonomy (the batch runner
 * turns Signaled into TestFailure{phase:"crash"}).
 *
 * The child runs in a forked copy of the parent — no exec — so the
 * body can use any library state, but it must not rely on threads
 * (only the forking thread survives fork).  Every descriptor but
 * stdio and the channel is closed in the child before the body
 * runs.  A parallel fuzz campaign spawns from pool threads, and a
 * lock another thread held at the fork stays held in the child.  A
 * body may therefore take only locks that are released across fork
 * (malloc's and stdio's by glibc, base/faultinject's by its atfork
 * handlers) or that no other parent thread can hold; DESIGN.md
 * ("Fork safety") lists them.
 */

#ifndef LKMM_BASE_SUBPROCESS_HH
#define LKMM_BASE_SUBPROCESS_HH

#include <chrono>
#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include <sys/types.h>

namespace lkmm::subprocess
{

/** Resource caps applied to one child. */
struct Limits
{
    /**
     * Wall-clock deadline enforced by the parent watchdog
     * (0 = none).  This is the only cap that catches a child
     * sleeping or blocked — rlimits only meter CPU.
     */
    std::chrono::nanoseconds deadline{0};
    /** RLIMIT_CPU in seconds (0 = unlimited). */
    unsigned cpuSeconds = 0;
    /**
     * RLIMIT_AS in bytes (0 = unlimited).  Leave unset under
     * AddressSanitizer: ASan reserves terabytes of shadow VA.
     */
    std::size_t memoryBytes = 0;
    /**
     * Run the child in its own process group (setpgid(0, 0)).  Two
     * payoffs: the watchdog SIGKILL hits the whole group, so a child
     * that itself forked cannot leave orphaned grandchildren, and a
     * post-run scan for surviving group members (the child's pid is
     * the pgid) can *prove* nothing leaked — which is exactly what
     * lkmm-chaos does after every schedule.
     */
    bool newProcessGroup = false;
};

/** How a child ended. */
enum class ExitKind
{
    /** exit(code); code 0 means the callback ran to completion. */
    Exited,
    /** Killed by a signal (crash or rlimit enforcement). */
    Signaled,
    /** SIGKILLed by the parent watchdog past Limits::deadline. */
    TimedOut,
};

/** Decoded wait status plus everything the child sent back. */
struct Outcome
{
    ExitKind kind = ExitKind::Exited;
    /** Exit code when kind == Exited. */
    int exitCode = 0;
    /** Terminating signal when kind == Signaled. */
    int signal = 0;
    /** Bytes the child wrote to the channel and nobody read. */
    std::string output;
    /**
     * The reaped child's pid; with Limits::newProcessGroup it is
     * also the pgid a leak scan looks for.
     */
    pid_t pid = -1;

    bool ok() const { return kind == ExitKind::Exited && exitCode == 0; }

    /** "exited 0" / "killed by signal 11 (SIGSEGV)" / "timed out". */
    std::string describe() const;
};

/**
 * One live sandboxed child.  Move-only; the destructor reaps an
 * unfinished child (SIGKILL + waitpid) so leaking a Child cannot
 * leak a process.
 */
class Child
{
  public:
    /**
     * What a child runs on its end of the channel.  The return
     * value is the child's exit code; a body that throws exits
     * with kCallbackError.
     */
    using Body = std::function<int(int channel)>;

    /**
     * Fork a child connected to the parent by one SOCK_STREAM
     * socketpair channel, apply `limits` in it, run body(channel)
     * and _exit with its code — a child never returns into the
     * forked copy of the parent's stack.  Throws
     * StatusError(Internal) when socketpair/fork themselves fail.
     */
    static Child spawn(const Body &body, const Limits &limits = {});

    /**
     * The one-shot body: run work() in the child, write the
     * returned string to the channel, _exit(0).  A callback that
     * throws makes the child _exit(kCallbackError) with nothing on
     * the channel.
     */
    static Child spawn(const std::function<std::string()> &work,
                       const Limits &limits = {});

    Child(Child &&other) noexcept;
    Child &operator=(Child &&other) noexcept;
    Child(const Child &) = delete;
    Child &operator=(const Child &) = delete;
    ~Child();

    /** _exit code used when the callback throws. */
    static constexpr int kCallbackError = 125;

    pid_t pid() const { return pid_; }

    /** The parent's end of the channel; -1 once it has hit EOF. */
    int fd() const { return fd_; }

    /**
     * SIGKILL the child (its whole group under
     * Limits::newProcessGroup) without labelling the outcome: a
     * child that already died keeps its own wait status.  Passes
     * the subprocess-kill site; an injected failure only delays
     * the kill until finish().
     */
    void kill();

    /** kill(), recording the outcome as TimedOut: the watchdog's kill. */
    void killTimedOut();

    /**
     * Reap the child (blocking waitpid) and decode its outcome.
     * First drains any channel data not yet read; after kill()
     * it repeats the SIGKILL, uninjected, so the drain cannot
     * block on a child that is still running.
     */
    Outcome finish();

    /**
     * Retire a persistent child: half-close the channel (the child
     * reads EOF, its signal to finish up and exit), wait up to
     * `grace` for the exit, then SIGKILL; reap.  Never throws: a
     * reap that fails is left to the destructor, so the child is
     * never leaked.
     */
    void retire(std::chrono::milliseconds grace);

  private:
    friend std::vector<std::size_t>
    waitAny(const std::vector<Child *> &children,
            std::chrono::milliseconds slice);

    Child() = default;

    /**
     * Drain available channel data (call when fd() polls readable).
     * Returns true once EOF is reached — the child has no more
     * output and can be reaped without blocking for long.
     */
    bool onReadable();
    void signalKill();
    void reapForDestructor();

    pid_t pid_ = -1;
    int fd_ = -1;
    bool processGroup_ = false;
    bool killRequested_ = false;
    bool timedOut_ = false;
    bool finished_ = false;
    std::optional<std::chrono::steady_clock::time_point> deadline_;
    std::string output_;
};

/**
 * The one watchdog wait: poll the channels of `children` until
 * output arrives, the nearest deadline passes or `slice` runs out
 * (a negative slice waits for the deadlines alone).  Drains what
 * arrives, SIGKILLs every child past its deadline (outcome
 * TimedOut), and returns the indices, in order, of the children
 * that are done — at EOF or killed — and ready for finish().  The
 * result may be empty: output that ended no child, a slice that ran
 * out, or a signal that interrupted the poll, so a caller's loop
 * re-checks its stop condition before waiting again.  An empty set
 * returns at once: there is nothing to wait for.  Throws
 * StatusError(Internal) when poll fails.
 */
std::vector<std::size_t>
waitAny(const std::vector<Child *> &children,
        std::chrono::milliseconds slice = std::chrono::milliseconds(-1));

/**
 * The synchronous one-shot path: spawn(work), wait out the
 * deadline, reap.
 */
Outcome runIsolated(const std::function<std::string()> &work,
                    const Limits &limits = {});

/**
 * Resident set size of a live process in KiB, from
 * /proc/<pid>/statm (0 when the process is gone or unreadable).
 * This is the measured-RSS counterpart to Limits::memoryBytes:
 * RLIMIT_AS turns an over-budget child into a crash, while a parent
 * polling this can retire it gracefully first — and it stays usable
 * under ASan, where address-space limits cannot be.
 */
std::size_t residentSetKb(pid_t pid);

} // namespace lkmm::subprocess

#endif // LKMM_BASE_SUBPROCESS_HH
