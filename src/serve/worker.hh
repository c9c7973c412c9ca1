/**
 * @file
 * The crash-only execution tier of lkmm-serve: a supervised pool of
 * persistent forked worker processes.
 *
 * The daemon's in-process engine shares an address space with every
 * client: one segfault, runaway recursion, or OOM triggered by a
 * hostile litmus source takes down the daemon and every in-flight
 * conversation.  The worker tier moves verification behind a fork
 * boundary — the same containment the PR-2 sandbox gives the batch
 * sweep — while keeping the workers *persistent*, so the fork cost
 * is paid per worker lifetime, not per request.
 *
 * Mechanics: each worker is a subprocess::Child — a forked copy of
 * the daemon that answers JSON frames on its socketpair channel
 * until EOF, through base/channel's persistent body and request/reply
 * call.  The parent owns the watchdog: it waits for each reply under
 * the request deadline plus a grace, and SIGKILLs a worker that
 * overruns it.
 * Every way a worker can die maps onto the subprocess exit taxonomy
 * and from there onto a sound degraded response:
 *
 *   worker fate                     response to that one client
 *   ------------------------------  -----------------------------
 *   replies ok                      the verdict (cached by parent)
 *   replies error                   structured error + retryable
 *   killed by signal / exits        Unknown{worker-crash}
 *   watchdog deadline               Unknown{worker-timeout}
 *   none free in time (never run)   Unknown{deadline} if the request
 *                                   has one, else {worker-unavailable}
 *
 * Supervision is self-healing: worker deaths leave a deficit that a
 * supervisor thread refills, sleeping a base/retry exponential
 * backoff between respawns while the pool is crash-looping (the
 * consecutive-crash counter resets on the first healthy reply), so
 * a permanently poisonous input cannot turn the daemon into a fork
 * bomb.  Workers are also retired preventively — after
 * recycleRequests served or past an RSS high-water mark — closing
 * the leak-accumulation window that persistent processes open.
 *
 * The poison-pill quarantine is the other half of crash-looping
 * defense: requests are fingerprinted by their canonical cache key,
 * crashes recorded under their digit-normalized failure signature
 * (base/retry), and a key that has crashed workers too often is
 * refused up front — fast, with the recorded reason — instead of
 * burning another worker per retry.
 *
 * Workers deliberately stay in the daemon's process group: the
 * chaos harness proves "no worker outlives the schedule" with the
 * same /proc pgid scan it uses for sandbox children.
 */

#ifndef LKMM_SERVE_WORKER_HH
#define LKMM_SERVE_WORKER_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <sys/types.h>

#include "base/budget.hh"
#include "base/json.hh"
#include "base/retry.hh"
#include "base/status.hh"
#include "base/subprocess.hh"
#include "exec/engine_config.hh"
#include "lkmm/runner.hh"

namespace lkmm::serve
{

struct WorkerOptions
{
    /** Worker processes to keep alive. */
    std::size_t count = 1;
    /** Retire a worker after this many requests (0 = never). */
    std::uint64_t recycleRequests = 0;
    /** Retire a worker whose RSS exceeds this (0 = never). */
    std::size_t rssLimitMb = 0;
    /**
     * For a request with no deadline of its own: the longest wait for
     * a worker, then the watchdog on its run, counted afresh once it
     * has one (0 = wait indefinitely).
     */
    std::chrono::milliseconds defaultDeadline{0};
    /**
     * Watchdog slack past a request's own deadline: the engine's
     * wall-clock budget should trip first (a sound Unknown with the
     * bound named), the SIGKILL is for workers too wedged to honor
     * it.
     */
    std::chrono::milliseconds dispatchGrace{250};
    /** Graceful-retirement wait before escalating to SIGKILL. */
    std::chrono::milliseconds shutdownGrace{500};
    /**
     * Crash-loop backoff between respawns (base/retry).  Delays are
     * deterministic given the pool's fixed seed, so backoff-capping
     * tests replay identically.
     */
    retry::RetryPolicy respawn = defaultRespawnPolicy();

    static retry::RetryPolicy
    defaultRespawnPolicy()
    {
        retry::RetryPolicy policy;
        policy.baseDelay = std::chrono::microseconds(10000);
        policy.maxDelay = std::chrono::microseconds(2000000);
        policy.multiplier = 2.0;
        policy.jitter = 0.25;
        return policy;
    }
};

/** One request crossing the fork boundary. */
struct WorkerRequest
{
    /** Litmus test name: fault-injection context and diagnostics. */
    std::string name;
    /** Raw litmus source (re-parsed in the worker). */
    std::string litmus;
    /** Model spec. */
    std::string model;
    /**
     * Numeric budget for the run.  cancel/shared do not cross the
     * fork; with a deadline, execute() tightens the wall-clock field
     * to the time left when the request is written, after any wait
     * for a worker.
     */
    RunBudget budget;
    /** Engine selection, carried as the mode name on the wire. */
    EnumerateOptions enumerate;
    bool hasDeadline = false;
    std::chrono::steady_clock::time_point deadlineAt{};
};

/** What dispatching one request produced. */
struct WorkerOutcome
{
    enum class Kind
    {
        /** result holds the canonical result object. */
        Ok,
        /** The worker reported a structured failure (error holds it). */
        Error,
        /** The worker died mid-request (detail says how). */
        Crashed,
        /** The parent watchdog killed an over-deadline worker. */
        TimedOut,
        /**
         * No worker was free by the request's deadline (without one,
         * within defaultDeadline), or the pool is stopping; the
         * request never ran.
         */
        Unavailable,
    };

    Kind kind = Kind::Unavailable;
    json::Value result;
    Status error;
    /** Human decode for Crashed/TimedOut ("killed by signal 11 ..."). */
    std::string detail;
};

struct WorkerPoolStats
{
    std::uint64_t requests = 0;
    std::uint64_t crashes = 0;
    std::uint64_t timeouts = 0;
    /** Workers spawned beyond the initial pool (the heal count). */
    std::uint64_t restarts = 0;
    std::uint64_t recycles = 0;
    std::uint64_t spawnFailures = 0;
    /** Total backoff slept by the supervisor (the respawn-rate cap). */
    std::uint64_t backoffTotalUs = 0;
    std::uint64_t consecutiveCrashes = 0;
};

class WorkerPool
{
  public:
    /**
     * Spawn the initial workers and start the supervisor.  Spawn
     * failures here do not throw: the pool starts degraded and the
     * supervisor heals the deficit with backoff — configuration
     * errors belong to the Server constructor, resource pressure to
     * the crash-only machinery.
     */
    explicit WorkerPool(WorkerOptions opts);
    /**
     * Drain-aware shutdown: close every channel (an idle worker
     * reads EOF and exits cleanly; a busy one finishes its request
     * first), wait shutdownGrace, SIGKILL stragglers, reap all.
     * Callers drain in-flight execute() calls first — the Server
     * joins its connection threads before this.
     */
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /**
     * Wait on the calling thread for an idle worker, first come first
     * served (so the worker count caps requests in flight), dispatch
     * the request to it and decode whatever comes back.  Never
     * throws; every failure shape is a WorkerOutcome kind.
     */
    WorkerOutcome execute(const WorkerRequest &req);

    WorkerPoolStats stats() const;

    /** Per-worker state for the --ping health surface. */
    json::Value healthJson() const;

    /** Pids of live workers (tests prove none outlive shutdown). */
    std::vector<pid_t> livePids() const;

  private:
    struct Worker
    {
        explicit Worker(subprocess::Child c) : child(std::move(c)) {}

        subprocess::Child child;
        std::uint64_t served = 0;
        bool busy = false;
    };

    /** Throws StatusError/bad_alloc on spawn failure. */
    static std::unique_ptr<Worker> spawnOne();
    /**
     * Mark an idle worker busy and count the request, or return null
     * once `deadline` passes or the pool is stopping.
     */
    Worker *acquire(
        const std::optional<std::chrono::steady_clock::time_point>
            &deadline);
    /** An idle live worker, or null.  Caller holds mutex_. */
    Worker *idleWorker() const;
    /** Wake the oldest waiter in acquire().  Caller holds mutex_. */
    void wakeFront();
    /** Remove w from the pool and hand it over.  Caller holds mutex_. */
    std::unique_ptr<Worker> take(Worker *w);
    void noteWorkerDeath();
    void supervisorLoop();

    WorkerOptions opts_;

    mutable std::mutex mutex_;
    std::condition_variable supervisorCv_;
    std::vector<std::unique_ptr<Worker>> workers_;
    /**
     * The callers waiting in acquire(), oldest first, each by its own
     * condition variable.  Only the front one may take an idle worker,
     * so it is the only one a freed worker wakes.
     */
    std::deque<std::condition_variable *> waiters_;
    /** Workers owed to the pool (deaths + failed spawns). */
    std::size_t deficit_ = 0;
    bool stopping_ = false;
    WorkerPoolStats stats_;

    std::thread supervisor_;
};

} // namespace lkmm::serve

#endif // LKMM_SERVE_WORKER_HH
