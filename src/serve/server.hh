/**
 * @file
 * The lkmm-serve daemon core: a unix-socket verification server
 * with admission control, load-shedding, and a crash-safe warm
 * verdict cache.
 *
 * Requests are length-prefixed JSON frames (serve/protocol.hh); the
 * default operation submits a litmus source plus a model spec and
 * gets back the verdict a worker computes, or a cache hit
 * byte-identical to it.
 *
 * The robustness contract, in priority order:
 *
 *  1. Soundness above all.  The daemon never invents a verdict:
 *     every Allow/Forbid it returns came from a complete run (or a
 *     journal replay of one), and every degradation — queue full,
 *     deadline passed, worker died, truncated run — reports
 *     Verdict::Unknown with the reason, exactly as the
 *     budget machinery does everywhere else in the tree.
 *  2. One client cannot hurt another.  Admission control bounds the
 *     verification queue (excess load is shed, not buffered);
 *     per-request deadlines are fixed at admission; a malformed
 *     frame earns an error response; a disconnect mid-request
 *     aborts only that conversation (EPIPE is transient per client,
 *     see base/retry).
 *  3. Crashes lose at most the in-flight tail.  Verdicts persist
 *     through the CRC-journaled cache; kill -9 mid-append recovers
 *     the longest intact prefix on restart.  stop() (the SIGTERM
 *     path) drains in-flight requests, delivers their responses,
 *     then flushes the journal.
 *
 * Threading: one accept thread and one thread per live connection.
 * Parsing, cache lookups and framing happen on the connection
 * thread, so cache hits never touch a worker.  A miss waits there,
 * in arrival order, for a process-isolated worker from
 * serve/worker.hh and then hands it the request — a forked engine
 * whose segv/abort/OOM/hang costs exactly one response (a sound
 * Unknown{worker-crash} or {worker-timeout}), never the daemon.
 * Shed, crash, and error responses carry machine-readable
 * `retryable` + `retry_after_ms` fields so bounded-retry clients
 * need not guess.
 */

#ifndef LKMM_SERVE_SERVER_HH
#define LKMM_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "base/budget.hh"
#include "base/channel.hh"
#include "base/retry.hh"
#include "serve/cache.hh"
#include "serve/protocol.hh"
#include "serve/worker.hh"

namespace lkmm::serve
{

struct ServeOptions
{
    /** Unix socket to bind (stale files are replaced). */
    std::string socketPath;
    /** Default model spec for requests that don't name one. */
    std::string model = "lkmm";
    /**
     * Worker processes, and so the most misses verified at once
     * (0 = hardware concurrency).
     */
    std::size_t workers = 0;
    /**
     * Admission bound: misses waiting for or running on a worker.
     * The next request past the bound is shed with a sound
     * Unknown{queue-full} instead of stalling (0 = unbounded).
     */
    std::size_t maxPending = 64;
    /** Deadline applied when a request names none (0 = none). */
    std::chrono::milliseconds defaultDeadline{0};
    /** Cap on client-requested deadlines (0 = uncapped). */
    std::chrono::milliseconds maxDeadline{0};
    /** Frame-size admission check (base/channel.hh). */
    std::uint32_t maxFrameBytes = channel::kDefaultMaxFrameBytes;
    /** Verdict cache configuration. */
    CacheOptions cache;
    /**
     * Engine selection plus baseline per-request budget (see
     * exec/engine_config.hh; all-zero budget = unlimited).  A
     * request deadline tightens engine.budget.wallClock on a
     * per-request copy; the config itself is server-lifetime
     * constant and is part of every cache key.
     */
    EngineConfig engine;
    /** Retire a worker after N requests (0 = never). */
    std::uint64_t workerRecycleRequests = 0;
    /** Retire a worker past this RSS (0 = never). */
    std::size_t workerRssLimitMb = 0;
    /**
     * Watchdog for requests that carry no deadline, counted from when
     * one gets a worker; it also caps the wait for one (0 = wait
     * indefinitely).
     */
    std::chrono::milliseconds workerDeadline{0};
    /** Crash-loop respawn backoff. */
    retry::RetryPolicy workerRespawn =
        WorkerOptions::defaultRespawnPolicy();
    /**
     * Poison-pill quarantine: refuse a request fingerprint (its
     * canonical cache key) after this many worker crashes/timeouts,
     * instead of burning another worker per retry (0 = off).
     */
    int quarantineCrashes = 3;
};

struct ServerStats
{
    std::uint64_t connections = 0;
    std::uint64_t requests = 0;
    std::uint64_t served = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t shedQueueFull = 0;
    std::uint64_t shedDeadline = 0;
    std::uint64_t errors = 0;
    std::uint64_t disconnects = 0;
    /** Requests whose worker died mid-run. */
    std::uint64_t workerCrashes = 0;
    /** Requests whose worker hit the watchdog. */
    std::uint64_t workerTimeouts = 0;
    /** Sheds because no worker arrived in time. */
    std::uint64_t shedWorkerUnavailable = 0;
    /** Requests refused up front by the poison-pill quarantine. */
    std::uint64_t quarantineRefusals = 0;
};

class Server
{
  public:
    /**
     * Bind and listen, open the cache (replaying its journal), and
     * validate the default model spec — every configuration error
     * throws here, before the daemon reports ready.
     */
    explicit Server(ServeOptions opts);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Spawn the accept loop; returns immediately. */
    void start();

    /**
     * Graceful shutdown: stop accepting, half-close live
     * connections (in-flight requests finish and their responses
     * are delivered), join everything, flush and close the cache.
     * Idempotent.
     */
    void stop();

    /**
     * start(), then block until cancel fires or a client requests
     * shutdown, then stop().  The daemon main loop.
     */
    void run(const CancelToken *cancel);

    /** Did a client issue {"op":"shutdown"}? */
    bool shutdownRequested() const;

    const std::string &socketPath() const { return opts_.socketPath; }
    ServerStats stats() const;
    CacheStats cacheStats() const;
    /** Null once stop() has retired the workers. */
    const WorkerPool *workerPool() const
    {
        return workerPool_ ? &*workerPool_ : nullptr;
    }

  private:
    struct Connection
    {
        int fd = -1;
        std::thread thread;
        std::atomic<bool> done{false};
    };

    void acceptLoop();
    void serveConnection(int fd);
    void reapConnections(bool all);

    /** Dispatch one request payload to its reply; never throws. */
    std::string handleFrame(const std::string &payload);
    std::string handleVerify(const json::Value &request);
    /**
     * Throw for an unknown or invalid model spec (registry rules).
     * A spec is validated once: a cat file is not re-parsed per
     * request.
     */
    void validateSpec(const std::string &spec);
    /**
     * Execution of one admitted request on the calling connection
     * thread: wait for a worker and dispatch to it, decode the
     * outcome (crash/timeout/deadline → sound Unknown, the
     * quarantine ledger updated), cache complete results.
     */
    std::string dispatchToWorker(
        const Program &prog, const std::string &spec,
        const std::string &key, const std::string &source,
        bool nocache, bool hasDeadline,
        std::chrono::steady_clock::time_point deadlineAt);
    json::Value statsObject() const;

    ServeOptions opts_;
    /** opts_.engine's canonical JSON, the engine part of every key. */
    std::string engineJson_;
    int listenFd_ = -1;
    std::optional<VerdictCache> cache_;
    std::optional<WorkerPool> workerPool_;
    retry::Quarantine quarantine_;

    std::mutex specsMutex_;
    std::set<std::string> validatedSpecs_;

    std::thread acceptThread_;
    std::atomic<bool> started_{false};
    std::atomic<bool> stopping_{false};
    std::atomic<bool> shutdownRequested_{false};

    std::mutex connMutex_;
    std::vector<std::unique_ptr<Connection>> connections_;

    /** Misses waiting for or running on a worker (admission). */
    std::atomic<std::size_t> pending_{0};

    mutable std::mutex statsMutex_;
    ServerStats stats_;
};

} // namespace lkmm::serve

#endif // LKMM_SERVE_SERVER_HH
