#include "serve/server.hh"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "base/eintr.hh"
#include "base/faultinject.hh"
#include "base/scheduler.hh"
#include "base/status.hh"
#include "base/strutil.hh"
#include "litmus/parser.hh"
#include "lkmm/runner.hh"
#include "model/registry.hh"

namespace lkmm::serve
{

namespace
{

std::string
errorReply(const Status &status)
{
    json::Object o;
    o["status"] = "error";
    o["code"] = statusCodeName(status.code());
    o["message"] = status.message();
    // A transient failure (resource pressure, interruption) may heal
    // on retry; a persistent one (parse error, bad argument) will
    // reproduce — tell the client which, so bounded-retry loops need
    // not parse messages.
    o["retryable"] =
        retry::classify(status) == retry::FailureClass::Transient;
    return json::Value(std::move(o)).serialize();
}

/**
 * A shed response is sound degradation, not an error: the daemon
 * declined to spend the work, so the only honest verdict is Unknown
 * — the same contract as a tripped RunBudget bound.  `retryable`
 * and `retry_after_ms` are the machine-readable retry hint: sheds
 * from load (queue-full, deadline, worker-unavailable) heal once
 * pressure drops; a quarantine refusal never does.
 */
std::string
shedReply(const char *reason, bool retryable, int retryAfterMs,
          const std::string &detail = std::string())
{
    json::Object o;
    o["status"] = "shed";
    o["reason"] = reason;
    o["verdict"] = verdictName(Verdict::Unknown);
    o["retryable"] = retryable;
    o["retry_after_ms"] = static_cast<std::int64_t>(retryAfterMs);
    if (!detail.empty())
        o["detail"] = detail;
    return json::Value(std::move(o)).serialize();
}

/**
 * The response for a request whose isolated worker died mid-run
 * (crash-only contract: the death is decoded, the client gets a
 * sound Unknown, the daemon keeps serving).  Crashes are retryable
 * until the quarantine decides the input itself is the poison.
 */
std::string
crashReply(const char *reason, const std::string &detail,
           bool retryable, int retryAfterMs)
{
    json::Object o;
    o["status"] = "crash";
    o["reason"] = reason;
    o["detail"] = detail;
    o["verdict"] = verdictName(Verdict::Unknown);
    o["retryable"] = retryable;
    o["retry_after_ms"] = static_cast<std::int64_t>(retryAfterMs);
    return json::Value(std::move(o)).serialize();
}

/**
 * {"cached":C,"result":R,"status":"ok"} around a result's canonical
 * text.  The fields are in canonical order, so the bytes are those of
 * serializing the equivalent object: a hit replies exactly what its
 * cold run replied, but for the marker.
 */
std::string
okReply(bool cached, const std::string &result)
{
    std::string reply;
    reply.reserve(result.size() + 48);
    reply += cached ? "{\"cached\":true" : "{\"cached\":false";
    reply += ",\"result\":";
    reply += result;
    reply += ",\"status\":\"ok\"}";
    return reply;
}

} // namespace

/* ------------------------------------------------------------------ */
/* Server lifecycle                                                   */
/* ------------------------------------------------------------------ */

Server::Server(ServeOptions opts)
    : opts_(std::move(opts)), quarantine_(0, opts_.quarantineCrashes)
{
    if (opts_.socketPath.empty()) {
        throw StatusError(Status(StatusCode::InvalidArgument,
                                 "serve: socket path is required"));
    }
    sockaddr_un addr{};
    if (opts_.socketPath.size() >= sizeof(addr.sun_path)) {
        throw StatusError(Status(
            StatusCode::InvalidArgument,
            format("serve: socket path too long for sockaddr_un "
                   "(%zu bytes, limit %zu): %s",
                   opts_.socketPath.size(), sizeof(addr.sun_path) - 1,
                   opts_.socketPath.c_str())));
    }

    // Fail configuration errors here, before the daemon is ready:
    // the default model spec, the cache journal, then the socket.
    validateSpec(opts_.model);
    engineJson_ = json::Value(opts_.engine.toJson()).serialize();
    cache_.emplace(opts_.cache);
    // The isolated worker processes, with the count-based poison-pill
    // quarantine in front of them.  Spawn failures don't throw — the
    // pool starts degraded and its supervisor heals it with backoff.
    // Constructed before start() so the initial forks happen while
    // this process is still single-threaded.
    WorkerOptions wo;
    wo.count = opts_.workers == 0 ? ThreadPool::hardwareThreads()
                                  : opts_.workers;
    wo.recycleRequests = opts_.workerRecycleRequests;
    wo.rssLimitMb = opts_.workerRssLimitMb;
    wo.defaultDeadline = opts_.workerDeadline;
    wo.respawn = opts_.workerRespawn;
    workerPool_.emplace(wo);

    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listenFd_ < 0) {
        throw StatusError(Status(
            StatusCode::IoError,
            format("serve: socket() failed: %s",
                   std::strerror(errno))));
    }
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, opts_.socketPath.c_str(),
                opts_.socketPath.size() + 1);
    // The daemon owns its socket path: a stale file from a crashed
    // predecessor (the chaos restart scenario) is replaced, not an
    // error.
    ::unlink(opts_.socketPath.c_str());
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listenFd_, SOMAXCONN) != 0) {
        const int err = errno;
        ::close(listenFd_);
        listenFd_ = -1;
        throw StatusError(Status(
            StatusCode::IoError,
            format("serve: bind/listen on %s failed: %s",
                   opts_.socketPath.c_str(), std::strerror(err))));
    }
}

Server::~Server()
{
    stop();
}

void
Server::start()
{
    if (started_.exchange(true))
        return;
    acceptThread_ = std::thread([this] { acceptLoop(); });
}

void
Server::stop()
{
    stopping_.store(true);
    if (acceptThread_.joinable())
        acceptThread_.join();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
        ::unlink(opts_.socketPath.c_str());
    }
    {
        // Half-close every live connection: the peer's in-flight
        // request still runs to completion and its response is
        // still delivered (the worker pool is alive until below);
        // the connection thread then reads EOF and exits.
        std::lock_guard<std::mutex> lock(connMutex_);
        for (const auto &conn : connections_) {
            if (conn->fd >= 0)
                ::shutdown(conn->fd, SHUT_RD);
        }
    }
    reapConnections(true);
    // No connection thread is left inside the pool; now retire the
    // worker processes (graceful EOF first, SIGKILL stragglers —
    // none may outlive us).
    workerPool_.reset();
    if (cache_) {
        cache_->flush();
        cache_->close();
    }
}

void
Server::run(const CancelToken *cancel)
{
    start();
    while (!(cancel && cancel->cancelled()) &&
           !shutdownRequested_.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    stop();
}

bool
Server::shutdownRequested() const
{
    return shutdownRequested_.load();
}

void
Server::acceptLoop()
{
    while (!stopping_.load()) {
        reapConnections(false);
        pollfd pfd{};
        pfd.fd = listenFd_;
        pfd.events = POLLIN;
        const int ready =
            retryEintr(faultinject::site::kServeAccept, EIO,
                       [&] { return ::poll(&pfd, 1, 100); });
        if (ready <= 0)
            continue; // timeout or poll error: re-check the stop flag
        const int fd = retryEintr(
            faultinject::site::kServeAccept, ECONNABORTED, [&] {
                return ::accept4(listenFd_, nullptr, nullptr,
                                 SOCK_CLOEXEC);
            });
        if (fd < 0)
            continue; // a failed accept must never kill the daemon
        {
            std::lock_guard<std::mutex> lock(statsMutex_);
            ++stats_.connections;
        }
        auto conn = std::make_unique<Connection>();
        conn->fd = fd;
        Connection *raw = conn.get();
        raw->thread = std::thread([this, raw] {
            serveConnection(raw->fd);
            raw->done.store(true);
        });
        std::lock_guard<std::mutex> lock(connMutex_);
        connections_.push_back(std::move(conn));
    }
}

void
Server::reapConnections(bool all)
{
    std::lock_guard<std::mutex> lock(connMutex_);
    auto it = connections_.begin();
    while (it != connections_.end()) {
        Connection &conn = **it;
        if (!all && !conn.done.load()) {
            ++it;
            continue;
        }
        if (conn.thread.joinable())
            conn.thread.join();
        if (conn.fd >= 0)
            ::close(conn.fd);
        it = connections_.erase(it);
    }
}

/* ------------------------------------------------------------------ */
/* Request handling                                                   */
/* ------------------------------------------------------------------ */

void
Server::serveConnection(int fd)
{
    for (;;) {
        std::optional<std::string> payload;
        try {
            payload =
                channel::readFrame(fd, opts_.maxFrameBytes,
                                   faultinject::site::kServeRequestRead);
        } catch (const std::exception &e) {
            const Status status = statusOf(e);
            if (status.code() == StatusCode::InvalidArgument) {
                // Oversized frame: the declared length was rejected
                // before buffering, but the stream is desynced —
                // report the error, then drop the connection.
                try {
                    channel::writeFrame(
                        fd, errorReply(status),
                        faultinject::site::kServeResponseWrite);
                } catch (...) {
                }
                std::lock_guard<std::mutex> lock(statsMutex_);
                ++stats_.errors;
            } else {
                // Torn read / reset: this client's problem only.
                std::lock_guard<std::mutex> lock(statsMutex_);
                ++stats_.disconnects;
            }
            return;
        }
        if (!payload)
            return; // clean disconnect between frames
        {
            std::lock_guard<std::mutex> lock(statsMutex_);
            ++stats_.requests;
        }
        const std::string response = handleFrame(*payload);
        try {
            channel::writeFrame(fd, response,
                                faultinject::site::kServeResponseWrite);
        } catch (...) {
            // The client died while we replied; the verdict (and
            // any cache insert) is already safe, nobody else is
            // affected.
            std::lock_guard<std::mutex> lock(statsMutex_);
            ++stats_.disconnects;
            return;
        }
        std::lock_guard<std::mutex> lock(statsMutex_);
        ++stats_.served;
    }
}

std::string
Server::handleFrame(const std::string &payload)
{
    json::Value request;
    try {
        request = json::Value::parse(payload);
    } catch (const std::exception &e) {
        std::lock_guard<std::mutex> lock(statsMutex_);
        ++stats_.errors;
        return errorReply(statusOf(e));
    }
    const std::string op = request.getString("op", "verify");
    if (op == "verify")
        return handleVerify(request);
    if (op == "ping") {
        // The liveness probe doubles as the health surface:
        // per-worker state, restart and quarantine counts —
        // everything a supervisor needs to decide whether "alive"
        // also means "healthy".  "isolation" names the only tier,
        // for probes written when there were two.
        json::Object o;
        o["status"] = "ok";
        o["pong"] = true;
        o["isolation"] = "workers";
        o["workers"] = workerPool_->healthJson();
        o["quarantine_size"] = quarantine_.size();
        return json::Value(std::move(o)).serialize();
    }
    if (op == "stats") {
        json::Object o;
        o["status"] = "ok";
        o["stats"] = statsObject();
        return json::Value(std::move(o)).serialize();
    }
    if (op == "shutdown") {
        shutdownRequested_.store(true);
        json::Object o;
        o["status"] = "ok";
        o["draining"] = true;
        return json::Value(std::move(o)).serialize();
    }
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        ++stats_.errors;
    }
    return errorReply(Status(
        StatusCode::InvalidArgument,
        format("unknown op \"%s\" (known: verify, ping, stats, "
               "shutdown)",
               op.c_str())));
}

std::string
Server::handleVerify(const json::Value &request)
{
    const json::Value *litmus = request.get("litmus");
    if (!litmus || !litmus->isString()) {
        std::lock_guard<std::mutex> lock(statsMutex_);
        ++stats_.errors;
        return errorReply(Status(
            StatusCode::InvalidArgument,
            "verify request is missing the \"litmus\" source field"));
    }
    const std::string spec = request.getString("model", opts_.model);
    const bool nocache = request.getBool("nocache", false);

    Program prog;
    try {
        prog = parseLitmus(litmus->asString());
        validateSpec(spec); // reject unknown model specs up front
    } catch (const std::exception &e) {
        std::lock_guard<std::mutex> lock(statsMutex_);
        ++stats_.errors;
        return errorReply(statusOf(e));
    }

    const std::string key = cacheKey(
        canonicalFingerprint(prog, litmus->asString()), spec,
        engineJson_);

    // Cache hits are answered from the connection thread and never
    // touch the verification queue — repeat traffic is ~free and
    // cannot be shed.
    if (!nocache && cache_) {
        if (std::optional<std::string> hit = cache_->lookup(key)) {
            {
                std::lock_guard<std::mutex> lock(statsMutex_);
                ++stats_.cacheHits;
            }
            return okReply(true, *hit);
        }
    }

    // Poison-pill quarantine: a fingerprint that has already crashed
    // enough workers is refused up front — fast, with the recorded
    // reason, and without burning another worker on it.
    if (quarantine_.quarantined(key)) {
        {
            std::lock_guard<std::mutex> lock(statsMutex_);
            ++stats_.quarantineRefusals;
        }
        return shedReply("quarantined", /*retryable=*/false, 0,
                         quarantine_.lastSignature(key));
    }

    // Admission control: bound the misses waiting for or running on
    // a worker.  The (N+1)-th concurrent one is shed immediately
    // with a sound Unknown — the daemon degrades, it never stalls.
    const std::size_t prior =
        pending_.fetch_add(1, std::memory_order_relaxed);
    if (opts_.maxPending != 0 && prior >= opts_.maxPending) {
        pending_.fetch_sub(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(statsMutex_);
        ++stats_.shedQueueFull;
        return shedReply("queue-full", /*retryable=*/true, 25);
    }
    // Released on every path out of here, exceptions included.
    struct PendingSlot
    {
        std::atomic<std::size_t> &pending;
        ~PendingSlot() { pending.fetch_sub(1, std::memory_order_relaxed); }
    } slot{pending_};

    // The deadline is fixed at admission: time spent waiting for a
    // worker counts against it, so a stampede cannot stretch anyone's
    // latency contract.
    std::chrono::milliseconds deadline = opts_.defaultDeadline;
    if (const json::Value *d = request.get("deadline_ms");
        d && d->isInt() && d->asInt() > 0) {
        deadline = std::chrono::milliseconds(d->asInt());
    }
    if (opts_.maxDeadline.count() > 0 &&
        (deadline.count() == 0 || deadline > opts_.maxDeadline)) {
        deadline = opts_.maxDeadline;
    }
    const bool hasDeadline = deadline.count() > 0;
    const auto deadlineAt =
        std::chrono::steady_clock::now() + deadline;

    try {
        return dispatchToWorker(prog, spec, key, litmus->asString(),
                                nocache, hasDeadline, deadlineAt);
    } catch (const std::exception &e) {
        std::lock_guard<std::mutex> lock(statsMutex_);
        ++stats_.errors;
        return errorReply(statusOf(e));
    }
}

void
Server::validateSpec(const std::string &spec)
{
    {
        std::lock_guard<std::mutex> lock(specsMutex_);
        if (validatedSpecs_.count(spec))
            return;
    }
    // Outside the lock: a cat file parses here, and one slow spec
    // must not stall requests naming specs already validated.
    ModelRegistry::instance().factoryFor(spec);
    std::lock_guard<std::mutex> lock(specsMutex_);
    validatedSpecs_.insert(spec);
}

std::string
Server::dispatchToWorker(
    const Program &prog, const std::string &spec,
    const std::string &key, const std::string &source, bool nocache,
    bool hasDeadline, std::chrono::steady_clock::time_point deadlineAt)
{
    WorkerRequest wreq;
    wreq.name = prog.name;
    wreq.litmus = source;
    wreq.model = spec;
    wreq.hasDeadline = hasDeadline;
    wreq.deadlineAt = deadlineAt;
    // execute() tightens the wall clock to the deadline once a worker
    // is free.  Pointers cannot cross the fork boundary: the worker
    // runs under the numeric fields only.
    RunBudget budget = opts_.engine.budget;
    budget.cancel = nullptr;
    budget.shared = nullptr;
    wreq.budget = budget;
    wreq.enumerate = opts_.engine.enumerate;

    const WorkerOutcome out = workerPool_->execute(wreq);
    switch (out.kind) {
      case WorkerOutcome::Kind::Ok: {
        // Serialized once: the same bytes are stored, journaled and
        // replied.  The parent owns the cache (PR-7 journal
        // semantics are untouched by the fork boundary).  Only
        // complete runs are cached: an Unknown from a truncated run
        // describes this run's budget, not the test, and must never
        // be replayed.
        const std::string result = out.result.serialize();
        if (!nocache && cache_ &&
            out.result.getString("completeness", "") ==
                completenessName(Completeness::Complete)) {
            cache_->insert(key, result);
        }
        return okReply(false, result);
      }
      case WorkerOutcome::Kind::Error: {
        {
            std::lock_guard<std::mutex> lock(statsMutex_);
            ++stats_.errors;
        }
        return errorReply(out.error);
      }
      case WorkerOutcome::Kind::Crashed:
      case WorkerOutcome::Kind::TimedOut: {
        const bool timedOut =
            out.kind == WorkerOutcome::Kind::TimedOut;
        {
            std::lock_guard<std::mutex> lock(statsMutex_);
            if (timedOut)
                ++stats_.workerTimeouts;
            else
                ++stats_.workerCrashes;
        }
        quarantine_.record(
            key, retry::failureSignature(
                     "worker", Status(StatusCode::Internal, out.detail)));
        return crashReply(timedOut ? "worker-timeout"
                                   : "worker-crash",
                          out.detail, /*retryable=*/true, 100);
      }
      case WorkerOutcome::Kind::Unavailable:
      default:
        break;
    }
    // No worker was free in time; the miss never ran.  With a
    // deadline of its own, that deadline is what passed.
    if (hasDeadline) {
        std::lock_guard<std::mutex> lock(statsMutex_);
        ++stats_.shedDeadline;
        return shedReply("deadline", /*retryable=*/true, 100);
    }
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        ++stats_.shedWorkerUnavailable;
    }
    return shedReply("worker-unavailable", /*retryable=*/true, 50);
}

json::Value
Server::statsObject() const
{
    json::Object o;
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        o["connections"] = stats_.connections;
        o["requests"] = stats_.requests;
        o["served"] = stats_.served;
        o["cache_hits"] = stats_.cacheHits;
        o["shed_queue_full"] = stats_.shedQueueFull;
        o["shed_deadline"] = stats_.shedDeadline;
        o["errors"] = stats_.errors;
        o["disconnects"] = stats_.disconnects;
        o["worker_crashes"] = stats_.workerCrashes;
        o["worker_timeouts"] = stats_.workerTimeouts;
        o["shed_worker_unavailable"] = stats_.shedWorkerUnavailable;
        o["quarantine_refusals"] = stats_.quarantineRefusals;
    }
    o["pending"] = pending_.load(std::memory_order_relaxed);
    o["workers"] = workerPool_->healthJson();
    o["quarantine_size"] = quarantine_.size();
    if (cache_) {
        const CacheStats cs = cache_->stats();
        json::Object c;
        c["entries"] = cache_->size();
        c["journal_bytes"] = cache_->journalBytes();
        c["hits"] = cs.hits;
        c["misses"] = cs.misses;
        c["insertions"] = cs.insertions;
        c["evictions"] = cs.evictions;
        c["compactions"] = cs.compactions;
        c["recovered_entries"] = cs.recoveredEntries;
        c["write_errors"] = cs.writeErrors;
        c["dropped_tail"] = cs.droppedTail;
        o["cache"] = std::move(c);
    }
    return o;
}

ServerStats
Server::stats() const
{
    std::lock_guard<std::mutex> lock(statsMutex_);
    return stats_;
}

CacheStats
Server::cacheStats() const
{
    return cache_ ? cache_->stats() : CacheStats{};
}

} // namespace lkmm::serve
