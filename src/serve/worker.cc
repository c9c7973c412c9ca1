#include "serve/worker.hh"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>

#include "base/eintr.hh"
#include "base/faultinject.hh"
#include "base/rng.hh"
#include "base/strutil.hh"
#include "base/subprocess.hh"
#include "litmus/parser.hh"
#include "model/registry.hh"
#include "serve/protocol.hh"

namespace lkmm::serve
{

namespace site = faultinject::site;

json::Value
resultValue(const std::string &testName, const std::string &modelSpec,
            const RunResult &r)
{
    json::Object result;
    result["test"] = testName;
    result["model"] = modelSpec;
    result["verdict"] = verdictName(r.verdict);
    result["completeness"] = completenessName(r.completeness);
    result["bound"] = boundKindName(r.trippedBound);
    result["candidates"] = r.candidates;
    result["allowed"] = r.allowedCandidates;
    result["witnesses"] = r.witnesses;
    result["states"] = json::stringArray(std::vector<std::string>(
        r.allowedFinalStates.begin(), r.allowedFinalStates.end()));
    return result;
}

namespace
{

StatusCode
statusCodeFromName(const std::string &name)
{
    static constexpr StatusCode kCodes[] = {
        StatusCode::Ok,           StatusCode::ParseError,
        StatusCode::EvalError,    StatusCode::BudgetExceeded,
        StatusCode::InvalidArgument, StatusCode::IoError,
        StatusCode::Internal,
    };
    for (const StatusCode code : kCodes) {
        if (name == statusCodeName(code))
            return code;
    }
    return StatusCode::Internal;
}

/**
 * Worker side of one request: parse, run, encode.  Never throws —
 * every failure becomes a structured {"ok":false,...} reply, which
 * the parent turns into an error response.  Only a *crash* (segv,
 * abort, injected kill, watchdog) escapes this function, which is
 * the point: the reply protocol cleanly separates "the request
 * failed" from "the worker died".
 */
std::string
runOne(const std::string &frame,
       std::map<std::string, std::unique_ptr<Model>> &models)
{
    json::Object resp;
    try {
        const json::Value req = json::Value::parse(frame);
        const std::string name = req.getString("name");
        // The crash-injection hooks the ctest suite drives: same
        // contract as the batch runner — context is the test name,
        // so an armed point plus a filter crashes exactly the
        // targeted request.  The armed flags were inherited over
        // fork; firing one here kills this worker, not the daemon.
        faultinject::maybeFail(faultinject::Point::CrashSegv,
                               name.c_str());
        faultinject::maybeFail(faultinject::Point::CrashAbort,
                               name.c_str());
        faultinject::maybeFail(faultinject::Point::Hang, name.c_str());

        const Program prog = parseLitmus(req.getString("litmus"));
        const std::string spec = req.getString("model");
        std::unique_ptr<Model> &model = models[spec];
        if (!model)
            model = ModelRegistry::instance().factoryFor(spec)();

        RunBudget budget;
        budget.wallClock =
            std::chrono::nanoseconds(req.getInt("budget_wall_ns"));
        budget.maxCandidates = static_cast<std::size_t>(
            req.getInt("budget_candidates"));
        budget.maxRfAssignments =
            static_cast<std::size_t>(req.getInt("budget_rf"));
        budget.maxEvalSteps =
            static_cast<std::size_t>(req.getInt("budget_eval"));
        // Engine mode travels by name; absent (an older parent)
        // means the default engine.
        EngineConfig engine;
        engine.setMode(req.getString("engine", engine.modeName()));

        const RunResult run =
            runTest(prog, *model, budget, engine.enumerate);
        resp["ok"] = true;
        resp["result"] = resultValue(prog.name, spec, run);
    } catch (const std::exception &e) {
        const Status status = statusOf(e);
        resp["ok"] = false;
        resp["code"] = statusCodeName(status.code());
        resp["message"] = status.message();
    }
    return json::Value(std::move(resp)).serialize();
}

/**
 * The persistent worker main loop.  EOF on the channel is the
 * drain-aware retirement signal: the parent closed its end (recycle,
 * shutdown, or parent death), so finish and leave with _exit — never
 * return into a forked copy of the daemon's stack.
 */
[[noreturn]] void
workerMain(int fd)
{
    // The daemon installs its own SIGTERM/SIGINT handlers; a worker
    // must die by default disposition so supervision sees an honest
    // wait status.  SIGPIPE stays ignored (frames use MSG_NOSIGNAL,
    // but the engine should not be killable by a stray write).
    ::signal(SIGTERM, SIG_DFL);
    ::signal(SIGINT, SIG_DFL);
    ::signal(SIGPIPE, SIG_IGN);
    // Drop every inherited descriptor (listening socket, other
    // clients' connections, the cache journal): a persistent worker
    // holding them would delay peer EOFs past this worker's
    // lifetime.
    subprocess::closeFdsExcept({fd});

    // Per-spec model reuse across this worker's lifetime: cat files
    // re-parse per Model instance, and a persistent worker exists
    // precisely to amortize such setup.
    std::map<std::string, std::unique_ptr<Model>> models;
    for (;;) {
        std::optional<std::string> frame;
        try {
            frame = readFrame(fd, kWorkerMaxFrameBytes);
        } catch (...) {
            ::_exit(0); // torn channel: parent is gone or recycling
        }
        if (!frame)
            ::_exit(0);
        const std::string reply = runOne(*frame, models);
        try {
            // serve-worker-result is the worker-side fault site: an
            // injected crash/hang here dies exactly like a hostile
            // input would, and an injected error/enomem makes the
            // reply undeliverable — all of which the parent must
            // decode as a worker death, never as a daemon failure.
            writeFrame(fd, reply, site::kServeWorkerResult);
        } catch (...) {
            ::_exit(subprocess::Child::kCallbackError);
        }
    }
}

/** Blocking waitpid with the EINTR loop; decodes the exit shape. */
subprocess::Outcome
reapWorker(pid_t pid, bool timedOut)
{
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    subprocess::Outcome outcome;
    if (timedOut) {
        outcome.kind = subprocess::ExitKind::TimedOut;
    } else if (WIFSIGNALED(status)) {
        outcome.kind = subprocess::ExitKind::Signaled;
        outcome.signal = WTERMSIG(status);
    } else {
        outcome.kind = subprocess::ExitKind::Exited;
        outcome.exitCode =
            WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }
    return outcome;
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

/* ------------------------------------------------------------------ */
/* WorkerPool                                                         */
/* ------------------------------------------------------------------ */

WorkerPool::WorkerPool(WorkerOptions opts) : opts_(std::move(opts))
{
    if (opts_.count == 0)
        opts_.count = 1;
    // The initial spawns happen before any dispatch or supervisor
    // thread exists — single-threaded fork, the safe kind.  A
    // failure starts the pool degraded; the supervisor heals it.
    for (std::size_t i = 0; i < opts_.count; ++i) {
        try {
            workers_.push_back(spawnOne());
        } catch (const std::exception &) {
            ++deficit_;
            ++stats_.spawnFailures;
            ++stats_.consecutiveCrashes;
        }
    }
    supervisor_ = std::thread([this] { supervisorLoop(); });
}

WorkerPool::~WorkerPool()
{
    shutdown();
}

std::unique_ptr<WorkerPool::Worker>
WorkerPool::spawnOne()
{
    faultinject::checkSite(site::kServeWorkerSpawn, "worker spawn");
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) !=
        0) {
        throw StatusError(Status(
            StatusCode::Internal,
            format("serve worker socketpair failed: %s",
                   std::strerror(errno))));
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
        const int err = errno;
        ::close(sv[0]);
        ::close(sv[1]);
        throw StatusError(Status(
            StatusCode::Internal,
            format("serve worker fork failed: %s",
                   std::strerror(err))));
    }
    if (pid == 0) {
        ::close(sv[0]);
        workerMain(sv[1]); // never returns
    }
    ::close(sv[1]);
    auto worker = std::make_unique<Worker>();
    worker->pid = pid;
    worker->fd = sv[0];
    return worker;
}

WorkerPool::Worker *
WorkerPool::acquire(
    const std::optional<std::chrono::steady_clock::time_point>
        &deadline)
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        if (stopping_)
            return nullptr;
        for (const auto &w : workers_) {
            if (!w->busy && w->fd >= 0) {
                w->busy = true;
                return w.get();
            }
        }
        if (deadline) {
            if (std::chrono::steady_clock::now() >= *deadline)
                return nullptr;
            idleCv_.wait_until(lock, *deadline);
        } else {
            idleCv_.wait(lock);
        }
    }
}

void
WorkerPool::noteWorkerDeath()
{
    // Caller holds mutex_.  The deficit wakes the supervisor, whose
    // backoff (scaled by the consecutive-crash count) is the respawn
    // rate cap.
    ++deficit_;
    ++stats_.consecutiveCrashes;
    supervisorCv_.notify_one();
}

WorkerOutcome
WorkerPool::execute(const WorkerRequest &req)
{
    WorkerOutcome out;

    std::optional<std::chrono::steady_clock::time_point> watchdog;
    if (req.hasDeadline)
        watchdog = req.deadlineAt + opts_.dispatchGrace;
    else if (opts_.defaultDeadline.count() > 0) {
        watchdog = std::chrono::steady_clock::now() +
            opts_.defaultDeadline;
    }

    Worker *w = acquire(watchdog);
    if (w == nullptr) {
        out.kind = WorkerOutcome::Kind::Unavailable;
        out.detail = "no worker available before the deadline";
        return out;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.requests;
    }

    json::Object o;
    o["op"] = "run";
    o["name"] = req.name;
    o["litmus"] = req.litmus;
    o["model"] = req.model;
    o["budget_wall_ns"] = static_cast<std::int64_t>(
        req.budget.wallClock.count());
    o["budget_candidates"] =
        static_cast<std::int64_t>(req.budget.maxCandidates);
    o["budget_rf"] =
        static_cast<std::int64_t>(req.budget.maxRfAssignments);
    o["budget_eval"] =
        static_cast<std::int64_t>(req.budget.maxEvalSteps);
    {
        EngineConfig engine;
        engine.enumerate = req.enumerate;
        o["engine"] = engine.modeName();
    }
    const std::string payload = json::Value(std::move(o)).serialize();

    bool dead = false;
    bool timedOut = false;
    std::optional<std::string> frame;
    try {
        writeFrame(w->fd, payload, site::kServeWorkerDispatch);
    } catch (const std::exception &e) {
        dead = true;
        out.detail = std::string("dispatch write failed: ") + e.what();
    }

    while (!dead && !timedOut && !frame) {
        int timeoutMs = -1;
        if (watchdog) {
            const auto now = std::chrono::steady_clock::now();
            if (now >= *watchdog) {
                timedOut = true;
                break;
            }
            const auto left = std::chrono::duration_cast<
                std::chrono::milliseconds>(*watchdog - now);
            timeoutMs = static_cast<int>(
                std::min<std::int64_t>(left.count() + 1, 60000));
        }
        pollfd pfd{};
        pfd.fd = w->fd;
        pfd.events = POLLIN;
        const int rc =
            retryEintr(site::kServeWorkerDispatch, EIO,
                       [&] { return ::poll(&pfd, 1, timeoutMs); });
        if (rc < 0) {
            dead = true;
            out.detail = std::string("dispatch poll failed: ") +
                std::strerror(errno);
            break;
        }
        if (rc == 0)
            continue; // loop re-checks the watchdog
        // Readable: bound the remaining frame read by the watchdog
        // so a worker that sent half a frame and wedged still dies
        // on time.
        std::chrono::milliseconds recvBudget{0};
        if (watchdog) {
            const auto left = std::chrono::duration_cast<
                std::chrono::milliseconds>(
                *watchdog - std::chrono::steady_clock::now());
            recvBudget = std::chrono::milliseconds(
                std::max<std::int64_t>(left.count(), 1));
        }
        setRecvTimeout(w->fd, recvBudget);
        try {
            frame = readFrame(w->fd, kWorkerMaxFrameBytes,
                              site::kServeWorkerDispatch);
            if (!frame) {
                dead = true;
                out.detail = "worker closed the channel mid-request";
            }
        } catch (const std::exception &e) {
            if (watchdog &&
                std::chrono::steady_clock::now() >= *watchdog) {
                timedOut = true;
            } else {
                dead = true;
                out.detail =
                    std::string("result read failed: ") + e.what();
            }
        }
    }

    if (!dead && !timedOut && frame) {
        // The worker answered.  A garbled reply still counts as a
        // worker failure (the channel is trusted, so this means the
        // worker is sick) — decode defensively.
        try {
            const json::Value reply = json::Value::parse(*frame);
            if (reply.getBool("ok", false)) {
                const json::Value *result = reply.get("result");
                if (result == nullptr)
                    throw StatusError(Status(
                        StatusCode::Internal,
                        "worker ok reply without result"));
                out.kind = WorkerOutcome::Kind::Ok;
                out.result = *result;
            } else {
                out.kind = WorkerOutcome::Kind::Error;
                out.error = Status(
                    statusCodeFromName(reply.getString("code")),
                    reply.getString("message"));
            }
            std::lock_guard<std::mutex> lock(mutex_);
            stats_.consecutiveCrashes = 0;
            ++w->served;
        } catch (const std::exception &e) {
            dead = true;
            out.detail =
                std::string("garbled worker reply: ") + e.what();
        }
    }

    if (dead || timedOut) {
        // Worker death: SIGKILL (idempotent if already gone), reap,
        // decode through the subprocess taxonomy, leave the deficit
        // to the supervisor.  The response — one sound Unknown for
        // this one client — is on its way regardless.
        ::kill(w->pid, SIGKILL);
        const subprocess::Outcome reaped =
            reapWorker(w->pid, timedOut);
        out.kind = timedOut ? WorkerOutcome::Kind::TimedOut
                            : WorkerOutcome::Kind::Crashed;
        if (out.detail.empty())
            out.detail = reaped.describe();
        else
            out.detail += " (" + reaped.describe() + ")";
        std::lock_guard<std::mutex> lock(mutex_);
        if (timedOut)
            ++stats_.timeouts;
        else
            ++stats_.crashes;
        noteWorkerDeath();
        for (auto it = workers_.begin(); it != workers_.end(); ++it) {
            if (it->get() == w) {
                ::close(w->fd);
                workers_.erase(it);
                break;
            }
        }
        return out;
    }

    // Healthy worker: retire it preventively if it's past its
    // recycle horizon, otherwise hand it back to the pool.
    bool retire = false;
    bool graceful = true;
    if (opts_.recycleRequests != 0 &&
        w->served >= opts_.recycleRequests)
        retire = true;
    if (!retire && opts_.rssLimitMb != 0 &&
        subprocess::residentSetKb(w->pid) >
            opts_.rssLimitMb * 1024)
        retire = true;
    if (retire) {
        try {
            faultinject::checkSite(site::kServeWorkerRecycle,
                                   req.name.c_str());
        } catch (...) {
            // Injected retirement failure: escalate to SIGKILL
            // instead of the graceful EOF — degraded, never leaked.
            graceful = false;
        }
        std::unique_ptr<Worker> owned;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            for (auto it = workers_.begin(); it != workers_.end();
                 ++it) {
                if (it->get() == w) {
                    owned = std::move(*it);
                    workers_.erase(it);
                    break;
                }
            }
            ++stats_.recycles;
            ++deficit_;
            supervisorCv_.notify_one();
        }
        if (owned)
            destroyWorker(*owned, graceful);
    } else {
        std::lock_guard<std::mutex> lock(mutex_);
        w->busy = false;
        idleCv_.notify_one();
    }
    return out;
}

void
WorkerPool::supervisorLoop()
{
    // Fixed seed: backoff delays (and so the respawn-rate cap the
    // ctest suite measures) replay identically run to run.
    Rng rng(0x5eedf00dULL);
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stopping_) {
        supervisorCv_.wait(
            lock, [&] { return stopping_ || deficit_ > 0; });
        if (stopping_)
            break;
        const std::uint64_t crashes = stats_.consecutiveCrashes;
        if (crashes > 0) {
            const std::chrono::microseconds delay =
                opts_.respawn.delayBefore(
                    static_cast<int>(
                        std::min<std::uint64_t>(crashes, 20)),
                    rng);
            if (delay.count() > 0) {
                stats_.backoffTotalUs +=
                    static_cast<std::uint64_t>(delay.count());
                supervisorCv_.wait_for(lock, delay,
                                       [&] { return stopping_; });
                if (stopping_)
                    break;
            }
        }
        lock.unlock();
        std::unique_ptr<Worker> fresh;
        try {
            fresh = spawnOne();
        } catch (const std::exception &) {
        }
        lock.lock();
        if (stopping_) {
            // shutdown() won the race while we were forking: this
            // worker must not outlive the pool.
            if (fresh) {
                lock.unlock();
                destroyWorker(*fresh, /*graceful=*/true);
                lock.lock();
            }
            break;
        }
        if (fresh) {
            --deficit_;
            ++stats_.restarts;
            workers_.push_back(std::move(fresh));
            idleCv_.notify_one();
        } else {
            // Spawn failure feeds the same backoff loop: the deficit
            // stays, the next lap sleeps longer.
            ++stats_.spawnFailures;
            ++stats_.consecutiveCrashes;
        }
    }
}

void
WorkerPool::destroyWorker(Worker &w, bool graceful)
{
    if (w.fd >= 0) {
        ::close(w.fd);
        w.fd = -1;
    }
    if (w.pid <= 0)
        return;
    bool reaped = false;
    if (graceful) {
        // EOF told the worker to finish up and _exit(0); give it
        // shutdownGrace to comply before escalating.
        const auto deadline = std::chrono::steady_clock::now() +
            opts_.shutdownGrace;
        for (;;) {
            int status = 0;
            const pid_t rc = ::waitpid(w.pid, &status, WNOHANG);
            if (rc == w.pid ||
                (rc < 0 && errno != EINTR && errno != EAGAIN)) {
                reaped = true;
                break;
            }
            if (std::chrono::steady_clock::now() >= deadline)
                break;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
        }
    }
    if (!reaped) {
        ::kill(w.pid, SIGKILL);
        int status = 0;
        while (::waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
        }
    }
    w.pid = -1;
}

void
WorkerPool::shutdown()
{
    std::vector<std::unique_ptr<Worker>> doomed;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_)
            return;
        stopping_ = true;
        doomed.swap(workers_);
    }
    idleCv_.notify_all();
    supervisorCv_.notify_all();
    if (supervisor_.joinable())
        supervisor_.join();
    for (const auto &w : doomed)
        destroyWorker(*w, /*graceful=*/true);
}

WorkerPoolStats
WorkerPool::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

json::Value
WorkerPool::healthJson() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    json::Object o;
    o["count"] = opts_.count;
    o["live"] = workers_.size();
    o["deficit"] = deficit_;
    o["requests"] = stats_.requests;
    o["crashes"] = stats_.crashes;
    o["timeouts"] = stats_.timeouts;
    o["restarts"] = stats_.restarts;
    o["recycles"] = stats_.recycles;
    o["spawn_failures"] = stats_.spawnFailures;
    o["backoff_total_us"] = stats_.backoffTotalUs;
    o["consecutive_crashes"] = stats_.consecutiveCrashes;
    json::Array perWorker;
    for (const auto &w : workers_) {
        json::Object wo;
        wo["pid"] = static_cast<std::int64_t>(w->pid);
        wo["state"] = w->busy ? "busy" : "idle";
        wo["requests"] = w->served;
        wo["rss_kb"] = subprocess::residentSetKb(w->pid);
        perWorker.push_back(json::Value(std::move(wo)));
    }
    o["per_worker"] = std::move(perWorker);
    return o;
}

std::vector<pid_t>
WorkerPool::livePids() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<pid_t> pids;
    for (const auto &w : workers_)
        pids.push_back(w->pid);
    return pids;
}

} // namespace lkmm::serve
