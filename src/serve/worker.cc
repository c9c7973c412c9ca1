#include "serve/worker.hh"

#include <algorithm>
#include <map>

#include "base/channel.hh"
#include "base/faultinject.hh"
#include "base/rng.hh"
#include "litmus/parser.hh"
#include "model/registry.hh"

namespace lkmm::serve
{

namespace site = faultinject::site;

namespace
{

/**
 * The canonical "result" object a worker computes; the cache
 * replays it byte-identically.
 */
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
 * The persistent worker body (run by subprocess::Child::spawn, which
 * _exits with its return value).  EOF on the channel is the
 * drain-aware retirement signal: the parent closed its end (recycle,
 * shutdown, or parent death), so finish and leave.
 */
int
workerMain(int fd)
{
    // Per-spec model reuse across this worker's lifetime: cat files
    // re-parse per Model instance, and a persistent worker exists
    // precisely to amortize such setup.
    std::map<std::string, std::unique_ptr<Model>> models;
    // serve-worker-result is the worker-side fault site: an injected
    // crash/hang there dies exactly like a hostile input would, and
    // an injected error/enomem makes the reply undeliverable — all
    // of which the parent must decode as a worker death, never as a
    // daemon failure.
    return channel::serveFrames(
        fd,
        [&models](const std::string &frame) {
            return runOne(frame, models);
        },
        site::kServeWorkerResult);
}

} // namespace

/* ------------------------------------------------------------------ */
/* WorkerPool                                                         */
/* ------------------------------------------------------------------ */

WorkerPool::WorkerPool(WorkerOptions opts) : opts_(std::move(opts))
{
    if (opts_.count == 0)
        opts_.count = 1;
    // The initial spawns happen before the supervisor thread (and,
    // in the Server, before any connection thread) exists —
    // single-threaded fork, the safe kind.  A failure starts the
    // pool degraded; the supervisor heals it.
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
    std::vector<std::unique_ptr<Worker>> doomed;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
        doomed.swap(workers_);
        for (std::condition_variable *waiter : waiters_)
            waiter->notify_one();
    }
    supervisorCv_.notify_all();
    if (supervisor_.joinable())
        supervisor_.join();
    for (const auto &w : doomed)
        w->child.retire(opts_.shutdownGrace);
}

std::unique_ptr<WorkerPool::Worker>
WorkerPool::spawnOne()
{
    faultinject::checkSite(site::kServeWorkerSpawn, "worker spawn");
    // Default Limits: no rlimits, no watchdog of its own (execute()
    // times each request), and the daemon's process group.
    return std::make_unique<Worker>(subprocess::Child::spawn(workerMain));
}

WorkerPool::Worker *
WorkerPool::acquire(
    const std::optional<std::chrono::steady_clock::time_point>
        &deadline)
{
    std::unique_lock<std::mutex> lock(mutex_);
    // Only the oldest waiter may take an idle worker, so a new
    // arrival never overtakes an earlier one.
    std::condition_variable cv;
    waiters_.push_back(&cv);
    Worker *got = nullptr;
    while (!stopping_) {
        if (waiters_.front() == &cv) {
            got = idleWorker();
            if (got) {
                got->busy = true;
                ++stats_.requests;
                break;
            }
        }
        if (deadline) {
            if (std::chrono::steady_clock::now() >= *deadline)
                break;
            cv.wait_until(lock, *deadline);
        } else {
            cv.wait(lock);
        }
    }
    waiters_.erase(std::find(waiters_.begin(), waiters_.end(), &cv));
    // The next waiter is now at the front: hand it any idle worker.
    if (idleWorker() != nullptr)
        wakeFront();
    return got;
}

WorkerPool::Worker *
WorkerPool::idleWorker() const
{
    for (const auto &w : workers_) {
        if (!w->busy && w->child.fd() >= 0)
            return w.get();
    }
    return nullptr;
}

void
WorkerPool::wakeFront()
{
    if (!waiters_.empty())
        waiters_.front()->notify_one();
}

std::unique_ptr<WorkerPool::Worker>
WorkerPool::take(Worker *w)
{
    for (auto it = workers_.begin(); it != workers_.end(); ++it) {
        if (it->get() == w) {
            std::unique_ptr<Worker> owned = std::move(*it);
            workers_.erase(it);
            return owned;
        }
    }
    return nullptr;
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

    // A request waits for a worker until its deadline and is watched
    // until the deadline plus the grace.  One without a deadline
    // waits up to one defaultDeadline window (none if 0), and its run
    // is watched for a whole window of its own.
    std::optional<std::chrono::steady_clock::time_point> wait;
    std::optional<std::chrono::steady_clock::time_point> watchdog;
    if (req.hasDeadline) {
        wait = req.deadlineAt;
        watchdog = req.deadlineAt + opts_.dispatchGrace;
    } else if (opts_.defaultDeadline.count() > 0) {
        wait = std::chrono::steady_clock::now() + opts_.defaultDeadline;
    }

    Worker *w = acquire(wait);
    if (w == nullptr) {
        out.kind = WorkerOutcome::Kind::Unavailable;
        out.detail = "no worker available before the deadline";
        return out;
    }
    if (!req.hasDeadline && opts_.defaultDeadline.count() > 0)
        watchdog = std::chrono::steady_clock::now() + opts_.defaultDeadline;

    // The wall-clock budget is what is left of the deadline now,
    // after the wait: the engine trips it (a sound truncated Unknown)
    // before the watchdog's grace runs out.  Clamp to >= 1ns: a
    // deadline that expired this instant must trip the budget, and a
    // zero wallClock would mean "unlimited".
    std::chrono::nanoseconds wallClock = req.budget.wallClock;
    if (req.hasDeadline) {
        const std::chrono::nanoseconds remaining =
            std::max<std::chrono::nanoseconds>(
                req.deadlineAt - std::chrono::steady_clock::now(),
                std::chrono::nanoseconds(1));
        if (wallClock.count() == 0 || remaining < wallClock)
            wallClock = remaining;
    }
    json::Object o;
    o["op"] = "run";
    o["litmus"] = req.litmus;
    o["model"] = req.model;
    o["budget_wall_ns"] = static_cast<std::int64_t>(wallClock.count());
    o["budget_candidates"] =
        static_cast<std::int64_t>(req.budget.maxCandidates);
    o["budget_rf"] =
        static_cast<std::int64_t>(req.budget.maxRfAssignments);
    {
        EngineConfig engine;
        engine.enumerate = req.enumerate;
        o["engine"] = engine.modeName();
    }
    const std::string payload = json::Value(std::move(o)).serialize();

    const channel::Reply reply = channel::call(
        w->child, payload, watchdog, site::kServeWorkerDispatch);
    bool dead = !reply.frame;
    out.detail = reply.detail;
    if (reply.frame) {
        // The worker answered.  A garbled reply still counts as a
        // worker failure (the channel is trusted, so this means the
        // worker is sick) — decode defensively.
        try {
            const json::Value decoded = json::Value::parse(*reply.frame);
            if (decoded.getBool("ok", false)) {
                const json::Value *result = decoded.get("result");
                if (result == nullptr)
                    throw StatusError(Status(
                        StatusCode::Internal,
                        "worker ok reply without result"));
                out.kind = WorkerOutcome::Kind::Ok;
                out.result = *result;
            } else {
                out.kind = WorkerOutcome::Kind::Error;
                out.error = Status(
                    statusCodeFromName(decoded.getString("code"))
                        .value_or(StatusCode::Internal),
                    decoded.getString("message"));
            }
            std::lock_guard<std::mutex> lock(mutex_);
            stats_.consecutiveCrashes = 0;
            ++w->served;
        } catch (const std::exception &e) {
            dead = true;
            out.detail = std::string("garbled worker reply: ") +
                e.what() + " (" + channel::reap(w->child) + ")";
        }
    }

    if (dead) {
        // Worker death, already reaped and decoded: one sound
        // Unknown for this one client, and the deficit goes to the
        // supervisor.
        out.kind = reply.timedOut ? WorkerOutcome::Kind::TimedOut
                                  : WorkerOutcome::Kind::Crashed;
        // Declared before the lock, so destroyed after it is
        // released: a reap its destructor still owes blocks outside
        // the pool mutex.
        std::unique_ptr<Worker> corpse;
        std::lock_guard<std::mutex> lock(mutex_);
        if (reply.timedOut)
            ++stats_.timeouts;
        else
            ++stats_.crashes;
        noteWorkerDeath();
        corpse = take(w);
        return out;
    }

    // Healthy worker: retire it preventively if it's past its
    // recycle horizon, otherwise hand it back to the pool.
    bool retire = false;
    if (opts_.recycleRequests != 0 &&
        w->served >= opts_.recycleRequests)
        retire = true;
    if (!retire && opts_.rssLimitMb != 0 &&
        subprocess::residentSetKb(w->child.pid()) >
            opts_.rssLimitMb * 1024)
        retire = true;
    if (retire) {
        std::chrono::milliseconds grace = opts_.shutdownGrace;
        try {
            faultinject::checkSite(site::kServeWorkerRecycle,
                                   req.name.c_str());
        } catch (...) {
            // Injected retirement failure: escalate to SIGKILL
            // instead of the graceful EOF — degraded, never leaked.
            grace = std::chrono::milliseconds(0);
        }
        std::unique_ptr<Worker> owned;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            owned = take(w);
            ++stats_.recycles;
            ++deficit_;
            supervisorCv_.notify_one();
        }
        if (owned)
            owned->child.retire(grace);
    } else {
        std::lock_guard<std::mutex> lock(mutex_);
        w->busy = false;
        wakeFront();
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
            // The destructor won the race while we were forking:
            // this worker must not outlive the pool.
            if (fresh) {
                lock.unlock();
                fresh->child.retire(opts_.shutdownGrace);
                lock.lock();
            }
            break;
        }
        if (fresh) {
            --deficit_;
            ++stats_.restarts;
            workers_.push_back(std::move(fresh));
            wakeFront();
        } else {
            // Spawn failure feeds the same backoff loop: the deficit
            // stays, the next lap sleeps longer.
            ++stats_.spawnFailures;
            ++stats_.consecutiveCrashes;
        }
    }
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
        wo["pid"] = static_cast<std::int64_t>(w->child.pid());
        wo["state"] = w->busy ? "busy" : "idle";
        wo["requests"] = w->served;
        wo["rss_kb"] = subprocess::residentSetKb(w->child.pid());
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
        pids.push_back(w->child.pid());
    return pids;
}

} // namespace lkmm::serve
