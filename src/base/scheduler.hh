/**
 * @file
 * The shared work-scheduler: a fixed thread pool plus a deterministic
 * fork-join helper.
 *
 * The verification hot path is embarrassingly parallel — thousands of
 * independent litmus tests per sweep, independent fuzz candidates per
 * campaign — so the engine needs exactly one concurrency primitive: a
 * fixed pool of worker threads and a way to run N index-addressed
 * tasks across it with results delivered *in submission order*,
 * regardless of the order in which workers finish them.  That
 * ordering guarantee is what lets a parallel sweep produce a report
 * byte-identical to the one-thread sweep (see DESIGN.md "In-process
 * parallel verification").
 *
 * ThreadPool is deliberately minimal: post() enqueues a task, the
 * destructor drains the queue and joins.  parallelIndexed() is the
 * fork-join layer every caller uses, and the only code outside the
 * tests that calls post().  Each task learns the index of the pool
 * thread running it, which callers use to give every thread its own
 * per-thread state (a model instance, an oracle set) without a lock.
 * Exceptions thrown by a task are captured and the lowest-index one
 * is rethrown after all tasks have settled, so error reporting is
 * deterministic too.
 */

#ifndef LKMM_BASE_SCHEDULER_HH
#define LKMM_BASE_SCHEDULER_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

#include "base/faultinject.hh"

namespace lkmm
{

/** A fixed pool of worker threads consuming one task queue. */
class ThreadPool
{
  public:
    /** Spawn `threads` workers (clamped to at least 1). */
    explicit ThreadPool(std::size_t threads);

    /** Drains the queue, then joins every worker. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    std::size_t size() const { return workers_.size(); }

    /**
     * Enqueue one task; runs on some worker, FIFO dispatch, and is
     * passed that worker's index in [0, size()).  A worker runs one
     * task at a time, so no two running tasks hold the same index.
     * Tasks should capture their own exceptions (parallelIndexed
     * does); one that throws anyway is swallowed by the worker rather
     * than terminating the process.  post() itself can throw
     * (allocation failure, injected scheduler-post fault), in which
     * case the task was NOT enqueued and will never run — callers
     * joining on a fixed task count must account for that (see
     * parallelIndexed).
     */
    void post(std::function<void(std::size_t thread)> task);

    /** std::thread::hardware_concurrency, clamped to at least 1. */
    static std::size_t hardwareThreads();

  private:
    void workerLoop(std::size_t thread);

    std::mutex mu_;
    std::condition_variable cv_;
    std::deque<std::function<void(std::size_t)>> queue_;
    bool stop_ = false;
    std::vector<std::thread> workers_;
};

/**
 * Run fn(0, t0), ..., fn(n-1, tn-1) across the pool and block until
 * all have settled, where ti is the index of the pool thread running
 * task i (ThreadPool::post's contract: in [0, pool.size()), never
 * shared by two running tasks).  Results come back indexed by
 * submission order: element i is fn(i, ti)'s return value, whatever
 * order the workers finished in.
 *
 * If any task throws, every task still runs to completion (no
 * cancellation is implied — callers wanting early exit check their
 * own token inside fn) and then the exception of the *lowest* failed
 * index is rethrown, making failure reporting independent of thread
 * scheduling.
 *
 * fn must be invocable from multiple threads concurrently; its
 * result type must be move-constructible and non-void.
 */
template <typename Fn>
auto
parallelIndexed(ThreadPool &pool, std::size_t n, Fn &&fn)
    -> std::vector<std::invoke_result_t<Fn &, std::size_t, std::size_t>>
{
    using R = std::invoke_result_t<Fn &, std::size_t, std::size_t>;
    static_assert(!std::is_void_v<R>,
                  "parallelIndexed tasks must return a value");

    struct Join
    {
        std::mutex mu;
        std::condition_variable done;
        std::size_t remaining;
        std::vector<std::optional<R>> results;
        std::vector<std::exception_ptr> errors;
    };

    Join join;
    join.remaining = n;
    join.results.resize(n);
    join.errors.resize(n);

    std::size_t posted = 0;
    std::exception_ptr postError;
    try {
        for (; posted < n; ++posted) {
            const std::size_t i = posted;
            pool.post([&join, &fn, i](std::size_t thread) {
                std::optional<R> result;
                std::exception_ptr error;
                try {
                    faultinject::checkSite(
                        faultinject::site::kSchedulerTask);
                    result.emplace(fn(i, thread));
                } catch (...) {
                    error = std::current_exception();
                }
                std::lock_guard<std::mutex> lock(join.mu);
                join.results[i] = std::move(result);
                join.errors[i] = error;
                if (--join.remaining == 0)
                    join.done.notify_all();
            });
        }
    } catch (...) {
        // post() failed: the task at index `posted` (and everything
        // after it) was never enqueued.  Record the failure there and
        // stop waiting for the tasks that will never run — otherwise
        // the join below would deadlock on a count that can't reach
        // zero.
        postError = std::current_exception();
    }
    if (postError) {
        std::lock_guard<std::mutex> lock(join.mu);
        join.errors[posted] = postError;
        join.remaining -= n - posted;
        if (join.remaining == 0)
            join.done.notify_all();
    }

    std::unique_lock<std::mutex> lock(join.mu);
    join.done.wait(lock, [&join] { return join.remaining == 0; });

    for (std::size_t i = 0; i < n; ++i) {
        if (join.errors[i])
            std::rethrow_exception(join.errors[i]);
    }
    std::vector<R> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(std::move(*join.results[i]));
    return out;
}

} // namespace lkmm

#endif // LKMM_BASE_SCHEDULER_HH
