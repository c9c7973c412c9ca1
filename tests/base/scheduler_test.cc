/**
 * @file
 * ThreadPool / parallelIndexed: the ordering and error-determinism
 * contracts the parallel verification engine is built on.
 */

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/faultinject.hh"
#include "base/scheduler.hh"
#include "base/status.hh"

namespace lkmm
{
namespace
{

TEST(ThreadPool, RunsPostedTasks)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    std::atomic<int> ran{0};
    for (int i = 0; i < 100; ++i)
        pool.post([&](std::size_t) { ran.fetch_add(1); });
    // The destructor drains the queue before joining, so by the end
    // of this scope every task has run.
    {
        ThreadPool inner(2);
        for (int i = 0; i < 50; ++i)
            inner.post([&](std::size_t) { ran.fetch_add(1); });
    }
    while (ran.load() < 150)
        std::this_thread::yield();
    EXPECT_EQ(ran.load(), 150);
}

TEST(ThreadPool, ClampsToAtLeastOneWorker)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 1u);
    std::atomic<bool> ran{false};
    pool.post([&](std::size_t) { ran.store(true); });
    while (!ran.load())
        std::this_thread::yield();
}

TEST(ThreadPool, HardwareThreadsIsPositive)
{
    EXPECT_GE(ThreadPool::hardwareThreads(), 1u);
}

TEST(ParallelIndexed, ResultsInSubmissionOrder)
{
    ThreadPool pool(8);
    // Make early indices slow so completion order differs from
    // submission order; the result vector must not care.
    auto results = parallelIndexed(pool, 64, [](std::size_t i, std::size_t) {
        if (i < 8) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
        }
        return i * i;
    });
    ASSERT_EQ(results.size(), 64u);
    for (std::size_t i = 0; i < 64; ++i)
        EXPECT_EQ(results[i], i * i);
}

TEST(ParallelIndexed, ZeroTasksReturnsEmpty)
{
    ThreadPool pool(2);
    auto results =
        parallelIndexed(pool, 0,
                        [](std::size_t i, std::size_t) { return i; });
    EXPECT_TRUE(results.empty());
}

TEST(ParallelIndexed, EveryIndexRunsExactlyOnce)
{
    ThreadPool pool(4);
    std::mutex mu;
    std::set<std::size_t> seen;
    parallelIndexed(pool, 200, [&](std::size_t i, std::size_t) {
        std::lock_guard<std::mutex> lock(mu);
        EXPECT_TRUE(seen.insert(i).second);
        return 0;
    });
    EXPECT_EQ(seen.size(), 200u);
}

TEST(ParallelIndexed, RethrowsLowestIndexException)
{
    ThreadPool pool(4);
    // Indices 3 and 7 both throw; the lowest one must win no matter
    // which worker finishes first, and the non-throwing tasks must
    // all still have run (no cancellation is implied).
    std::atomic<int> ran{0};
    try {
        parallelIndexed(pool, 16, [&](std::size_t i, std::size_t) -> int {
            ran.fetch_add(1);
            if (i == 7)
                throw std::runtime_error("seven");
            if (i == 3)
                throw std::runtime_error("three");
            return 0;
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "three");
    }
    EXPECT_EQ(ran.load(), 16);
}

TEST(ParallelIndexed, MoreTasksThanThreads)
{
    ThreadPool pool(2);
    auto results = parallelIndexed(
        pool, 1000, [](std::size_t i, std::size_t) { return i + 1; });
    ASSERT_EQ(results.size(), 1000u);
    EXPECT_EQ(results.back(), 1000u);
}

TEST(ParallelIndexed, ThreadIndexIsInRangeAndNeverShared)
{
    // Many short tasks that overlap in time: each claims its thread
    // index's flag for the length of the task.  An index outside
    // [0, size) or one already claimed by a running task would let
    // two tasks share per-thread state.
    ThreadPool pool(4);
    std::vector<std::atomic<bool>> busy(pool.size());
    std::atomic<int> outOfRange{0};
    std::atomic<int> shared{0};
    std::mutex mu;
    std::set<std::size_t> used;
    parallelIndexed(pool, 2000, [&](std::size_t, std::size_t thread) {
        if (thread >= busy.size()) {
            outOfRange.fetch_add(1);
            return 0;
        }
        if (busy[thread].exchange(true))
            shared.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::microseconds(20));
        busy[thread].store(false);
        std::lock_guard<std::mutex> lock(mu);
        used.insert(thread);
        return 0;
    });
    EXPECT_EQ(outOfRange.load(), 0);
    EXPECT_EQ(shared.load(), 0);
    EXPECT_GT(used.size(), 1u) << "the tasks never overlapped";
}

TEST(ThreadPoolShutdown, DrainsNonEmptyQueueBeforeJoining)
{
    // Destroy the pool while the queue is still deep: every queued
    // task must run (drain-then-join), and the destructor must not
    // deadlock.  One worker + slow tasks guarantees a backlog at
    // destruction time.
    std::atomic<int> ran{0};
    {
        ThreadPool pool(1);
        for (int i = 0; i < 50; ++i) {
            pool.post([&](std::size_t) {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(200));
                ran.fetch_add(1);
            });
        }
    }
    EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPoolShutdown, ThrowingTasksNeitherTerminateNorWedge)
{
    // Bare post()ed tasks that throw are swallowed by the worker
    // (losing an exception beats std::terminate); the pool keeps
    // serving later tasks and still shuts down cleanly.
    std::atomic<int> ran{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 20; ++i) {
            pool.post([&, i](std::size_t) {
                if (i % 2 == 0)
                    throw std::runtime_error("leaked task exception");
                ran.fetch_add(1);
            });
        }
    }
    EXPECT_EQ(ran.load(), 10);
}

TEST(ParallelIndexed, InjectedPostFailureDoesNotDeadlock)
{
    // A post() that throws means its task will never run; the join
    // must account for the never-enqueued tail instead of waiting
    // forever, and the post error must surface deterministically.
    // (The throwing exception also exercises the exactly-this-site
    // plan machinery under concurrency.)
    ThreadPool pool(2);
    faultinject::FaultPlan plan;
    plan.site = faultinject::site::kSchedulerPost;
    plan.hit = 3; // first two tasks enqueue, the third post throws
    plan.kind = faultinject::FaultKind::Error;
    faultinject::setPlan(plan);
    std::atomic<int> ran{0};
    try {
        parallelIndexed(pool, 8, [&](std::size_t i, std::size_t) {
            ran.fetch_add(1);
            return i;
        });
        FAIL() << "expected the injected post failure to surface";
    } catch (const StatusError &) {
        // expected
    }
    EXPECT_TRUE(faultinject::planFired());
    faultinject::reset();
    EXPECT_LE(ran.load(), 2) << "tasks past the failed post never ran";
}

TEST(ParallelIndexed, InjectedTaskFaultIsCapturedPerIndex)
{
    // The scheduler-task site fires inside the task wrapper; the
    // fault must be captured like any task exception (lowest index
    // rethrown), not leak into the worker loop.
    ThreadPool pool(2);
    faultinject::FaultPlan plan;
    plan.site = faultinject::site::kSchedulerTask;
    plan.hit = 1;
    plan.kind = faultinject::FaultKind::Error;
    faultinject::setPlan(plan);
    EXPECT_THROW(
        parallelIndexed(pool, 4,
                        [](std::size_t i, std::size_t) { return i; }),
        StatusError);
    faultinject::reset();
}

} // namespace
} // namespace lkmm
