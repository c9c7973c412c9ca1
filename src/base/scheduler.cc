#include "base/scheduler.hh"

#include <algorithm>

namespace lkmm
{

ThreadPool::ThreadPool(std::size_t threads)
{
    const std::size_t n = std::max<std::size_t>(1, threads);
    workers_.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

void
ThreadPool::post(std::function<void(std::size_t)> task)
{
    faultinject::checkSite(faultinject::site::kSchedulerPost);
    {
        std::lock_guard<std::mutex> lock(mu_);
        queue_.push_back(std::move(task));
    }
    cv_.notify_one();
}

std::size_t
ThreadPool::hardwareThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

void
ThreadPool::workerLoop(std::size_t thread)
{
    for (;;) {
        std::function<void(std::size_t)> task;
        {
            std::unique_lock<std::mutex> lock(mu_);
            cv_.wait(lock,
                     [this] { return stop_ || !queue_.empty(); });
            // Drain before stopping: posted tasks always run, so
            // parallelIndexed joins cannot be left hanging by a
            // concurrent destructor.
            if (queue_.empty())
                return;
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        try {
            task(thread);
        } catch (...) {
            // post()'s contract says tasks capture their own
            // exceptions; if one leaks anyway, losing it beats
            // std::terminate taking down a whole sweep.
        }
    }
}

} // namespace lkmm
