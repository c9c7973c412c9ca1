#include "rcu/urcu.hh"

#include <thread>

#include "base/logging.hh"

namespace lkmm
{

UrcuDomain::UrcuDomain(int max_threads)
    : rc_(max_threads)
{
    for (auto &c : rc_)
        c.store(0, std::memory_order_relaxed);
}

void
UrcuDomain::readLock(int tid)
{
    auto &rc = rc_[tid];
    // Line 10: tmp = READ_ONCE(rc[i]).
    const std::uint64_t tmp = rc.load(std::memory_order_relaxed);
    if (!(tmp & CS_MASK)) {
        // Line 13: copy the current phase (and counter = 1).
        rc.store(gc_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
        // Line 14: smp_mb().
        std::atomic_thread_fence(std::memory_order_seq_cst);
    } else {
        // Line 16: inner nesting level.
        rc.store(tmp + 1, std::memory_order_relaxed);
    }
}

void
UrcuDomain::readUnlock(int tid)
{
    auto &rc = rc_[tid];
    // Line 23: smp_mb().
    std::atomic_thread_fence(std::memory_order_seq_cst);
    // Line 24.
    rc.store(rc.load(std::memory_order_relaxed) - 1,
             std::memory_order_relaxed);
}

bool
UrcuDomain::gpOngoing(int i) const
{
    // Lines 27-30.
    const std::uint64_t val = rc_[i].load(std::memory_order_relaxed);
    return (val & CS_MASK) &&
        ((val ^ gc_.load(std::memory_order_relaxed)) & GP_PHASE);
}

void
UrcuDomain::updateCounterAndWait()
{
    // Line 36: flip the phase.
    gc_.store(gc_.load(std::memory_order_relaxed) ^ GP_PHASE,
              std::memory_order_relaxed);
    // Lines 38-39: wait for each thread.
    for (std::size_t i = 0; i < rc_.size(); ++i) {
        while (gpOngoing(static_cast<int>(i)))
            std::this_thread::yield();
    }
}

void
UrcuDomain::synchronize()
{
    // Line 44.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    {
        // Lines 45-48: two phase flips under the mutex.
        std::lock_guard<std::mutex> guard(gpLock_);
        updateCounterAndWait();
        updateCounterAndWait();
    }
    // Line 49.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    gpCount_.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t
UrcuDomain::nesting(int tid) const
{
    return rc_[tid].load(std::memory_order_relaxed) & CS_MASK;
}

UrcuDomain::~UrcuDomain()
{
    {
        std::lock_guard<std::mutex> guard(cbLock_);
        stopping_ = true;
    }
    cbCv_.notify_all();
    if (reclaimer_.joinable())
        reclaimer_.join();
}

void
UrcuDomain::callRcu(std::function<void()> callback)
{
    std::lock_guard<std::mutex> guard(cbLock_);
    cbQueue_.push_back(std::move(callback));
    ++cbQueued_;
    if (!reclaimer_.joinable())
        reclaimer_ = std::thread(&UrcuDomain::reclaimerLoop, this);
    cbCv_.notify_all();
}

void
UrcuDomain::reclaimerLoop()
{
    for (;;) {
        std::deque<std::function<void()>> batch;
        {
            std::unique_lock<std::mutex> lock(cbLock_);
            cbCv_.wait(lock, [&] {
                return stopping_ || !cbQueue_.empty();
            });
            if (stopping_ && cbQueue_.empty())
                return;
            batch.swap(cbQueue_);
        }
        // One grace period covers the whole batch: every callback
        // was queued before it started.
        synchronize();
        for (auto &cb : batch) {
            cb();
            cbDone_.fetch_add(1, std::memory_order_release);
        }
        {
            // rcuBarrier checks cbDone_ under cbLock_ and then
            // sleeps; passing through the lock here means it is
            // either asleep (and gets the notify) or has not checked
            // yet (and sees the new count), never in between.
            std::lock_guard<std::mutex> guard(cbLock_);
        }
        cbCv_.notify_all();
    }
}

void
UrcuDomain::rcuBarrier()
{
    std::unique_lock<std::mutex> lock(cbLock_);
    const std::uint64_t target = cbQueued_;
    cbCv_.wait(lock, [&] {
        return cbDone_.load(std::memory_order_acquire) >= target;
    });
}

} // namespace lkmm
