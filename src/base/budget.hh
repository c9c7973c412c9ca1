/**
 * @file
 * Run budgets: bounded execution for the exponential search core.
 *
 * The herd-style enumerator explores every (path, rf, co)
 * combination — exponential in test size — so any catalog sweep over
 * generated or fuzzed inputs needs bounds: a wall-clock deadline, a
 * cap on candidate executions, a cap on rf assignments, and a
 * cooperative cancellation token.  RunBudget describes the bounds;
 * BudgetTracker enforces them with O(1) integer checks on the hot
 * path (the clock is only consulted every kTimeCheckInterval
 * events, keeping overhead in the noise).
 *
 * BudgetTracker is thread-safe: counters are relaxed atomics and the
 * tripped bound latches with a compare-exchange, so one tracker can
 * be shared by every worker of a parallel sweep.  First bound
 * tripped wins — all later trips lose the race and observe the
 * winner — and a counter cap of N grants *exactly* N units across
 * any number of contending threads (fetch_add hands out distinct
 * pre-increment values, so exactly N callers see a value below the
 * cap).  A per-test budget can additionally point at a sweep-wide
 * shared tracker (RunBudget::shared): the hooks charge both, and
 * when the shared tracker is exhausted the local one latches
 * BoundKind::SweepBudget so callers can tell "this test's budget
 * fired" from "the whole sweep's budget fired".
 *
 * A bounded run that trips a bound is *truncated*, not wrong: the
 * caller reports Completeness::Truncated plus which bound fired, and
 * verdict logic degrades to Unknown where the evidence seen so far
 * is not conclusive (see lkmm/runner.hh).
 */

#ifndef LKMM_BASE_BUDGET_HH
#define LKMM_BASE_BUDGET_HH

#include <atomic>
#include <chrono>
#include <cstddef>
#include <optional>
#include <string>

namespace lkmm
{

/**
 * Cooperative cancellation: set once from any thread, polled by the
 * enumeration loops at the same cadence as the deadline check.
 */
class CancelToken
{
  public:
    void cancel() { cancelled_.store(true, std::memory_order_relaxed); }

    bool
    cancelled() const
    {
        return cancelled_.load(std::memory_order_relaxed);
    }

    void reset() { cancelled_.store(false, std::memory_order_relaxed); }

  private:
    std::atomic<bool> cancelled_{false};
};

/**
 * The Ctrl-C path of the command-line tools: install SIGINT and
 * SIGTERM handlers that cancel the returned process-wide token, and
 * ignore SIGPIPE, so a reader going away (`... | head`, a dead
 * client) surfaces as EPIPE on the write, never as process death.
 * The handler does one relaxed atomic store, which is
 * async-signal-safe; the tools' loops poll the token and shut down
 * in order (kill children, flush journals, print partial reports)
 * outside signal context.  Installed without SA_RESTART, so a
 * blocking call the signal interrupts returns EINTR instead of
 * resuming.
 */
const CancelToken &cancelOnSignals();

/** Which bound of a RunBudget fired. */
enum class BoundKind
{
    None,
    WallClock,
    Candidates,
    RfAssignments,
    Cancelled,
    /** The sweep-wide shared tracker (not this run's own budget). */
    SweepBudget,
};

constexpr int kNumBoundKinds = 6;

/** Short stable name, e.g. "wall-clock". */
const char *boundKindName(BoundKind kind);

/** Inverse of boundKindName; nullopt for unknown names. */
std::optional<BoundKind> boundKindFromName(const std::string &name);

/** Did a bounded run see the whole search space? */
enum class Completeness
{
    Complete,
    Truncated,
};

const char *completenessName(Completeness c);

class BudgetTracker;

/**
 * Resource bounds for one verification run.
 *
 * A zero value means "unlimited" for every numeric field; the
 * default-constructed budget is fully unlimited, so existing
 * call sites keep their semantics.
 */
struct RunBudget
{
    /** Wall-clock deadline for the run (0 = none). */
    std::chrono::nanoseconds wallClock{0};
    /** Maximum candidate executions delivered (0 = unlimited). */
    std::size_t maxCandidates = 0;
    /** Maximum rf assignments explored (0 = unlimited). */
    std::size_t maxRfAssignments = 0;
    /** Optional cancellation token (not owned; may be null). */
    const CancelToken *cancel = nullptr;
    /**
     * Optional sweep-wide tracker shared across workers (not owned;
     * may be null).  Every unit of work charged to this run is also
     * charged there, and this run stops with BoundKind::SweepBudget
     * once the shared tracker is exhausted.
     */
    BudgetTracker *shared = nullptr;

    static RunBudget unlimited() { return RunBudget{}; }

    bool
    isUnlimited() const
    {
        return wallClock.count() == 0 && maxCandidates == 0 &&
            maxRfAssignments == 0 && cancel == nullptr &&
            shared == nullptr;
    }

    /**
     * The escalation policy of the batch runner: every numeric bound
     * multiplied by factor (saturating; unlimited stays unlimited,
     * and a bounded field stays bounded, at least 1 ns or 1 unit,
     * whatever the factor).
     */
    RunBudget scaled(double factor) const;

    /** "wall-clock=50ms candidates=1000 rf=unlimited ...". */
    std::string toString() const;
};

/**
 * Enforces one RunBudget over one run — or, shared, over all the
 * concurrent runs of a parallel sweep.
 *
 * The on*() hooks return false when the run must stop; the tracker
 * latches the first bound that fired.  Hooks are called *before*
 * consuming the corresponding unit of work, so a budget of N
 * candidates delivers exactly N candidates — also under contention —
 * and is only reported exhausted when an (N+1)-th was attempted.
 */
class BudgetTracker
{
  public:
    explicit BudgetTracker(const RunBudget &budget);

    BudgetTracker(const BudgetTracker &) = delete;
    BudgetTracker &operator=(const BudgetTracker &) = delete;

    /** About to explore one more rf assignment. */
    bool
    onRfAssignment()
    {
        return charge(rfAssignments_, budget_.maxRfAssignments,
                      BoundKind::RfAssignments,
                      &BudgetTracker::onRfAssignment);
    }

    /** About to deliver one more candidate execution. */
    bool
    onCandidate()
    {
        return charge(candidates_, budget_.maxCandidates,
                      BoundKind::Candidates,
                      &BudgetTracker::onCandidate);
    }

    /**
     * Bulk accounting: charge n candidates and m rf assignments at
     * once.  Used where the work happened elsewhere (a forked child)
     * and the parent settles the whole test against a sweep-wide
     * tracker in one step.
     */
    bool chargeBulk(std::size_t nCandidates, std::size_t nRfAssignments);

    /** Unconditional deadline/cancellation poll (cold path). */
    bool checkNow();

    bool exhausted() const { return bound() != BoundKind::None; }

    BoundKind
    bound() const
    {
        return bound_.load(std::memory_order_acquire);
    }

  private:
    /** Clock/cancel polls are amortised over this many events. */
    static constexpr std::size_t kTimeCheckInterval = 256;

    /**
     * Latch `kind` as the tripped bound.  Only the first caller
     * wins; everyone returns false and later reads see the winner.
     */
    bool
    trip(BoundKind kind)
    {
        BoundKind expected = BoundKind::None;
        bound_.compare_exchange_strong(expected, kind,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire);
        return false;
    }

    /**
     * One unit of work against one counter, plus the forward to the
     * shared tracker (which charges the same unit via `hook`).
     */
    bool
    charge(std::atomic<std::size_t> &counter, std::size_t cap,
           BoundKind kind, bool (BudgetTracker::*hook)())
    {
        if (exhausted())
            return false;
        if (cap && counter.fetch_add(1, std::memory_order_relaxed) +
                       1 > cap) {
            return trip(kind);
        }
        if (budget_.shared && !(budget_.shared->*hook)())
            return trip(BoundKind::SweepBudget);
        return checkTimeEvery();
    }

    bool
    checkTimeEvery()
    {
        if (sinceTimeCheck_.fetch_add(1, std::memory_order_relaxed) %
                kTimeCheckInterval !=
            kTimeCheckInterval - 1) {
            return true;
        }
        return checkNow();
    }

    RunBudget budget_;
    std::chrono::steady_clock::time_point deadline_;
    bool hasDeadline_ = false;
    std::atomic<std::size_t> candidates_{0};
    std::atomic<std::size_t> rfAssignments_{0};
    std::atomic<std::size_t> sinceTimeCheck_{0};
    std::atomic<BoundKind> bound_{BoundKind::None};
};

} // namespace lkmm

#endif // LKMM_BASE_BUDGET_HH
