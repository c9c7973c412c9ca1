#include "base/budget.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include <signal.h>

namespace lkmm
{

const char *
boundKindName(BoundKind kind)
{
    switch (kind) {
      case BoundKind::None: return "none";
      case BoundKind::WallClock: return "wall-clock";
      case BoundKind::Candidates: return "candidates";
      case BoundKind::RfAssignments: return "rf-assignments";
      case BoundKind::Cancelled: return "cancelled";
      case BoundKind::SweepBudget: return "sweep-budget";
    }
    return "unknown";
}

std::optional<BoundKind>
boundKindFromName(const std::string &name)
{
    for (int i = 0; i < kNumBoundKinds; ++i) {
        const BoundKind k = static_cast<BoundKind>(i);
        if (name == boundKindName(k))
            return k;
    }
    return std::nullopt;
}

const char *
completenessName(Completeness c)
{
    return c == Completeness::Complete ? "complete" : "truncated";
}

namespace
{

CancelToken g_signal_cancel;

void
cancelFromSignal(int)
{
    g_signal_cancel.cancel(); // single atomic store: async-signal-safe
}

std::size_t
scaleCount(std::size_t count, double factor)
{
    if (count == 0)
        return 0; // unlimited stays unlimited
    const double scaled = static_cast<double>(count) * factor;
    const double max =
        static_cast<double>(std::numeric_limits<std::size_t>::max());
    if (scaled >= max)
        return std::numeric_limits<std::size_t>::max();
    return scaled >= 1.0 ? static_cast<std::size_t>(scaled) : 1;
}

std::string
countToString(std::size_t count)
{
    return count == 0 ? "unlimited" : std::to_string(count);
}

} // namespace

const CancelToken &
cancelOnSignals()
{
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = cancelFromSignal;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
    signal(SIGPIPE, SIG_IGN);
    return g_signal_cancel;
}

RunBudget
RunBudget::scaled(double factor) const
{
    RunBudget b = *this;
    if (b.wallClock.count() > 0) {
        // Nanoseconds scale like a count: saturating, and never down
        // to 0, which would mean unlimited.
        using Rep = std::chrono::nanoseconds::rep;
        const std::size_t ns = scaleCount(
            static_cast<std::size_t>(b.wallClock.count()), factor);
        b.wallClock = std::chrono::nanoseconds(static_cast<Rep>(
            std::min<std::size_t>(ns, std::numeric_limits<Rep>::max())));
    }
    b.maxCandidates = scaleCount(maxCandidates, factor);
    b.maxRfAssignments = scaleCount(maxRfAssignments, factor);
    return b;
}

std::string
RunBudget::toString() const
{
    if (isUnlimited())
        return "unlimited";
    std::string s = "wall-clock=";
    if (wallClock.count() == 0) {
        s += "unlimited";
    } else {
        s += std::to_string(
            std::chrono::duration_cast<std::chrono::milliseconds>(wallClock)
                .count());
        s += "ms";
    }
    s += " candidates=" + countToString(maxCandidates);
    s += " rf=" + countToString(maxRfAssignments);
    if (cancel)
        s += " cancellable";
    if (shared)
        s += " shared";
    return s;
}

BudgetTracker::BudgetTracker(const RunBudget &budget) : budget_(budget)
{
    if (budget_.wallClock.count() > 0) {
        deadline_ = std::chrono::steady_clock::now() + budget_.wallClock;
        hasDeadline_ = true;
    }
}

bool
BudgetTracker::chargeBulk(std::size_t nCandidates,
                          std::size_t nRfAssignments)
{
    if (exhausted())
        return false;
    if (budget_.maxCandidates &&
        candidates_.fetch_add(nCandidates, std::memory_order_relaxed) +
                nCandidates >
            budget_.maxCandidates) {
        return trip(BoundKind::Candidates);
    }
    if (budget_.maxRfAssignments &&
        rfAssignments_.fetch_add(nRfAssignments,
                                 std::memory_order_relaxed) +
                nRfAssignments >
            budget_.maxRfAssignments) {
        return trip(BoundKind::RfAssignments);
    }
    if (budget_.shared &&
        !budget_.shared->chargeBulk(nCandidates, nRfAssignments)) {
        return trip(BoundKind::SweepBudget);
    }
    return checkNow();
}

bool
BudgetTracker::checkNow()
{
    if (exhausted())
        return false;
    if (budget_.cancel && budget_.cancel->cancelled())
        return trip(BoundKind::Cancelled);
    if (hasDeadline_ && std::chrono::steady_clock::now() >= deadline_)
        return trip(BoundKind::WallClock);
    if (budget_.shared && !budget_.shared->checkNow())
        return trip(BoundKind::SweepBudget);
    return true;
}

} // namespace lkmm
