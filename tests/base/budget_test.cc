/**
 * @file
 * Unit tests for the robustness base layer: RunBudget/BudgetTracker
 * (base/budget.hh), the status taxonomy (base/status.hh) and the
 * name inverses of BoundKind, StatusCode and Verdict.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "base/budget.hh"
#include "base/logging.hh"
#include "base/status.hh"
#include "lkmm/runner.hh"

namespace lkmm
{
namespace
{

using namespace std::chrono_literals;

// RunBudget ----------------------------------------------------------

TEST(RunBudget, DefaultIsUnlimited)
{
    RunBudget b;
    EXPECT_TRUE(b.isUnlimited());
    EXPECT_TRUE(RunBudget::unlimited().isUnlimited());

    b.maxCandidates = 10;
    EXPECT_FALSE(b.isUnlimited());
}

TEST(RunBudget, ScaledMultipliesEveryBound)
{
    RunBudget b;
    b.wallClock = 10ms;
    b.maxCandidates = 100;
    b.maxRfAssignments = 50;

    RunBudget s = b.scaled(4.0);
    EXPECT_EQ(s.wallClock, 40ms);
    EXPECT_EQ(s.maxCandidates, 400u);
    EXPECT_EQ(s.maxRfAssignments, 200u);
}

TEST(RunBudget, ScaledKeepsUnlimitedUnlimited)
{
    RunBudget b;
    b.maxCandidates = 100;
    // The other bounds are 0 = unlimited and must stay that way
    // (0 * k == 0 happens to work, but saturation must not turn
    // "unlimited" into a finite bound either).
    RunBudget s = b.scaled(1000.0);
    EXPECT_EQ(s.maxCandidates, 100000u);
    EXPECT_EQ(s.maxRfAssignments, 0u);
    EXPECT_EQ(s.wallClock.count(), 0);

    EXPECT_TRUE(RunBudget::unlimited().scaled(8.0).isUnlimited());
}

TEST(RunBudget, ScaledSaturatesInsteadOfWrapping)
{
    RunBudget b;
    b.maxCandidates = std::numeric_limits<std::size_t>::max() / 2;
    RunBudget s = b.scaled(1e12);
    // Saturated to max, not wrapped to something small (and not 0,
    // which would mean "unlimited" — saturation is fine for an
    // escalation policy, silent unlimiting is not the contract).
    EXPECT_EQ(s.maxCandidates, std::numeric_limits<std::size_t>::max());
}

TEST(RunBudget, ScalingDownNeverUnbounds)
{
    RunBudget b;
    b.wallClock = 50ms;
    b.maxCandidates = 10;
    // A factor below 1 shrinks a bound but must not reach 0, which
    // means "unlimited": a retry would otherwise run without bounds.
    for (const double factor : {0.0, -1.0}) {
        const RunBudget s = b.scaled(factor);
        EXPECT_GT(s.wallClock.count(), 0) << factor;
        EXPECT_LE(s.wallClock, b.wallClock) << factor;
        EXPECT_GE(s.maxCandidates, 1u) << factor;
        EXPECT_LE(s.maxCandidates, b.maxCandidates) << factor;
    }
}

TEST(RunBudget, ToStringMentionsBounds)
{
    RunBudget b;
    b.maxCandidates = 42;
    const std::string s = b.toString();
    EXPECT_NE(s.find("42"), std::string::npos);
    EXPECT_NE(RunBudget::unlimited().toString(), "");
}

// BudgetTracker ------------------------------------------------------

TEST(BudgetTracker, CandidateCapDeliversExactlyN)
{
    RunBudget b;
    b.maxCandidates = 3;
    BudgetTracker t(b);
    // A budget of N admits exactly N candidates ...
    EXPECT_TRUE(t.onCandidate());
    EXPECT_TRUE(t.onCandidate());
    EXPECT_TRUE(t.onCandidate());
    EXPECT_FALSE(t.exhausted());
    // ... and trips on the (N+1)-th attempt.
    EXPECT_FALSE(t.onCandidate());
    EXPECT_TRUE(t.exhausted());
    EXPECT_EQ(t.bound(), BoundKind::Candidates);
    // Latched: everything fails afterwards.
    EXPECT_FALSE(t.onCandidate());
    EXPECT_FALSE(t.onRfAssignment());
}

TEST(BudgetTracker, RfAssignmentCap)
{
    RunBudget b;
    b.maxRfAssignments = 2;
    BudgetTracker t(b);
    EXPECT_TRUE(t.onRfAssignment());
    EXPECT_TRUE(t.onRfAssignment());
    EXPECT_FALSE(t.onRfAssignment());
    EXPECT_EQ(t.bound(), BoundKind::RfAssignments);
}

TEST(BudgetTracker, UnlimitedNeverTrips)
{
    BudgetTracker t(RunBudget::unlimited());
    for (int i = 0; i < 10000; ++i) {
        ASSERT_TRUE(t.onCandidate());
        ASSERT_TRUE(t.onRfAssignment());
    }
    EXPECT_TRUE(t.checkNow());
    EXPECT_FALSE(t.exhausted());
    EXPECT_EQ(t.bound(), BoundKind::None);
}

TEST(BudgetTracker, ExpiredDeadlineTripsOnCheckNow)
{
    RunBudget b;
    b.wallClock = 1ns;
    BudgetTracker t(b);
    // The deadline is effectively already past; the unconditional
    // poll must see it.
    while (t.checkNow()) {}
    EXPECT_EQ(t.bound(), BoundKind::WallClock);
    EXPECT_FALSE(t.onCandidate());
}

TEST(BudgetTracker, CancellationTripsOnCheckNow)
{
    CancelToken token;
    RunBudget b;
    b.cancel = &token;
    BudgetTracker t(b);
    EXPECT_TRUE(t.checkNow());
    token.cancel();
    EXPECT_FALSE(t.checkNow());
    EXPECT_EQ(t.bound(), BoundKind::Cancelled);

    token.reset();
    EXPECT_FALSE(token.cancelled());
}

TEST(BudgetTracker, NamesAreStable)
{
    EXPECT_STREQ(boundKindName(BoundKind::WallClock), "wall-clock");
    EXPECT_STREQ(boundKindName(BoundKind::Candidates), "candidates");
    EXPECT_STREQ(boundKindName(BoundKind::SweepBudget), "sweep-budget");
    EXPECT_STREQ(completenessName(Completeness::Complete), "complete");
    EXPECT_STREQ(completenessName(Completeness::Truncated), "truncated");
}

// Thread safety: the contracts the parallel sweep engine rests on. --

TEST(BudgetTracker, ConcurrentCapGrantsExactlyN)
{
    // A cap of N hands out exactly N units no matter how many
    // threads contend: fetch_add gives each caller a distinct
    // pre-increment value, so exactly N of them land below the cap.
    constexpr std::size_t kCap = 1000;
    constexpr int kThreads = 8;
    RunBudget b;
    b.maxCandidates = kCap;
    BudgetTracker t(b);

    std::atomic<std::size_t> granted{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&] {
            for (std::size_t k = 0; k < kCap; ++k) {
                if (t.onCandidate())
                    granted.fetch_add(1);
            }
        });
    }
    for (std::thread &th : threads)
        th.join();

    EXPECT_EQ(granted.load(), kCap);
    EXPECT_EQ(t.bound(), BoundKind::Candidates);
}

TEST(BudgetTracker, FirstBoundTrippedWinsAndLatches)
{
    RunBudget b;
    b.maxCandidates = 1;
    b.maxRfAssignments = 1;
    BudgetTracker t(b);
    EXPECT_TRUE(t.onCandidate());
    EXPECT_FALSE(t.onCandidate());
    EXPECT_EQ(t.bound(), BoundKind::Candidates);
    // A later trip of a different kind loses the race: the latched
    // bound never changes once set.
    EXPECT_FALSE(t.onRfAssignment());
    EXPECT_EQ(t.bound(), BoundKind::Candidates);
}

TEST(BudgetTracker, SharedTrackerLatchesSweepBudget)
{
    // A per-test budget pointing at a sweep-wide tracker: when the
    // *shared* tracker's cap fires, the local tracker reports
    // SweepBudget — "the sweep stopped me", not "my budget fired" —
    // while the shared one records which bound actually tripped.
    RunBudget sweepBudget;
    sweepBudget.maxCandidates = 5;
    BudgetTracker sweep(sweepBudget);

    RunBudget local;
    local.shared = &sweep;
    BudgetTracker t(local);

    for (int i = 0; i < 5; ++i)
        EXPECT_TRUE(t.onCandidate());
    EXPECT_FALSE(t.onCandidate());
    EXPECT_EQ(t.bound(), BoundKind::SweepBudget);
    EXPECT_EQ(sweep.bound(), BoundKind::Candidates);
}

TEST(BudgetTracker, SharedCapSplitsExactlyAcrossWorkers)
{
    // N workers with unlimited per-test budgets all charging one
    // sweep tracker: the sweep cap still grants exactly N units in
    // total, and every worker ends up latched on SweepBudget.
    constexpr std::size_t kCap = 400;
    constexpr int kThreads = 4;
    RunBudget sweepBudget;
    sweepBudget.maxRfAssignments = kCap;
    BudgetTracker sweep(sweepBudget);

    std::atomic<std::size_t> granted{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&] {
            RunBudget local;
            local.shared = &sweep;
            BudgetTracker t(local);
            bool denied = false;
            for (std::size_t k = 0; k < kCap; ++k) {
                if (t.onRfAssignment())
                    granted.fetch_add(1);
                else
                    denied = true;
            }
            // A worker the sweep refused latches SweepBudget; a
            // worker whose every charge landed below the cap (e.g.
            // it ran first on a one-core box) stays clean.
            EXPECT_EQ(t.bound(), denied ? BoundKind::SweepBudget
                                        : BoundKind::None);
        });
    }
    for (std::thread &th : threads)
        th.join();

    EXPECT_EQ(granted.load(), kCap);
    EXPECT_EQ(sweep.bound(), BoundKind::RfAssignments);
}

TEST(BudgetTracker, ChargeBulkSettlesAgainstCaps)
{
    RunBudget b;
    b.maxCandidates = 100;
    BudgetTracker t(b);
    // Bulk charges model a forked child's whole run settled at once.
    EXPECT_TRUE(t.chargeBulk(60, 1000)); // rf unlimited here
    EXPECT_TRUE(t.chargeBulk(40, 0));    // exactly at the cap
    EXPECT_FALSE(t.chargeBulk(1, 0));    // cap already consumed
    EXPECT_EQ(t.bound(), BoundKind::Candidates);
}

TEST(BudgetTracker, SharedExhaustionPropagatesThroughCheckNow)
{
    RunBudget sweepBudget;
    sweepBudget.maxCandidates = 1;
    BudgetTracker sweep(sweepBudget);
    EXPECT_TRUE(sweep.onCandidate());
    EXPECT_FALSE(sweep.onCandidate());

    RunBudget local;
    local.shared = &sweep;
    BudgetTracker t(local);
    // Even the cold-path poll must notice the sweep is spent.
    EXPECT_FALSE(t.checkNow());
    EXPECT_EQ(t.bound(), BoundKind::SweepBudget);
}

// Status taxonomy ----------------------------------------------------

TEST(Status, CodeAndMessage)
{
    Status s(StatusCode::BudgetExceeded, "candidate cap");
    EXPECT_EQ(s.code(), StatusCode::BudgetExceeded);
    EXPECT_FALSE(s.isOk());
    EXPECT_NE(s.toString().find("candidate cap"), std::string::npos);
    EXPECT_NE(s.toString().find(statusCodeName(s.code())),
              std::string::npos);

    EXPECT_TRUE(Status::ok().isOk());
}

TEST(Status, StatusOfClassifiesExceptions)
{
    StatusError se(Status(StatusCode::IoError, "no such file"));
    EXPECT_EQ(statusOf(se).code(), StatusCode::IoError);
    EXPECT_EQ(statusOf(se).message(), se.status().message());

    FatalError fe("fatal: bad input");
    EXPECT_EQ(statusOf(fe).code(), StatusCode::InvalidArgument);

    PanicError pe("panic: impossible");
    EXPECT_EQ(statusOf(pe).code(), StatusCode::Internal);

    std::runtime_error re("plain");
    EXPECT_EQ(statusOf(re).code(), StatusCode::Internal);
}

TEST(Status, ParseErrorCarriesCoordinates)
{
    ParseError e("litmus parser: expected ')'", 3, 14, ";");
    EXPECT_EQ(e.line(), 3);
    EXPECT_EQ(e.column(), 14);
    EXPECT_EQ(e.token(), ";");
    EXPECT_EQ(e.status().code(), StatusCode::ParseError);
    // The rendered message must carry the coordinates and token.
    const std::string what = e.what();
    EXPECT_NE(what.find("3:14"), std::string::npos);
    EXPECT_NE(what.find(";"), std::string::npos);
}

TEST(Status, StatusErrorIsAFatalError)
{
    // The bridge property existing catch-sites rely on.
    EXPECT_THROW(
        throw StatusError(Status(StatusCode::EvalError, "x")),
        FatalError);
    EXPECT_THROW(throw ParseError("p", 1, 1, "t"), StatusError);
}

// Enum names -----------------------------------------------------------

TEST(EnumNames, EveryNameHasAnInverse)
{
    for (int i = 0; i < kNumBoundKinds; ++i) {
        const auto kind = static_cast<BoundKind>(i);
        EXPECT_EQ(boundKindFromName(boundKindName(kind)), kind)
            << boundKindName(kind);
    }
    for (int i = 0; i < kNumStatusCodes; ++i) {
        const auto code = static_cast<StatusCode>(i);
        EXPECT_EQ(statusCodeFromName(statusCodeName(code)), code)
            << statusCodeName(code);
    }
    for (int i = 0; i < kNumVerdicts; ++i) {
        const auto verdict = static_cast<Verdict>(i);
        EXPECT_EQ(verdictFromName(verdictName(verdict)), verdict)
            << verdictName(verdict);
    }
    EXPECT_EQ(boundKindFromName("nope"), std::nullopt);
    EXPECT_EQ(statusCodeFromName("nope"), std::nullopt);
    EXPECT_EQ(verdictFromName("nope"), std::nullopt);
}

} // namespace
} // namespace lkmm
