/**
 * @file
 * Budgeted enumeration: a diy-generated program with a large search
 * space trips the candidate/rf caps and reports a truncated,
 * bound-attributed result; re-running with a larger budget
 * completes.  Also covers the runner's graceful degradation to
 * Verdict::Unknown and the shared engine flags.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <string>
#include <utility>

#include "base/budget.hh"
#include "base/status.hh"
#include "diy/generator.hh"
#include "exec/engine_config.hh"
#include "exec/enumerate.hh"
#include "lkmm/catalog.hh"
#include "lkmm/runner.hh"
#include "model/lkmm_model.hh"

namespace lkmm
{
namespace
{

using namespace std::chrono_literals;

/**
 * A 4-thread, 8-event diy cycle (Rfe -> Po(R,W) four times): big
 * enough that its candidate count dwarfs any small cap we set.
 */
Program
bigDiyProgram()
{
    std::vector<DiyEdge> cycle;
    for (int i = 0; i < 4; ++i) {
        cycle.push_back(DiyEdge::rfe());
        cycle.push_back(DiyEdge::po(EvKind::Read, EvKind::Write));
    }
    std::optional<Program> prog = cycleToProgram(cycle);
    // The cycle is well-formed by construction.
    EXPECT_TRUE(prog.has_value());
    return *prog;
}

TEST(BudgetedEnumeration, CandidateCapTruncates)
{
    Program prog = bigDiyProgram();

    // Unbudgeted baseline.
    Enumerator full(prog);
    std::size_t total = 0;
    full.forEach([&](const CandidateExecution &) {
        ++total;
        return true;
    });
    EXPECT_EQ(full.completeness(), Completeness::Complete);
    EXPECT_EQ(full.trippedBound(), BoundKind::None);
    ASSERT_GT(total, 8u) << "search space too small for this test";

    // Capped run: exactly the cap is delivered, the run is reported
    // truncated, and the tripped bound is attributed.
    RunBudget b;
    b.maxCandidates = 8;
    Enumerator capped(prog, b);
    std::size_t seen = 0;
    capped.forEach([&](const CandidateExecution &) {
        ++seen;
        return true;
    });
    EXPECT_EQ(seen, 8u);
    EXPECT_EQ(capped.completeness(), Completeness::Truncated);
    EXPECT_EQ(capped.trippedBound(), BoundKind::Candidates);

    // Escalated re-run (the batch runner's retry policy) completes.
    RunBudget big = b.scaled(double(total));
    Enumerator retried(prog, big);
    std::size_t retried_n = 0;
    retried.forEach([&](const CandidateExecution &) {
        ++retried_n;
        return true;
    });
    EXPECT_EQ(retried_n, total);
    EXPECT_EQ(retried.completeness(), Completeness::Complete);
    EXPECT_EQ(retried.trippedBound(), BoundKind::None);
}

TEST(BudgetedEnumeration, ExactBudgetIsComplete)
{
    // A budget of exactly the candidate count must NOT report
    // truncation: the bound only fires when an (N+1)-th candidate
    // is attempted.
    Program prog = sb();
    Enumerator full(prog);
    const std::size_t total = full.all().size();
    ASSERT_GT(total, 0u);

    RunBudget b;
    b.maxCandidates = total;
    Enumerator exact(prog, b);
    EXPECT_EQ(exact.all().size(), total);
    EXPECT_EQ(exact.completeness(), Completeness::Complete);
    EXPECT_EQ(exact.trippedBound(), BoundKind::None);
}

TEST(BudgetedEnumeration, RfAssignmentCapTruncates)
{
    Program prog = bigDiyProgram();
    RunBudget b;
    b.maxRfAssignments = 2;
    Enumerator en(prog, b);
    en.forEach([](const CandidateExecution &) { return true; });
    EXPECT_EQ(en.completeness(), Completeness::Truncated);
    EXPECT_EQ(en.trippedBound(), BoundKind::RfAssignments);
    EXPECT_LE(en.stats().rfAssignments, 2u);
}

TEST(BudgetedEnumeration, ExpiredDeadlineTruncatesImmediately)
{
    Program prog = bigDiyProgram();
    RunBudget b;
    b.wallClock = 1ns;
    Enumerator en(prog, b);
    std::size_t seen = 0;
    en.forEach([&](const CandidateExecution &) {
        ++seen;
        return true;
    });
    EXPECT_EQ(en.completeness(), Completeness::Truncated);
    EXPECT_EQ(en.trippedBound(), BoundKind::WallClock);
}

TEST(BudgetedEnumeration, CancellationTruncates)
{
    Program prog = bigDiyProgram();
    CancelToken token;
    token.cancel();
    RunBudget b;
    b.cancel = &token;
    Enumerator en(prog, b);
    en.forEach([](const CandidateExecution &) { return true; });
    EXPECT_EQ(en.completeness(), Completeness::Truncated);
    EXPECT_EQ(en.trippedBound(), BoundKind::Cancelled);
}

// Runner degradation -------------------------------------------------

TEST(BudgetedRunner, TruncatedExistsDegradesToUnknown)
{
    // SB+mbs is Forbid under LKMM, but a run truncated before the
    // search space is exhausted cannot soundly say so.
    LkmmModel model;
    Program p = sbMbs();

    RunResult complete = runTest(p, model);
    ASSERT_EQ(complete.verdict, Verdict::Forbid);
    EXPECT_FALSE(complete.truncated());

    RunBudget b;
    b.maxCandidates = 1;
    RunResult truncated = runTest(p, model, b);
    EXPECT_TRUE(truncated.truncated());
    EXPECT_EQ(truncated.trippedBound, BoundKind::Candidates);
    EXPECT_EQ(truncated.verdict, Verdict::Unknown);
}

TEST(BudgetedRunner, WitnessStillProvesAllowWhenTruncated)
{
    // SB is Allow under LKMM with many witnesses; even a truncated
    // run that found one keeps the (sound) Allow verdict.  Use a
    // cap large enough that at least one witness is among the
    // delivered candidates but smaller than the full space.
    LkmmModel model;
    Program p = sb();
    RunResult complete = runTest(p, model);
    ASSERT_EQ(complete.verdict, Verdict::Allow);
    ASSERT_GT(complete.candidates, 1u);

    RunBudget b;
    b.maxCandidates = complete.candidates - 1;
    RunResult truncated = runTest(p, model, b);
    EXPECT_TRUE(truncated.truncated());
    if (truncated.witnesses > 0)
        EXPECT_EQ(truncated.verdict, Verdict::Allow);
    else
        EXPECT_EQ(truncated.verdict, Verdict::Unknown);
}

TEST(BudgetedRunner, QuickVerdictDegrades)
{
    LkmmModel model;
    Program p = sbMbs();
    RunBudget b;
    b.maxCandidates = 1;
    EXPECT_EQ(quickVerdict(p, model, b), Verdict::Unknown);
    EXPECT_EQ(quickVerdict(p, model), Verdict::Forbid);
    EXPECT_EQ(quickVerdict(sb(), model), Verdict::Allow);
}

// Engine flags -------------------------------------------------------

/** Parse one engine flag with `value`; the thrown status, if any. */
std::optional<Status>
parseEngineFlag(EngineConfig &cfg, const std::string &flag,
                const std::string &value)
{
    try {
        EXPECT_TRUE(cfg.parseFlag(flag, [&] { return value; }));
        return std::nullopt;
    } catch (const StatusError &e) {
        return e.status();
    }
}

TEST(EngineFlags, CountsAcceptPlainDecimalDigits)
{
    EngineConfig cfg;
    EXPECT_FALSE(parseEngineFlag(cfg, "--engine-max-candidates", "1000"));
    EXPECT_EQ(cfg.budget.maxCandidates, 1000u);
    EXPECT_FALSE(parseEngineFlag(cfg, "--engine-max-rf", "0"));
    EXPECT_EQ(cfg.budget.maxRfAssignments, 0u);
    EXPECT_FALSE(parseEngineFlag(cfg, "--engine-max-rf",
                                 "18446744073709551615"));
    EXPECT_EQ(cfg.budget.maxRfAssignments, 18446744073709551615u);
    EXPECT_FALSE(parseEngineFlag(cfg, "--engine-time-limit-ms", "250"));
    EXPECT_EQ(cfg.budget.wallClock, 250ms);
}

TEST(EngineFlags, RejectsAnythingButDigitsThatFit)
{
    // Each of these once parsed to a silently wrong budget: 1e3 as a
    // cap of 1, -1 as 2^64-1 (or, for the deadline, as "none"),
    // 12abc as 12.
    const std::pair<const char *, const char *> bad[] = {
        {"--engine-max-candidates", "1e3"},
        {"--engine-max-candidates", "-1"},
        {"--engine-max-candidates", "12abc"},
        {"--engine-max-candidates", "+5"},
        {"--engine-max-candidates", " 5"},
        {"--engine-max-candidates", ""},
        {"--engine-max-candidates", "18446744073709551616"},
        {"--engine-max-rf", "-1"},
        {"--engine-time-limit-ms", "-1"},
        {"--engine-time-limit-ms", "1.5"},
        {"--engine-time-limit-ms", "9223372036854775807"},
    };
    for (const auto &[flag, value] : bad) {
        SCOPED_TRACE(std::string(flag) + " '" + value + "'");
        EngineConfig cfg;
        const std::optional<Status> st = parseEngineFlag(cfg, flag, value);
        ASSERT_TRUE(st.has_value());
        EXPECT_EQ(st->code(), StatusCode::InvalidArgument);
        EXPECT_NE(st->message().find(flag), std::string::npos)
            << st->message();
        // A rejected value leaves the budget untouched.
        EXPECT_TRUE(cfg.budget.isUnlimited());
    }
}

TEST(EngineFlags, TwoModesDefaultingToRfFirst)
{
    EngineConfig cfg;
    EXPECT_EQ(cfg.modeName(), "rf-first");
    EXPECT_TRUE(cfg.enumerate.rfFirst);
    EXPECT_FALSE(parseEngineFlag(cfg, "--engine", "brute"));
    EXPECT_EQ(cfg.modeName(), "brute");
    EXPECT_FALSE(cfg.enumerate.rfFirst);
    EXPECT_FALSE(parseEngineFlag(cfg, "--engine", "rf-first"));
    EXPECT_EQ(cfg.modeName(), "rf-first");
    for (const char *gone : {"incremental", "incremental-noarena"}) {
        SCOPED_TRACE(gone);
        const std::optional<Status> st =
            parseEngineFlag(cfg, "--engine", gone);
        ASSERT_TRUE(st.has_value());
        EXPECT_EQ(st->code(), StatusCode::InvalidArgument);
        EXPECT_NE(st->message().find("brute"), std::string::npos);
        EXPECT_NE(st->message().find("rf-first"), std::string::npos);
    }
}

} // namespace
} // namespace lkmm
