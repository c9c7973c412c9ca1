/**
 * @file
 * The hardened batch runner (src/lkmm/batch): failure isolation for
 * malformed tests, per-test budgets with Truncated reporting and
 * retry escalation, cross-check divergence recording, and recovery
 * from injected faults — a sweep never aborts on one bad test.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "base/faultinject.hh"
#include "cat/eval.hh"
#include "diy/generator.hh"
#include "lkmm/batch.hh"
#include "lkmm/catalog.hh"
#include "model/lkmm_model.hh"
#include "model/sc_model.hh"

namespace lkmm
{
namespace
{

/** A 4-thread diy cycle with a candidate count dwarfing Table 5's. */
Program
bigDiyProgram()
{
    std::vector<DiyEdge> cycle;
    for (int i = 0; i < 4; ++i) {
        cycle.push_back(DiyEdge::rfe());
        cycle.push_back(DiyEdge::po(EvKind::Read, EvKind::Write));
    }
    std::optional<Program> prog = cycleToProgram(cycle);
    EXPECT_TRUE(prog.has_value());
    return *prog;
}

const char *kMalformedSource = "C broken\n"
                               "{ x=0; }\n"
                               "P0(int *x) {\n"
                               "    WRITE_ONCE(*x, (1 + 2;\n"
                               "}\n"
                               "exists (true)\n";

/**
 * The headline robustness sweep: well-formed small tests, one
 * malformed test and one budget-exceeding test in a single batch.
 * The sweep completes with 1 TestFailure, 1 Truncated result, and
 * the paper's verdicts for everything else.
 */
TEST(Batch, SweepIsolatesFailuresAndTruncation)
{
    LkmmModel model;
    std::vector<Program> small = {sb(), sbMbs(), mp(), lb()};

    // Tune the budget empirically: enough candidates for every
    // small test, not enough for the diy cycle.
    std::size_t maxSmall = 0;
    for (const Program &p : small)
        maxSmall = std::max(maxSmall, runTest(p, model).candidates);
    Program big = bigDiyProgram();
    ASSERT_GT(runTest(big, model).candidates, maxSmall);

    BatchOptions opts;
    opts.engine.budget.maxCandidates = maxSmall;
    BatchRunner runner(model, opts);
    for (const Program &p : small)
        runner.add(p.name, p);
    runner.addLitmusSource("broken", kMalformedSource);
    runner.add(big.name, big);
    ASSERT_EQ(runner.size(), 6u);

    BatchReport report = runner.run();

    // Exactly one failure: the malformed source, at the parse stage.
    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_EQ(report.failures[0].test, "broken");
    EXPECT_EQ(report.failures[0].phase, "parse");
    EXPECT_EQ(report.failures[0].status.code(), StatusCode::ParseError);
    EXPECT_FALSE(report.failures[0].toString().empty());
    EXPECT_EQ(report.find("broken"), nullptr);

    // Exactly one truncated result: the big diy test, attributed to
    // the candidate cap.  Truncation never fabricates a Forbid for
    // an exists test.
    EXPECT_EQ(report.results.size(), 5u);
    EXPECT_EQ(report.truncatedCount(), 1u);
    EXPECT_EQ(report.completeCount(), 4u);
    const BatchItemResult *bigRes = report.find(big.name);
    ASSERT_NE(bigRes, nullptr);
    EXPECT_TRUE(bigRes->result.truncated());
    EXPECT_EQ(bigRes->result.trippedBound, BoundKind::Candidates);
    EXPECT_NE(bigRes->result.verdict, Verdict::Forbid);

    // Every other verdict matches Table 5.
    const std::vector<CatalogEntry> entries = table5();
    for (const Program &p : small) {
        const BatchItemResult *res = report.find(p.name);
        ASSERT_NE(res, nullptr) << p.name;
        EXPECT_FALSE(res->result.truncated()) << p.name;
        auto expected = findEntry(entries, p.name);
        ASSERT_TRUE(expected.has_value()) << p.name;
        EXPECT_EQ(res->result.verdict, expected->lkmmExpected) << p.name;
    }

    EXPECT_FALSE(report.summary().empty());
}

TEST(Batch, RetryEscalationCompletesTruncatedRuns)
{
    LkmmModel model;
    Program p = sb();
    ASSERT_GT(runTest(p, model).candidates, 1u);

    BatchOptions opts;
    opts.engine.budget.maxCandidates = 1;
    opts.retry.budgetRetries = 10;
    opts.retry.budgetEscalation = 4.0;
    BatchRunner runner(model, opts);
    runner.add(p.name, p);

    BatchReport report = runner.run();
    ASSERT_TRUE(report.failures.empty());
    const BatchItemResult *res = report.find(p.name);
    ASSERT_NE(res, nullptr);
    // The first attempt truncated; escalation found a budget that
    // covers the whole space and the final verdict is exact.
    EXPECT_GE(res->attempts, 2);
    EXPECT_FALSE(res->result.truncated());
    EXPECT_EQ(res->result.verdict, Verdict::Allow);
}

TEST(Batch, NoRetryKeepsTruncatedResult)
{
    LkmmModel model;
    Program p = sb();
    BatchOptions opts;
    opts.engine.budget.maxCandidates = 1;
    BatchRunner runner(model, opts);
    runner.add(p.name, p);

    BatchReport report = runner.run();
    const BatchItemResult *res = report.find(p.name);
    ASSERT_NE(res, nullptr);
    EXPECT_EQ(res->attempts, 1);
    EXPECT_TRUE(res->result.truncated());
}

TEST(Batch, CrossCheckAgreesWithShippedCatModel)
{
    LkmmModel native;
    CatModel catModel = CatModel::fromFile(
        std::string(LKMM_CAT_MODEL_DIR) + "/lkmm.cat");

    BatchOptions opts;
    opts.crossCheck = &catModel;
    BatchRunner runner(native, opts);
    for (const Program &p : {sb(), sbMbs(), mp(), mpWmbRmb()})
        runner.add(p.name, p);

    BatchReport report = runner.run();
    EXPECT_TRUE(report.failures.empty());
    // The shipped lkmm.cat is equivalent to the native model on
    // these tests: no divergence records.
    EXPECT_TRUE(report.divergences.empty());
}

TEST(Batch, CrossCheckRecordsDivergence)
{
    // SC forbids SB, LKMM allows it: cross-checking the native
    // model against SC must record (not throw) exactly that
    // disagreement.
    LkmmModel native;
    ScModel sc;
    BatchOptions opts;
    opts.crossCheck = &sc;
    BatchRunner runner(native, opts);
    runner.add("SB", sb());
    runner.add("SB+mbs", sbMbs()); // Forbid under both: no record.

    BatchReport report = runner.run();
    EXPECT_TRUE(report.failures.empty());
    ASSERT_EQ(report.divergences.size(), 1u);
    EXPECT_EQ(report.divergences[0].test, "SB");
    EXPECT_EQ(report.divergences[0].primary, Verdict::Allow);
    EXPECT_EQ(report.divergences[0].reference, Verdict::Forbid);
    EXPECT_FALSE(report.divergences[0].toString().empty());
}

class BatchFaultTest : public ::testing::Test
{
  protected:
    void SetUp() override { faultinject::reset(); }
    void TearDown() override { faultinject::reset(); }
};

TEST_F(BatchFaultTest, InjectedEnumeratorFaultIsIsolated)
{
    LkmmModel model;
    BatchRunner runner(model);
    runner.add("SB", sb());
    runner.add("MP", mp());

    faultinject::setPlan(faultinject::FaultPlan::parse("enumerate:1:error"));
    BatchReport report = runner.run();

    // The plan fired once, in the first test's run stage; it is
    // one-shot, so the rest of the sweep is clean.
    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_EQ(report.failures[0].test, "SB");
    EXPECT_EQ(report.failures[0].phase, "run");
    EXPECT_EQ(report.failures[0].status.code(), StatusCode::Internal);

    const BatchItemResult *mpRes = report.find("MP");
    ASSERT_NE(mpRes, nullptr);
    EXPECT_EQ(mpRes->result.verdict, Verdict::Allow);
}

TEST_F(BatchFaultTest, InjectedParserFaultIsIsolated)
{
    LkmmModel model;
    BatchRunner runner(model);
    runner.addLitmusSource("first", "C first\n{ x=0; }\n"
                                    "P0(int *x) { WRITE_ONCE(*x, 1); }\n"
                                    "exists (x=1)\n");
    runner.add("SB", sb());

    faultinject::setPlan(
        faultinject::FaultPlan::parse("litmus-parse:1:error"));
    BatchReport report = runner.run();

    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_EQ(report.failures[0].test, "first");
    EXPECT_EQ(report.failures[0].phase, "parse");
    EXPECT_EQ(report.failures[0].status.code(), StatusCode::Internal);
    ASSERT_NE(report.find("SB"), nullptr);
}

TEST_F(BatchFaultTest, TransientEnomemHealsWithBackoffRetry)
{
    // An injected bad_alloc at the batch allocation hook is the
    // canonical transient failure: the retry policy absorbs it and
    // the test still completes, with the healed retry counted in
    // transientRetries (NOT in the journaled attempts field).
    LkmmModel model;
    BatchOptions opts;
    opts.retry.baseDelay = std::chrono::microseconds(1);
    BatchRunner runner(model, opts);
    runner.add("SB", sb());

    faultinject::FaultPlan plan;
    plan.site = faultinject::site::kBatchAlloc;
    plan.kind = faultinject::FaultKind::Enomem;
    faultinject::setPlan(plan);
    BatchReport report = runner.run();

    EXPECT_TRUE(faultinject::planFired());
    EXPECT_TRUE(report.failures.empty());
    const BatchItemResult *res = report.find("SB");
    ASSERT_NE(res, nullptr);
    EXPECT_EQ(res->result.verdict, Verdict::Allow);
    EXPECT_EQ(res->transientRetries, 1);
    EXPECT_EQ(res->attempts, 1)
        << "transient retries must not inflate the journaled attempts";
}

TEST_F(BatchFaultTest, PersistentFaultIsNotRetried)
{
    LkmmModel model;
    BatchOptions opts;
    opts.retry.baseDelay = std::chrono::microseconds(1);
    BatchRunner runner(model, opts);
    runner.add("SB", sb());

    // An Error-kind fault produces a non-transient message; the
    // policy must record it without burning retry attempts.
    faultinject::FaultPlan plan;
    plan.site = faultinject::site::kBatchItem;
    plan.kind = faultinject::FaultKind::Error;
    faultinject::setPlan(plan);
    BatchReport report = runner.run();

    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_EQ(report.failures[0].test, "SB");
    EXPECT_EQ(report.failures[0].phase, "run");
    EXPECT_EQ(report.find("SB"), nullptr);
}

TEST_F(BatchFaultTest, QuarantineMarksRepeatOffenders)
{
    // Directly exercise the quarantine path runWithRetry uses: a
    // task accumulating distinct failure signatures is cut off.
    retry::Quarantine q(2);
    EXPECT_FALSE(q.record(
        "LB", retry::failureSignature(
                  "run", Status(StatusCode::Internal, "boom at 3"))));
    EXPECT_FALSE(q.record(
        "LB", retry::failureSignature(
                  "run", Status(StatusCode::Internal, "boom at 7"))))
        << "digit-normalized: same signature, count stays at 1";
    EXPECT_TRUE(q.record(
        "LB", retry::failureSignature(
                  "run", Status(StatusCode::IoError, "disk gone"))));
    EXPECT_TRUE(q.quarantined("LB"));
}

TEST_F(BatchFaultTest, ForkedSpawnFailureIsRecordedNotHung)
{
    // Regression test for the zero-fd infinite poll found by
    // lkmm-chaos (subprocess-pipe:1:error on a one-test forked
    // sweep): the spawn failure must become a TestFailure and the
    // sweep must return, not block.
    LkmmModel model;
    BatchOptions opts;
    opts.isolation = IsolationMode::Forked;
    opts.workers = 2;
    opts.taskDeadline = std::chrono::seconds(30);
    opts.retry.baseDelay = std::chrono::microseconds(1);
    BatchRunner runner(model, opts);
    runner.add("SB", sb());

    faultinject::FaultPlan plan;
    plan.site = faultinject::site::kSubprocessPipe;
    plan.kind = faultinject::FaultKind::Error;
    faultinject::setPlan(plan);
    BatchReport report = runner.run();

    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_EQ(report.failures[0].test, "SB");
    EXPECT_EQ(report.failures[0].phase, "spawn");
}

TEST_F(BatchFaultTest, ForkedSpawnTransientFailureHeals)
{
    // An injected EAGAIN-shaped fork failure is transient: the retry
    // policy respawns and the test completes normally.
    LkmmModel model;
    BatchOptions opts;
    opts.isolation = IsolationMode::Forked;
    opts.workers = 1;
    opts.taskDeadline = std::chrono::seconds(30);
    opts.retry.baseDelay = std::chrono::microseconds(1);
    BatchRunner runner(model, opts);
    runner.add("SB", sb());

    faultinject::FaultPlan plan;
    plan.site = faultinject::site::kSubprocessFork;
    plan.kind = faultinject::FaultKind::Error; // "fork failed: EAGAIN..."
    faultinject::setPlan(plan);
    BatchReport report = runner.run();

    EXPECT_TRUE(faultinject::planFired());
    EXPECT_TRUE(report.failures.empty()) << "spawn retry should heal";
    ASSERT_NE(report.find("SB"), nullptr);
    EXPECT_EQ(report.find("SB")->result.verdict, Verdict::Allow);
}

} // namespace
} // namespace lkmm
