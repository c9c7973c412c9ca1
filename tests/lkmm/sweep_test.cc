/**
 * @file
 * The crash-isolated, resumable sweep engine: forked-mode crash and
 * deadline isolation (a batch-item crash or hang plan, filtered to
 * one test), the forked memory cap at every worker count, a cancel
 * token or sweep deadline stopping a forked sweep whose child
 * hangs, journal record round trips,
 * resume-after-kill equivalence with an uninterrupted run, torn-tail
 * recovery, and duplicate-name hardening.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "base/faultinject.hh"
#include "base/journal.hh"
#include "lkmm/batch.hh"
#include "lkmm/catalog.hh"
#include "lkmm/sweep_journal.hh"
#include "model/lkmm_model.hh"
#include "model/sc_model.hh"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define LKMM_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define LKMM_SANITIZED 1
#endif
#endif

namespace lkmm
{
namespace
{

using namespace std::chrono_literals;

/** Ten small paper tests: the sweep corpus for isolation tests. */
std::vector<Program>
corpus()
{
    return {lb(),  lbCtrlMb(), lbDatas(),     mp(), mpWmbRmb(),
            wrc(), wrcPoRelRmb(), sb(), sbMbs(), peterZ()};
}

std::string
tempPath(const char *name)
{
    return testing::TempDir() + "sweep_test_" + name + ".jsonl";
}

/** Names+verdicts+completeness of results, in report order. */
std::vector<std::string>
verdictLines(const BatchReport &report)
{
    std::vector<std::string> lines;
    for (const BatchItemResult &r : report.results) {
        lines.push_back(r.name + "=" + verdictName(r.result.verdict) +
                        "/" + completenessName(r.result.completeness));
    }
    for (const TestFailure &f : report.failures)
        lines.push_back(f.test + "!" + f.phase);
    for (const Divergence &d : report.divergences) {
        lines.push_back(d.test + "~" + verdictName(d.primary) + ":" +
                        verdictName(d.reference));
    }
    return lines;
}

/** This process's address space (VmSize) in bytes. */
std::size_t
addressSpaceBytes()
{
    std::ifstream statm("/proc/self/statm");
    std::size_t pages = 0;
    statm >> pages;
    return pages * static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
}

/**
 * LKMM that maps `bytes` and frees them on each check until one
 * mapping succeeds in this process: a test that needs that much
 * address space, and fails every retry without it.  A forked
 * sweep's parent never checks, so every child maps.
 */
class AddressHungryModel : public LkmmModel
{
  public:
    explicit AddressHungryModel(std::size_t bytes) : bytes_(bytes) {}

    std::optional<Violation>
    check(const CandidateExecution &ex) const override
    {
        if (!mapped_) {
            void *volatile block = std::malloc(bytes_);
            if (block == nullptr)
                throw std::bad_alloc();
            std::free(block);
            mapped_ = true;
        }
        return LkmmModel::check(ex);
    }

  private:
    std::size_t bytes_;
    mutable bool mapped_ = false;
};

class SweepTest : public ::testing::Test
{
  protected:
    void SetUp() override { faultinject::reset(); }
    void TearDown() override { faultinject::reset(); }

    /**
     * Run a forked sweep with two children in flight in which "LB"
     * hangs with no task deadline: only the sweep's stop condition
     * can end it.
     */
    BatchReport
    runHungForkedSweep(BatchOptions opts)
    {
        faultinject::setPlan(
            faultinject::FaultPlan::parse("batch-item:1:hang"));
        faultinject::setFilter(kHung);
        opts.isolation = IsolationMode::Forked;
        opts.workers = 2;
        BatchRunner runner(model, std::move(opts));
        for (const Program &p : {sb(), mp(), lb(), sbMbs(), wrc()})
            runner.add(p.name, p);
        return runner.run();
    }

    /** The stopped sweep left the hung test unrecorded, never as a
     *  crash or timeout, and reaped every child it forked. */
    static void
    expectHungTestUnrecorded(const BatchReport &report)
    {
        EXPECT_EQ(report.find(kHung), nullptr);
        EXPECT_TRUE(report.failures.empty());
        errno = 0;
        EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
        EXPECT_EQ(errno, ECHILD);
    }

    static constexpr const char *kHung = "LB";

    LkmmModel model;
};

TEST_F(SweepTest, RecordRoundTripsEveryType)
{
    ItemOutcome outcome;
    BatchItemResult res;
    res.name = "LB+x";
    res.attempts = 3;
    res.result.verdict = Verdict::Unknown;
    res.result.candidates = 100;
    res.result.allowedCandidates = 40;
    res.result.witnesses = 0;
    res.result.completeness = Completeness::Truncated;
    res.result.trippedBound = BoundKind::Candidates;
    res.result.allowedFinalStates = {"x=1;", "x=2;"};
    res.result.violationText = "hb cycle: a \"b\"";
    outcome.result = res;
    outcome.failures.push_back(TestFailure{
        "LB+x", "cross-check",
        Status(StatusCode::EvalError, "line 3:\n\tbad token")});
    outcome.divergences.push_back(
        Divergence{"LB+x", Verdict::Allow, Verdict::Forbid});

    std::map<std::string, ItemOutcome> decoded;
    for (const json::Value &rec : toRecords(outcome)) {
        // Through the full journal line encoding, as on disk.
        std::string line = journal::encodeLine(rec);
        auto back = journal::decodeLine(line.substr(0, line.size() - 1));
        ASSERT_TRUE(back.has_value());
        decodeRecord(*back, decoded, nullptr);
    }
    ASSERT_EQ(decoded.size(), 1u);
    const ItemOutcome &d = decoded.at("LB+x");
    ASSERT_TRUE(d.result.has_value());
    EXPECT_EQ(d.result->attempts, 3);
    EXPECT_EQ(d.result->result.verdict, Verdict::Unknown);
    EXPECT_EQ(d.result->result.candidates, 100u);
    EXPECT_EQ(d.result->result.allowedCandidates, 40u);
    EXPECT_TRUE(d.result->result.truncated());
    EXPECT_EQ(d.result->result.trippedBound, BoundKind::Candidates);
    EXPECT_EQ(d.result->result.allowedFinalStates,
              res.result.allowedFinalStates);
    EXPECT_EQ(d.result->result.violationText, res.result.violationText);
    ASSERT_EQ(d.failures.size(), 1u);
    EXPECT_EQ(d.failures[0].phase, "cross-check");
    EXPECT_EQ(d.failures[0].status.code(), StatusCode::EvalError);
    EXPECT_EQ(d.failures[0].status.message(), "line 3:\n\tbad token");
    ASSERT_EQ(d.divergences.size(), 1u);
    EXPECT_EQ(d.divergences[0].primary, Verdict::Allow);
}

TEST_F(SweepTest, DuplicateTestNamesRejected)
{
    BatchRunner runner(model);
    runner.add("SB", sb());
    try {
        runner.add("SB", mp());
        FAIL() << "expected StatusError";
    } catch (const StatusError &e) {
        EXPECT_EQ(e.status().code(), StatusCode::InvalidArgument);
    }
    try {
        runner.addLitmusSource("SB", "C SB\n...");
        FAIL() << "expected StatusError";
    } catch (const StatusError &e) {
        EXPECT_EQ(e.status().code(), StatusCode::InvalidArgument);
    }
    EXPECT_EQ(runner.size(), 1u);
}

TEST_F(SweepTest, ForkedMatchesInProcessVerdicts)
{
    BatchRunner inproc(model);
    for (const Program &p : corpus())
        inproc.add(p.name, p);
    BatchReport expected = inproc.run();
    ASSERT_EQ(expected.results.size(), corpus().size());

    BatchOptions opts;
    opts.isolation = IsolationMode::Forked;
    opts.workers = 4;
    BatchRunner forked(model, opts);
    for (const Program &p : corpus())
        forked.add(p.name, p);
    BatchReport actual = forked.run();

    EXPECT_EQ(verdictLines(actual), verdictLines(expected));
}

/**
 * The headline isolation property: one test of a 10-test forked
 * sweep crashes; the other 9 complete with correct verdicts and the
 * crash becomes a structured record.
 */
TEST_F(SweepTest, ForkedSweepSurvivesInjectedCrash)
{
    const std::vector<Program> tests = corpus();
    const std::string victim = tests[4].name;
    faultinject::setPlan(faultinject::FaultPlan::parse("batch-item:1:crash"));
    faultinject::setFilter(victim);

    BatchOptions opts;
    opts.isolation = IsolationMode::Forked;
    opts.workers = 3;
    BatchRunner runner(model, opts);
    for (const Program &p : tests)
        runner.add(p.name, p);
    BatchReport report = runner.run();

    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_EQ(report.failures[0].test, victim);
    EXPECT_EQ(report.failures[0].phase, "crash");
    EXPECT_EQ(report.failures[0].status.code(), StatusCode::Internal);
    EXPECT_EQ(report.results.size(), tests.size() - 1);
    EXPECT_EQ(report.find(victim), nullptr);

    // The survivors report the paper's verdicts.
    const std::vector<CatalogEntry> entries = table5();
    for (const Program &p : tests) {
        if (p.name == victim)
            continue;
        const BatchItemResult *res = report.find(p.name);
        ASSERT_NE(res, nullptr) << p.name;
        auto expected = findEntry(entries, p.name);
        if (expected.has_value())
            EXPECT_EQ(res->result.verdict, expected->lkmmExpected)
                << p.name;
    }
}

TEST_F(SweepTest, ForkedDeadlineOverrunBecomesTimeoutRecord)
{
    std::vector<Program> tests = {sb(), mp(), lb(), sbMbs(), wrc()};
    const std::string victim = "LB";
    faultinject::setPlan(faultinject::FaultPlan::parse("batch-item:1:hang"));
    faultinject::setFilter(victim);

    BatchOptions opts;
    opts.isolation = IsolationMode::Forked;
    opts.workers = 2;
    opts.taskDeadline = 300ms;
    BatchRunner runner(model, opts);
    for (const Program &p : tests)
        runner.add(p.name, p);
    BatchReport report = runner.run();

    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_EQ(report.failures[0].test, victim);
    EXPECT_EQ(report.failures[0].phase, "timeout");
    EXPECT_EQ(report.failures[0].status.code(),
              StatusCode::BudgetExceeded);
    EXPECT_EQ(report.results.size(), tests.size() - 1);
}

/**
 * The checkpoint/resume property: a sweep whose driver dies after
 * k tests resumes from the journal and produces a report identical
 * in verdicts to an uninterrupted run — including a failure record
 * for a malformed test and a cross-model divergence.
 */
TEST_F(SweepTest, ResumedSweepMatchesUninterruptedRun)
{
    const char *kBroken = "C broken\n{ x=0; }\nP0(int *x) { oops\n";
    ScModel reference;

    auto configure = [&](BatchRunner &runner, std::size_t count) {
        const std::vector<Program> tests = corpus();
        for (std::size_t i = 0; i < count && i < tests.size(); ++i)
            runner.add(tests[i].name, tests[i]);
        if (count > tests.size())
            runner.addLitmusSource("broken", kBroken);
    };
    const std::size_t full = corpus().size() + 1;

    // The uninterrupted reference run (with cross-check to exercise
    // divergence records through the journal too).
    BatchOptions refOpts;
    refOpts.crossCheck = &reference;
    BatchRunner uninterrupted(model, refOpts);
    configure(uninterrupted, full);
    BatchReport expected = uninterrupted.run();
    ASSERT_FALSE(expected.divergences.empty());
    ASSERT_EQ(expected.failures.size(), 1u);

    // "Crash" after 4 tests: a separate runner that only ever sees
    // the first 4, writing the same journal the full sweep would.
    const std::string path = tempPath("resume");
    BatchOptions headOpts = refOpts;
    headOpts.journalPath = path;
    BatchRunner head(model, headOpts);
    configure(head, 4);
    BatchReport headReport = head.run();
    ASSERT_EQ(headReport.results.size(), 4u);

    // Simulate dying mid-append on top of that: torn half-record.
    {
        std::ofstream out(path, std::ios::binary | std::ios::app);
        out << "{\"crc\":\"dead";
    }

    // Resume with the full test list.
    BatchOptions resumeOpts = refOpts;
    resumeOpts.journalPath = path;
    resumeOpts.resume = true;
    BatchRunner resumed(model, resumeOpts);
    configure(resumed, full);
    BatchReport actual = resumed.run();

    EXPECT_EQ(actual.resumedCount, 4u);
    EXPECT_EQ(verdictLines(actual), verdictLines(expected));

    // And a second resume skips everything.
    BatchRunner again(model, resumeOpts);
    configure(again, full);
    BatchReport rerun = again.run();
    EXPECT_EQ(rerun.resumedCount, full);
    EXPECT_EQ(verdictLines(rerun), verdictLines(expected));
}

TEST_F(SweepTest, ResumeRejectsJournalFromOtherModel)
{
    const std::string path = tempPath("wrongmodel");
    ScModel sc;
    BatchOptions opts;
    opts.journalPath = path;
    BatchRunner writer(sc, opts);
    writer.add("SB", sb());
    writer.run();

    opts.resume = true;
    BatchRunner reader(model, opts);
    reader.add("SB", sb());
    try {
        reader.run();
        FAIL() << "expected StatusError";
    } catch (const StatusError &e) {
        EXPECT_EQ(e.status().code(), StatusCode::InvalidArgument);
    }
}

TEST_F(SweepTest, ForkedJournalIsResumable)
{
    const std::string path = tempPath("forked");
    BatchOptions opts;
    opts.isolation = IsolationMode::Forked;
    opts.workers = 4;
    opts.journalPath = path;
    BatchRunner forked(model, opts);
    for (const Program &p : corpus())
        forked.add(p.name, p);
    BatchReport first = forked.run();
    ASSERT_EQ(first.results.size(), corpus().size());

    // Resume in-process from the forked journal: nothing to re-run,
    // identical verdicts — the two modes share one record format.
    BatchOptions resumeOpts;
    resumeOpts.journalPath = path;
    resumeOpts.resume = true;
    BatchRunner resumed(model, resumeOpts);
    for (const Program &p : corpus())
        resumed.add(p.name, p);
    BatchReport second = resumed.run();
    EXPECT_EQ(second.resumedCount, corpus().size());
    EXPECT_EQ(verdictLines(second), verdictLines(first));
}

TEST_F(SweepTest, CancelledSweepReturnsPartialReport)
{
    CancelToken cancel;
    cancel.cancel();
    BatchOptions opts;
    opts.engine.budget.cancel = &cancel;
    BatchRunner runner(model, opts);
    runner.add("SB", sb());
    runner.add("MP", mp());
    BatchReport report = runner.run();
    EXPECT_TRUE(report.cancelled);
    EXPECT_TRUE(report.results.empty());
    EXPECT_TRUE(report.failures.empty());
    EXPECT_NE(report.summary().find("cancelled"), std::string::npos);

    // Forked mode honors the same token.
    opts.isolation = IsolationMode::Forked;
    BatchRunner forked(model, opts);
    forked.add("SB", sb());
    BatchReport forkedReport = forked.run();
    EXPECT_TRUE(forkedReport.cancelled);
    EXPECT_TRUE(forkedReport.results.empty());
}

TEST_F(SweepTest, ForkedMemoryCapIsTheSameAtEveryWorkerCount)
{
#ifdef LKMM_SANITIZED
    GTEST_SKIP() << "sanitizers reserve terabytes of address space";
#endif
    // Every child maps 100 MB under a cap 256 MB above this
    // process's own address space, with one child in flight or
    // eight: the headroom a test gets must not shrink with --jobs.
    const AddressHungryModel hungry(100u << 20);
    for (const int workers : {1, 8}) {
        BatchOptions opts;
        opts.isolation = IsolationMode::Forked;
        opts.workers = workers;
        opts.taskMemoryBytes = addressSpaceBytes() + (256u << 20);
        BatchRunner runner(hungry, opts);
        for (const Program &p : corpus())
            runner.add(p.name, p);
        const BatchReport report = runner.run();
        for (const TestFailure &f : report.failures) {
            ADD_FAILURE() << "workers " << workers << ": " << f.test
                          << " " << f.phase << ": "
                          << f.status.message();
        }
        EXPECT_EQ(report.results.size(), corpus().size());
    }
}

TEST_F(SweepTest, CancelStopsAForkedSweepWaitingOnAHungChild)
{
    // The token is set from another thread, which no signal wakes:
    // the loop waiting on the hung child has to poll it.
    CancelToken cancel;
    BatchOptions opts;
    opts.engine.budget.cancel = &cancel;
    const auto start = std::chrono::steady_clock::now();
    std::thread canceller([&cancel] {
        std::this_thread::sleep_for(200ms);
        cancel.cancel();
    });
    const BatchReport report = runHungForkedSweep(opts);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    canceller.join();

    EXPECT_LT(elapsed, 1s);
    EXPECT_TRUE(report.cancelled);
    expectHungTestUnrecorded(report);
}

TEST_F(SweepTest, SweepDeadlineStopsAForkedSweepWaitingOnAHungChild)
{
    BatchOptions opts;
    opts.sweepBudget.wallClock = 300ms;
    const auto start = std::chrono::steady_clock::now();
    const BatchReport report = runHungForkedSweep(opts);
    const auto elapsed = std::chrono::steady_clock::now() - start;

    EXPECT_LT(elapsed, 1s);
    EXPECT_EQ(report.sweepBound, BoundKind::WallClock);
    expectHungTestUnrecorded(report);
}

TEST_F(SweepTest, EscapingFailureStopsDispatchAndThrows)
{
    // A failure outside any one test's isolation (here journaling
    // the second result) surfaces from run(), and no later test
    // starts: the journal holds the first result and nothing after.
    const std::string path = tempPath("escape");
    faultinject::FaultPlan plan;
    plan.site = faultinject::site::kBatchRecord;
    plan.hit = 2;
    plan.kind = faultinject::FaultKind::Error;
    faultinject::setPlan(plan);

    BatchOptions opts;
    opts.journalPath = path;
    BatchRunner runner(model, opts);
    for (const Program &p : corpus())
        runner.add(p.name, p);
    EXPECT_THROW(runner.run(), StatusError);
    EXPECT_TRUE(faultinject::planFired());

    const SweepJournalContents contents =
        decodeSweepJournal(journal::recover(path).records);
    EXPECT_EQ(contents.outcomes.size(), 1u);
}

} // namespace
} // namespace lkmm
