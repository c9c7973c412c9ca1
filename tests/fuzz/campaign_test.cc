/**
 * @file
 * The campaign driver: candidate streams are a pure function of
 * (--seed, iteration), campaigns with a seeded model bug land the
 * same buckets on every run, journals resume exactly, and a
 * minimized repro re-triggers its finding when replayed standalone —
 * the full reproducibility contract of tools/lkmm-fuzz.  Sandboxed
 * campaigns run their sides in one persistent worker fed with
 * printed litmus text: the text carries everything a side sees, the
 * worker's crashes and hangs give the one-shot path's findings, a
 * death only the worker suffers is counted instead, and no child
 * outlives the campaign.
 */

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/faultinject.hh"
#include "base/status.hh"
#include "fuzz/campaign.hh"
#include "fuzz/mutator.hh"
#include "fuzz/report.hh"
#include "litmus/parser.hh"
#include "litmus/printer.hh"

namespace lkmm::fuzz
{
namespace
{

namespace fs = std::filesystem;

std::string
tempPath(const std::string &stem)
{
    return (fs::temp_directory_path() /
            ("lkmm_campaign_test_" + stem + "_" +
             std::to_string(::getpid())))
        .string();
}

/** In-process, unminimized, rcu-axiom-ablated: fast and guaranteed
 *  to find divergences within a handful of iterations. */
FuzzOptions
ablatedOpts(std::uint64_t maxIters)
{
    FuzzOptions opts;
    opts.seed = 1;
    opts.maxIters = maxIters;
    opts.oracles = "native-vs-ablated:rcu-axiom";
    opts.oracle.isolate = false;
    opts.minimize = false;
    return opts;
}

std::set<std::string>
signaturesOf(const FuzzReport &report)
{
    std::set<std::string> out;
    for (const auto &[sig, bucket] : report.triage.buckets())
        out.insert(sig);
    return out;
}

TEST(MixSeed, DeterministicAndWellSpread)
{
    EXPECT_EQ(mixSeed(1, 0), mixSeed(1, 0));
    std::set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 100; ++i)
        seen.insert(mixSeed(1, i));
    EXPECT_EQ(seen.size(), 100u);
    EXPECT_NE(mixSeed(1, 0), mixSeed(2, 0));
}

TEST(CandidateFor, IsAPureFunctionOfSeedAndIter)
{
    const auto pool = builtinSeedPrograms();
    for (std::uint64_t i = 0; i < 30; ++i) {
        const auto a = candidateFor(1, i, pool);
        const auto b = candidateFor(1, i, pool);
        ASSERT_EQ(a.has_value(), b.has_value());
        if (!a)
            continue;
        EXPECT_EQ(printLitmus(*a), printLitmus(*b));
        EXPECT_EQ(a->name, "fuzz-" + std::to_string(i));
    }
}

TEST(Campaign, SameSeedSameBuckets)
{
    const FuzzReport first = runFuzz(ablatedOpts(15));
    const FuzzReport second = runFuzz(ablatedOpts(15));
    EXPECT_GE(first.triage.buckets().size(), 1u)
        << "the seeded rcu-axiom bug must surface within 15 iters";
    EXPECT_EQ(signaturesOf(first), signaturesOf(second));
    EXPECT_EQ(first.triage.totalFindings(),
              second.triage.totalFindings());
}

TEST(Campaign, ParallelCampaignMatchesSequential)
{
    // The parallel evaluation path (FuzzOptions::jobs) must be an
    // implementation detail: same seed, same iteration count, same
    // buckets, same finding totals as the sequential campaign, and
    // findings recorded at the same iterations.
    FuzzOptions seq = ablatedOpts(20);
    seq.jobs = 1;
    const FuzzReport sequential = runFuzz(seq);
    ASSERT_GE(sequential.triage.buckets().size(), 1u);

    FuzzOptions par = ablatedOpts(20);
    par.jobs = 2;
    const FuzzReport parallel = runFuzz(par);

    EXPECT_EQ(parallel.iters, sequential.iters);
    EXPECT_EQ(signaturesOf(parallel), signaturesOf(sequential));
    EXPECT_EQ(parallel.triage.totalFindings(),
              sequential.triage.totalFindings());
    for (const auto &[sig, bucket] : sequential.triage.buckets()) {
        const auto it = parallel.triage.buckets().find(sig);
        ASSERT_NE(it, parallel.triage.buckets().end()) << sig;
        // Representative = first finding in iteration order; the
        // in-order drain makes this identical under concurrency.
        EXPECT_EQ(it->second.representative.iter,
                  bucket.representative.iter)
            << sig;
        EXPECT_EQ(it->second.count, bucket.count) << sig;
    }
}

TEST(Campaign, ParallelJournalResumesLikeSequential)
{
    const std::string journal = tempPath("parjobs") + ".jsonl";
    fs::remove(journal);

    FuzzOptions opts = ablatedOpts(8);
    opts.jobs = 2;
    opts.journalPath = journal;
    const FuzzReport first = runFuzz(opts);
    ASSERT_EQ(first.iters, 8u);

    const RecoveredCampaign rec = recoverCampaign(journal);
    EXPECT_TRUE(rec.hasMeta);
    EXPECT_EQ(rec.nextIter, 8u);
    EXPECT_EQ(rec.findings.size(), first.triage.totalFindings());
    EXPECT_FALSE(rec.droppedTail);

    fs::remove(journal);
}

TEST(Campaign, CleanModelFindsNothing)
{
    FuzzOptions opts;
    opts.seed = 1;
    opts.maxIters = 15;
    opts.oracles = "native-vs-cat";
    opts.oracle.isolate = false;
    const FuzzReport report = runFuzz(opts);
    EXPECT_EQ(report.triage.totalFindings(), 0u);
    EXPECT_EQ(report.iters, 15u);
}

TEST(Campaign, BadOracleSpecIsAnInfraError)
{
    FuzzOptions opts;
    opts.oracles = "no-such-oracle";
    EXPECT_THROW(runFuzz(opts), StatusError);
}

TEST(Campaign, JournalRoundTripsAndResumes)
{
    const std::string journal = tempPath("resume") + ".jsonl";
    fs::remove(journal);

    FuzzOptions opts = ablatedOpts(6);
    opts.journalPath = journal;
    const FuzzReport first = runFuzz(opts);
    ASSERT_EQ(first.iters, 6u);

    const RecoveredCampaign rec = recoverCampaign(journal);
    EXPECT_TRUE(rec.hasMeta);
    EXPECT_EQ(rec.seed, 1u);
    EXPECT_EQ(rec.oracles, "native-vs-ablated:rcu-axiom");
    EXPECT_EQ(rec.nextIter, 6u);
    EXPECT_EQ(rec.findings.size(), first.triage.totalFindings());
    EXPECT_FALSE(rec.droppedTail);

    // Resume with a larger budget: the journal's seed/oracles are
    // authoritative, recovered iterations are not re-run, and the
    // final buckets match a fresh full-length campaign.
    FuzzOptions more = ablatedOpts(12);
    more.journalPath = journal;
    more.resume = true;
    more.maxIters = 12;
    const FuzzReport resumed = runFuzz(more);
    EXPECT_EQ(resumed.startIter, 6u);
    EXPECT_EQ(resumed.iters, 12u);

    const FuzzReport fresh = runFuzz(ablatedOpts(12));
    EXPECT_EQ(signaturesOf(resumed), signaturesOf(fresh));
    EXPECT_EQ(resumed.triage.totalFindings(),
              fresh.triage.totalFindings());

    fs::remove(journal);
}

TEST(Campaign, MinimizedReproRetriggersStandalone)
{
    FuzzOptions opts = ablatedOpts(15);
    opts.minimize = true;
    opts.maxShrinkTests = 200;
    const FuzzReport report = runFuzz(opts);
    ASSERT_GE(report.triage.buckets().size(), 1u);

    // Replay each bucket's minimized repro from its text alone, the
    // way `lkmm-fuzz --replay repro.litmus` would.
    const auto oracles =
        makeOracles("native-vs-ablated:rcu-axiom");
    OracleOptions oopts;
    oopts.isolate = false;
    for (const auto &[sig, bucket] : report.triage.buckets()) {
        SCOPED_TRACE(sig);
        const FuzzFinding &rep = bucket.representative;
        EXPECT_FALSE(rep.minimized.empty());
        const Program prog = parseLitmus(rep.minimized);
        const auto finding = runOracle(oracles[0], prog, oopts);
        ASSERT_TRUE(finding)
            << "minimized repro no longer fails:\n"
            << rep.minimized;
        EXPECT_EQ(finding->signature(), sig);
    }
}

/**
 * The side worker evaluates the candidate's printed text, not the
 * Program the campaign drew, so printing must lose nothing a side
 * can see: every side of every sound oracle returns the same
 * in-process outcome on both, and printing is a fixpoint.
 */
class SideTransport : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SideTransport, PrintedTextGivesEverySideTheSameOutcome)
{
    const std::uint64_t seed = GetParam();
    const std::vector<Program> pool = builtinSeedPrograms();
    const std::vector<Oracle> oracles =
        makeOracles("native-vs-cat,rf-first-vs-brute,mono-sc-lkmm,"
                    "mono-sc-tso,sc-vs-operational");
    OracleOptions opts;
    opts.isolate = false;
    std::size_t compared = 0;
    for (std::uint64_t iter = 0; iter < 500; ++iter) {
        const std::optional<Program> cand = candidateFor(seed, iter, pool);
        if (!cand)
            continue;
        SCOPED_TRACE("iter " + std::to_string(iter));
        const std::string text = printLitmus(*cand);
        const Program reparsed = parseLitmus(text);
        ASSERT_EQ(printLitmus(reparsed), text);
        opts.seed = mixSeed(seed, iter);
        for (const Oracle &o : oracles) {
            for (const OracleSide *side : {&o.a, &o.b}) {
                const SideOutcome direct = runSide(*side, *cand, opts);
                const SideOutcome printed =
                    runSide(*side, reparsed, opts);
                EXPECT_EQ(printed.kind, direct.kind) << side->label;
                EXPECT_EQ(printed.verdict, direct.verdict) << side->label;
                EXPECT_EQ(printed.detail, direct.detail) << side->label;
                ++compared;
            }
        }
    }
    EXPECT_GT(compared, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SideTransport,
                         ::testing::Values(1, 2, 7919));

/**
 * Sandboxed campaigns (isolate) run each oracle set's sides in one
 * persistent worker, one set per pool thread.  The fault plans are
 * armed in this process: the workers and every one-shot child
 * inherit them over fork, and the campaign itself never enumerates,
 * so its own hit counters stay at zero.
 */
class SandboxedCampaign : public ::testing::Test
{
  protected:
    void TearDown() override { faultinject::reset(); }

    /** The fuzz-<k> candidate of seed 1 the plans target. */
    static constexpr std::uint64_t kTarget = 2;

    static Program
    target()
    {
        const auto cand = candidateFor(1, kTarget, builtinSeedPrograms());
        EXPECT_TRUE(cand.has_value());
        return cand.value_or(Program{});
    }

    static FuzzOptions
    sandboxedOpts(std::uint64_t maxIters)
    {
        FuzzOptions opts;
        opts.seed = 1;
        opts.maxIters = maxIters;
        opts.minimize = false;
        opts.oracle.deadline = std::chrono::seconds(20);
        return opts;
    }

    /** waitpid fails with ECHILD only when no child, live or
     *  unreaped, is left. */
    static void
    expectNoChildren()
    {
        errno = 0;
        EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
        EXPECT_EQ(errno, ECHILD);
    }
};

TEST_F(SandboxedCampaign, InjectedCrashGivesTheOneShotBuckets)
{
    const Program prog = target();
    faultinject::setPlan(
        faultinject::FaultPlan::parse("enumerate:1:crash"));
    faultinject::setFilter(prog.name);

    // The one-shot path: each side in a fresh child of its own.
    const FuzzOptions opts = sandboxedOpts(kTarget + 4);
    std::set<std::string> expected;
    for (const Finding &f :
         runOracles(makeOracles(opts.oracles), prog, opts.oracle))
        expected.insert(f.signature());
    ASSERT_FALSE(expected.empty());

    const FuzzReport report = runFuzz(opts);
    EXPECT_EQ(report.iters, kTarget + 4);
    EXPECT_EQ(signaturesOf(report), expected);
    EXPECT_EQ(report.triage.totalFindings(), expected.size());
    EXPECT_EQ(report.unconfirmedDeaths, 0u);
    expectNoChildren();
}

TEST_F(SandboxedCampaign, ParallelCampaignContainsTheCrashLikeSequential)
{
    // At jobs 2 each pool thread forks a side worker of its own; the
    // crash stays in the sandbox and lands the sequential buckets.
    faultinject::setPlan(
        faultinject::FaultPlan::parse("enumerate:1:crash"));
    faultinject::setFilter(target().name);

    FuzzOptions opts = sandboxedOpts(kTarget + 4);
    const FuzzReport sequential = runFuzz(opts);
    ASSERT_FALSE(sequential.triage.buckets().empty());

    opts.jobs = 2;
    const FuzzReport parallel = runFuzz(opts);
    EXPECT_EQ(parallel.iters, sequential.iters);
    EXPECT_EQ(signaturesOf(parallel), signaturesOf(sequential));
    EXPECT_EQ(parallel.triage.totalFindings(),
              sequential.triage.totalFindings());
    EXPECT_EQ(parallel.unconfirmedDeaths, 0u);
    expectNoChildren();
}

TEST_F(SandboxedCampaign, InjectedHangTimesOutAndTheCampaignGoesOn)
{
    faultinject::setPlan(
        faultinject::FaultPlan::parse("enumerate:1:hang"));
    faultinject::setFilter(target().name);

    FuzzOptions opts = sandboxedOpts(kTarget + 4);
    opts.oracles = "native-vs-cat";
    opts.oracle.deadline = std::chrono::milliseconds(500);
    const FuzzReport report = runFuzz(opts);
    EXPECT_EQ(report.iters, kTarget + 4);
    EXPECT_EQ(signaturesOf(report),
              std::set<std::string>{
                  "native-vs-cat/timeout/native-lkmm:deadline"});
    expectNoChildren();
}

TEST_F(SandboxedCampaign, WorkerOnlyDeathIsCountedNotReported)
{
    // Each side passes "enumerate" once.  The worker's counter
    // carries over from side a to side b, so it dies on side b; the
    // one-shot re-run of side b starts from the campaign's zero
    // count, passes the site once and finishes.
    faultinject::setPlan(
        faultinject::FaultPlan::parse("enumerate:2:crash"));
    faultinject::setFilter(target().name);

    FuzzOptions opts = sandboxedOpts(kTarget + 4);
    opts.oracles = "native-vs-cat";
    const FuzzReport report = runFuzz(opts);
    EXPECT_EQ(report.iters, kTarget + 4);
    EXPECT_EQ(report.triage.totalFindings(), 0u);
    EXPECT_EQ(report.unconfirmedDeaths, 1u);
    expectNoChildren();

    // Both summaries show the count.
    EXPECT_EQ(toJson(report).getInt("unconfirmedDeaths"), 1);
    std::FILE *out = std::tmpfile();
    ASSERT_NE(out, nullptr);
    printText(out, report);
    std::rewind(out);
    char line[256] = {};
    std::string text;
    while (std::fgets(line, sizeof line, out))
        text += line;
    std::fclose(out);
    EXPECT_NE(text.find("1 unconfirmed worker deaths"), std::string::npos)
        << text;
}

TEST_F(SandboxedCampaign, NoChildOutlivesTheCampaign)
{
    for (const int jobs : {1, 2}) {
        FuzzOptions opts = sandboxedOpts(30);
        opts.jobs = jobs;
        const FuzzReport report = runFuzz(opts);
        EXPECT_EQ(report.iters, 30u) << "jobs " << jobs;
        EXPECT_EQ(report.triage.totalFindings(), 0u) << "jobs " << jobs;
        EXPECT_EQ(report.unconfirmedDeaths, 0u) << "jobs " << jobs;
        expectNoChildren();
    }
}

TEST(TriageDb, DeduplicatesBySignature)
{
    FuzzFinding f;
    f.iter = 3;
    f.test = "fuzz-3";
    f.finding.oracle = "native-vs-cat";
    f.finding.kind = "diverge";
    f.finding.detail = "a=Allow b=Forbid";

    TriageDb db;
    EXPECT_TRUE(db.add(f));
    FuzzFinding dup = f;
    dup.iter = 9;
    dup.test = "fuzz-9";
    EXPECT_FALSE(db.add(dup));
    ASSERT_EQ(db.buckets().size(), 1u);
    const Bucket &bucket = db.buckets().begin()->second;
    EXPECT_EQ(bucket.count, 2u);
    EXPECT_EQ(bucket.representative.iter, 3u); // first one is kept
    EXPECT_EQ(db.totalFindings(), 2u);
}

TEST(RecoverCampaign, MissingFileIsAnEmptyCampaign)
{
    const RecoveredCampaign rec =
        recoverCampaign(tempPath("missing") + ".jsonl");
    EXPECT_FALSE(rec.hasMeta);
    EXPECT_EQ(rec.nextIter, 0u);
    EXPECT_TRUE(rec.findings.empty());
}

} // namespace
} // namespace lkmm::fuzz
