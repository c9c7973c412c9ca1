/**
 * @file
 * The parallel verification engine's hard invariant: an in-process
 * sweep on four threads produces a report with the same per-test
 * verdicts, counts and stats as the default one-thread sweep — for
 * every test in the Table 5 catalog — plus the sweep-budget and
 * cross-check behaviours under concurrency.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "cat/eval.hh"
#include "lkmm/batch.hh"
#include "lkmm/catalog.hh"
#include "model/registry.hh"

namespace lkmm
{
namespace
{

/** Queue the whole Table 5 catalog. */
void
queueCatalog(BatchRunner &runner)
{
    for (const CatalogEntry &entry : table5())
        runner.add(entry.prog.name, entry.prog);
}

/** name → (verdict, candidates, completeness) for comparison. */
std::map<std::string, std::string>
digest(const BatchReport &report)
{
    std::map<std::string, std::string> out;
    for (const BatchItemResult &r : report.results) {
        out[r.name] = verdictName(r.result.verdict) + std::string(":") +
                      std::to_string(r.result.candidates) + ":" +
                      completenessName(r.result.completeness);
    }
    return out;
}

TEST(ParallelSweep, VerdictIdenticalToSequential)
{
    const ModelRegistry &reg = ModelRegistry::instance();
    auto model = reg.make("lkmm");

    BatchRunner seqRunner(*model);
    queueCatalog(seqRunner);
    const BatchReport seq = seqRunner.run();

    BatchOptions popts;
    popts.isolation = IsolationMode::InProcessParallel;
    popts.workers = 4;
    popts.modelFactory = reg.factoryFor("lkmm");
    BatchRunner parRunner(*model, popts);
    queueCatalog(parRunner);
    const BatchReport par = parRunner.run();

    // The tentpole invariant: same tests, same verdicts, same
    // candidate counts, same completeness — independent of thread
    // scheduling.
    EXPECT_EQ(digest(par), digest(seq));
    EXPECT_EQ(par.failures.size(), seq.failures.size());
    EXPECT_EQ(par.results.size(), table5().size());

    // Report order is queue order, not completion order.
    for (std::size_t i = 0; i < par.results.size(); ++i)
        EXPECT_EQ(par.results[i].name, seq.results[i].name) << i;

    // Per-worker Enumerator stats merge into the same totals the
    // sequential sweep accumulates.
    EXPECT_EQ(par.stats.candidates, seq.stats.candidates);
    EXPECT_EQ(par.stats.pathCombos, seq.stats.pathCombos);
    EXPECT_EQ(par.stats.rfAssignments, seq.stats.rfAssignments);

    // And the verdicts are the paper's.
    for (const CatalogEntry &entry : table5()) {
        const BatchItemResult *res = par.find(entry.prog.name);
        ASSERT_NE(res, nullptr) << entry.prog.name;
        EXPECT_EQ(res->result.verdict, entry.lkmmExpected)
            << entry.prog.name;
    }
}

TEST(ParallelSweep, WithoutFactorySharesTheConstructorModel)
{
    // modelFactory unset: workers share the constructor's instance,
    // which is sound for the stateless in-tree models — verdicts
    // still match the catalog.
    auto model = ModelRegistry::instance().make("lkmm");
    BatchOptions opts;
    opts.isolation = IsolationMode::InProcessParallel;
    opts.workers = 4;
    BatchRunner runner(*model, opts);
    queueCatalog(runner);
    const BatchReport report = runner.run();
    ASSERT_EQ(report.results.size(), table5().size());
    for (const CatalogEntry &entry : table5()) {
        const BatchItemResult *res = report.find(entry.prog.name);
        ASSERT_NE(res, nullptr) << entry.prog.name;
        EXPECT_EQ(res->result.verdict, entry.lkmmExpected)
            << entry.prog.name;
    }
}

TEST(ParallelSweep, CrossCheckDivergencesMatchSequential)
{
    // Parallel cross-check against a deliberately different model:
    // lkmm vs sc diverge on every weak-behaviour test, and the
    // parallel run must record exactly the sequential divergence set.
    const ModelRegistry &reg = ModelRegistry::instance();
    auto model = reg.make("lkmm");
    auto ref = reg.make("sc");

    BatchOptions sopts;
    sopts.crossCheck = ref.get();
    BatchRunner seqRunner(*model, sopts);
    queueCatalog(seqRunner);
    const BatchReport seq = seqRunner.run();

    BatchOptions popts;
    popts.crossCheck = ref.get();
    popts.isolation = IsolationMode::InProcessParallel;
    popts.workers = 4;
    popts.modelFactory = reg.factoryFor("lkmm");
    popts.crossCheckFactory = reg.factoryFor("sc");
    BatchRunner parRunner(*model, popts);
    queueCatalog(parRunner);
    const BatchReport par = parRunner.run();

    ASSERT_FALSE(seq.divergences.empty());
    ASSERT_EQ(par.divergences.size(), seq.divergences.size());
    for (std::size_t i = 0; i < par.divergences.size(); ++i) {
        EXPECT_EQ(par.divergences[i].test, seq.divergences[i].test);
        EXPECT_EQ(par.divergences[i].primary,
                  seq.divergences[i].primary);
        EXPECT_EQ(par.divergences[i].reference,
                  seq.divergences[i].reference);
    }
}

TEST(ParallelSweep, SweepBudgetStopsTheWholeSweep)
{
    // A sweep-wide candidate cap far below the catalog's total: the
    // sweep stops early, reports which bound fired, and leaves the
    // unfinished tests unrecorded (they would rerun on resume).
    const ModelRegistry &reg = ModelRegistry::instance();
    auto model = reg.make("lkmm");

    BatchOptions opts;
    opts.isolation = IsolationMode::InProcessParallel;
    opts.workers = 4;
    opts.modelFactory = reg.factoryFor("lkmm");
    opts.sweepBudget.maxCandidates = 1;
    BatchRunner runner(*model, opts);
    queueCatalog(runner);
    const BatchReport report = runner.run();

    EXPECT_EQ(report.sweepBound, BoundKind::Candidates);
    EXPECT_LT(report.results.size(), table5().size());
    // Whatever did get recorded is a real, untruncated verdict: a
    // sweep-budget trip cancels tests, it never degrades them.
    for (const BatchItemResult &r : report.results)
        EXPECT_EQ(r.result.completeness, Completeness::Complete)
            << r.name;
    EXPECT_NE(report.summary().find("sweep budget"),
              std::string::npos);
}

TEST(ParallelSweep, SweepBudgetAppliesToSequentialModesToo)
{
    // The same sweep budget wires through the default one-thread
    // sweep: the API is one option, not a many-thread-only feature.
    auto model = ModelRegistry::instance().make("lkmm");
    BatchOptions opts;
    opts.sweepBudget.maxCandidates = 1;
    BatchRunner runner(*model, opts);
    queueCatalog(runner);
    const BatchReport report = runner.run();
    EXPECT_EQ(report.sweepBound, BoundKind::Candidates);
    EXPECT_LT(report.results.size(), table5().size());
}

TEST(ParallelSweep, ManyWorkersOnFewTestsIsSafe)
{
    // More workers than tests: the pool must not deadlock or hand
    // two running tests the same thread's model.
    const ModelRegistry &reg = ModelRegistry::instance();
    auto model = reg.make("lkmm");
    BatchOptions opts;
    opts.isolation = IsolationMode::InProcessParallel;
    opts.workers = 16;
    opts.modelFactory = reg.factoryFor("lkmm");
    BatchRunner runner(*model, opts);
    runner.add("sb", sb());
    runner.add("mp", mp());
    const BatchReport report = runner.run();
    EXPECT_EQ(report.results.size(), 2u);
    EXPECT_TRUE(report.failures.empty());
}

} // namespace
} // namespace lkmm
