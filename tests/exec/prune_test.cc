/**
 * @file
 * Accounting tests for the enumeration counters.
 *
 * The Stats identities documented on Enumerator::Stats are checked
 * for every paper-catalog program, in both engines:
 *
 *   rfSpace      = rfPruned + rfAssignments
 *   rfAssignments = valuationRejects + rfConsistent
 *
 * and across engines — prefix pruning only skips work, it never
 * changes what reaches the valuation:
 *
 *   valuationRejects(brute) = valuationRejects(rf-first) + rfPruned
 *   rfSpace, rfConsistent, pathCombos identical
 *
 * With no saturation support rf-first delivers brute's stream, so
 * the candidate counts agree too.  The brute engine never prunes:
 * every pruning counter must be exactly zero there.
 */

#include <gtest/gtest.h>

#include "exec/enumerate.hh"
#include "exec/rf_engine.hh"
#include "litmus/parser.hh"
#include "lkmm/catalog.hh"
#include "lkmm/runner.hh"
#include "model/lkmm_model.hh"

namespace lkmm
{
namespace
{

const auto kNoop = [](const CandidateExecution &) { return true; };

Enumerator::Stats
brute(const Program &prog)
{
    Enumerator en(prog);
    en.forEach(kNoop);
    return en.stats();
}

Enumerator::Stats
rfFirst(const Program &prog, rel::SaturationSupport support)
{
    RfFirstEngine en(prog, RunBudget::unlimited(), {}, support);
    en.forEach(kNoop);
    return en.stats();
}

TEST(PruneAccounting, IdentitiesHoldPerCatalogTest)
{
    const rel::SaturationSupport lkmm = LkmmModel().saturationSupport();
    for (const CatalogEntry &entry : table5()) {
        SCOPED_TRACE(entry.prog.name);
        for (const Enumerator::Stats &s :
             {brute(entry.prog), rfFirst(entry.prog, {}),
              rfFirst(entry.prog, lkmm)}) {
            EXPECT_EQ(s.rfSpace, s.rfPruned + s.rfAssignments);
            EXPECT_EQ(s.rfAssignments,
                      s.valuationRejects + s.rfConsistent);
        }
    }
}

TEST(PruneAccounting, CountersZeroWhenPruningDisabled)
{
    for (const CatalogEntry &entry : table5()) {
        SCOPED_TRACE(entry.prog.name);
        const Enumerator::Stats s = brute(entry.prog);
        EXPECT_EQ(s.rfPruned, 0u);
        EXPECT_EQ(s.coPruned, 0u);
        EXPECT_EQ(s.partialValuationRejects, 0u);
        EXPECT_EQ(s.rfSatRejects, 0u);
        EXPECT_EQ(s.coSatForced, 0u);
        EXPECT_EQ(s.coFallbacks, 0u);
        // Without cuts the visited space is exactly the assignments.
        EXPECT_EQ(s.rfSpace, s.rfAssignments);
    }
}

TEST(PruneAccounting, PruningOnlySkipsRejectedWork)
{
    const rel::SaturationSupport lkmm = LkmmModel().saturationSupport();
    for (const CatalogEntry &entry : table5()) {
        SCOPED_TRACE(entry.prog.name);
        const Enumerator::Stats off = brute(entry.prog);
        for (rel::SaturationSupport support :
             {rel::SaturationSupport{}, lkmm}) {
            SCOPED_TRACE(support.any() ? "lkmm support" : "no support");
            const Enumerator::Stats on = rfFirst(entry.prog, support);
            EXPECT_EQ(on.pathCombos, off.pathCombos);
            EXPECT_EQ(on.rfSpace, off.rfSpace);
            EXPECT_EQ(on.rfConsistent, off.rfConsistent);
            // Every pruned assignment is one the brute-force engine
            // valuates and rejects.
            EXPECT_EQ(off.valuationRejects,
                      on.valuationRejects + on.rfPruned);
        }
        // Without support rf-first delivers brute's candidates.
        EXPECT_EQ(rfFirst(entry.prog, {}).candidates, off.candidates);
    }
}

TEST(PruneAccounting, CountersFlowThroughRunResult)
{
    LkmmModel model;
    EnumerateOptions bruteOpts;
    bruteOpts.rfFirst = false;
    for (const CatalogEntry &entry : table5()) {
        SCOPED_TRACE(entry.prog.name);
        const RunResult on = runTest(entry.prog, model);
        const RunResult off = runTest(entry.prog, model,
                                      RunBudget::unlimited(), bruteOpts);
        EXPECT_EQ(on.verdict, off.verdict);
        EXPECT_EQ(on.stats.rfPruned + on.stats.rfAssignments,
                  on.stats.rfSpace);
        EXPECT_EQ(off.stats.rfPruned, 0u);
        EXPECT_EQ(off.stats.partialValuationRejects, 0u);
        // Each RunResult carries its engine's own counters.
        const Enumerator::Stats direct =
            rfFirst(entry.prog, model.saturationSupport());
        EXPECT_EQ(on.stats.candidates, direct.candidates);
        EXPECT_EQ(on.stats.rfSatRejects, direct.rfSatRejects);
        EXPECT_EQ(on.stats.coSatForced, direct.coSatForced);
        EXPECT_EQ(on.stats.coFallbacks, direct.coFallbacks);
        EXPECT_EQ(on.candidates, on.stats.candidates);
        EXPECT_EQ(off.stats.candidates, brute(entry.prog).candidates);
        EXPECT_EQ(off.candidates, off.stats.candidates);
    }
}

TEST(PruneAccounting, PruningActuallyFiresSomewhere)
{
    // The counters are only meaningful if the catalog exercises
    // them: at least one program must hit the partial-valuation cut.
    std::size_t total_pruned = 0;
    for (const CatalogEntry &entry : table5())
        total_pruned += rfFirst(entry.prog, {}).rfPruned;
    EXPECT_GT(total_pruned, 0u);
}

/**
 * The skip rule: with at most one non-init write per location co is
 * unique, so rf-first neither saturates nor falls back — it hands
 * the one candidate per rf to the model, which must decide it
 * exactly as the brute reference does.  MP has one write per
 * location; CoRR reads its one write twice, so coherence (which
 * saturation would have refuted outright) is left to the model.
 */
TEST(PruneAccounting, UniqueCoSkipsSaturation)
{
    LkmmModel model;
    EnumerateOptions bruteOpts;
    bruteOpts.rfFirst = false;
    const Program corr = parseLitmus(R"(C CoRR
{ x=0; }
P0(int *x) {
    WRITE_ONCE(*x, 1);
}
P1(int *x) {
    int r1 = READ_ONCE(*x);
    int r2 = READ_ONCE(*x);
}
exists (1:r1=1 /\ 1:r2=0)
)");
    for (const Program &prog : {mp(), corr}) {
        SCOPED_TRACE(prog.name);
        const RunResult res = runTest(prog, model);
        EXPECT_EQ(res.stats.coSatForced, 0u);
        EXPECT_EQ(res.stats.coFallbacks, 0u);
        EXPECT_EQ(res.stats.rfSatRejects, 0u);
        const RunResult ref =
            runTest(prog, model, RunBudget::unlimited(), bruteOpts);
        EXPECT_EQ(res.verdict, ref.verdict);
        EXPECT_EQ(res.candidates, ref.candidates);
    }
    EXPECT_EQ(runTest(corr, model).verdict, Verdict::Forbid);
}

} // namespace
} // namespace lkmm
