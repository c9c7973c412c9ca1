/**
 * @file
 * Tests for the diy-style generator and the model-comparison sweep
 * it powers (Section 5): every generated critical cycle is non-SC
 * by construction; the LK model's verdicts are sound with respect
 * to every architecture model under the kernel mapping; the shipped
 * lkmm.cat stays equivalent to the native model on generated tests.
 */

#include <gtest/gtest.h>

#include "cat/eval.hh"
#include "diy/generator.hh"
#include "lkmm/catalog.hh"
#include "lkmm/runner.hh"
#include "model/alpha_model.hh"
#include "model/armv8_model.hh"
#include "model/lkmm_model.hh"
#include "model/power_model.hh"
#include "model/sc_model.hh"
#include "model/tso_model.hh"

namespace lkmm
{
namespace
{

using S = DiyEdge::Synchro;
constexpr EvKind R = EvKind::Read;
constexpr EvKind W = EvKind::Write;

TEST(DiyGenerator, MpShape)
{
    // Rfe, PodRR, Fre, PodWW rotated = the MP cycle.
    auto prog = cycleToProgram(
        {DiyEdge::po(W, W), DiyEdge::rfe(), DiyEdge::po(R, R),
         DiyEdge::fre()});
    ASSERT_TRUE(prog.has_value());
    EXPECT_EQ(prog->numThreads(), 2);
    EXPECT_EQ(prog->numLocs(), 2);

    // Same verdict as the hand-written MP.
    LkmmModel lk;
    EXPECT_EQ(runTest(*prog, lk).verdict, Verdict::Allow);
}

TEST(DiyGenerator, MpWithWmbRmbForbidden)
{
    auto prog = cycleToProgram(
        {DiyEdge::po(W, W, S::Wmb), DiyEdge::rfe(),
         DiyEdge::po(R, R, S::Rmb), DiyEdge::fre()});
    ASSERT_TRUE(prog.has_value());
    LkmmModel lk;
    EXPECT_EQ(runTest(*prog, lk).verdict, Verdict::Forbid);
}

TEST(DiyGenerator, SbShape)
{
    auto prog = cycleToProgram(
        {DiyEdge::po(W, R), DiyEdge::fre(), DiyEdge::po(W, R),
         DiyEdge::fre()});
    ASSERT_TRUE(prog.has_value());
    LkmmModel lk;
    TsoModel tso;
    EXPECT_EQ(runTest(*prog, lk).verdict, Verdict::Allow);
    EXPECT_EQ(runTest(*prog, tso).verdict, Verdict::Allow);

    auto fenced = cycleToProgram(
        {DiyEdge::po(W, R, S::Mb), DiyEdge::fre(),
         DiyEdge::po(W, R, S::Mb), DiyEdge::fre()});
    ASSERT_TRUE(fenced.has_value());
    EXPECT_EQ(runTest(*fenced, lk).verdict, Verdict::Forbid);
}

TEST(DiyGenerator, CoherenceConditionFor2Plus2W)
{
    // 2+2W: Coe, PodWW, Coe, PodWW.
    auto prog = cycleToProgram(
        {DiyEdge::coe(), DiyEdge::po(W, W), DiyEdge::coe(),
         DiyEdge::po(W, W)});
    ASSERT_TRUE(prog.has_value());
    // The condition observes the coherence order via final values.
    EXPECT_NE(prog->condition.toString(prog->locNames), "true");
    LkmmModel lk;
    // 2+2W with plain writes is allowed by the LK model.
    EXPECT_EQ(runTest(*prog, lk).verdict, Verdict::Allow);

    // With wmb only, the pattern is *still* allowed: wmb joins
    // cumul-fence but the Pb axiom fires only through a strong
    // fence (Figure 8).  Power's propagation axiom is stronger
    // here — the machines are "stronger than required by our
    // model" (Section 5.1).
    auto wmbs = cycleToProgram(
        {DiyEdge::coe(), DiyEdge::po(W, W, S::Wmb), DiyEdge::coe(),
         DiyEdge::po(W, W, S::Wmb)});
    ASSERT_TRUE(wmbs.has_value());
    EXPECT_EQ(runTest(*wmbs, lk).verdict, Verdict::Allow);
    PowerModel power;
    EXPECT_EQ(runTest(*wmbs, power).verdict, Verdict::Forbid);

    // Full fences forbid it in the LK model via Pb.
    auto fenced = cycleToProgram(
        {DiyEdge::coe(), DiyEdge::po(W, W, S::Mb), DiyEdge::coe(),
         DiyEdge::po(W, W, S::Mb)});
    ASSERT_TRUE(fenced.has_value());
    EXPECT_EQ(runTest(*fenced, lk).verdict, Verdict::Forbid);
}

TEST(DiyGenerator, RejectsMalformedCycles)
{
    // Kind mismatch: Rfe target (R) feeding Coe source (W).
    EXPECT_FALSE(cycleToProgram(
        {DiyEdge::rfe(), DiyEdge::coe(), DiyEdge::po(W, W),
         DiyEdge::po(W, W)}).has_value());
    // No communication edge.
    EXPECT_FALSE(cycleToProgram(
        {DiyEdge::po(R, R), DiyEdge::po(R, R)}).has_value());
    // Wmb on a read edge.
    EXPECT_FALSE(cycleToProgram(
        {DiyEdge::po(R, R, S::Wmb), DiyEdge::rfe(),
         DiyEdge::po(W, W), DiyEdge::fre()}).has_value());
    // Single communication edge cannot close over two threads.
    EXPECT_FALSE(cycleToProgram(
        {DiyEdge::rfe(), DiyEdge::po(R, W), DiyEdge::po(W, W)})
                     .has_value());
}

TEST(DiyGenerator, EnumerationYieldsManyValidTests)
{
    auto tests = enumerateCycles(defaultAlphabet(), 4, 100000);
    EXPECT_GT(tests.size(), 1000u);
    for (std::size_t i = 0; i < tests.size(); i += 97) {
        const Program &p = tests[i];
        EXPECT_GE(p.numThreads(), 2);
        EXPECT_GE(p.numLocs(), 2);
    }
}

// The sweep fixture: a few hundred generated tests.
class DiySweep : public ::testing::Test
{
  public:
    static const std::vector<Program> &
    tests()
    {
        static std::vector<Program> progs = [] {
            // Short alphabet to keep the sweep fast yet diverse.
            std::vector<DiyEdge> alphabet{
                DiyEdge::rfe(), DiyEdge::fre(), DiyEdge::coe(),
                DiyEdge::po(R, R), DiyEdge::po(R, W),
                DiyEdge::po(W, R), DiyEdge::po(W, W),
                DiyEdge::po(W, W, S::Wmb),
                DiyEdge::po(R, R, S::Rmb),
                DiyEdge::po(R, R, S::Mb), DiyEdge::po(W, R, S::Mb),
                DiyEdge::po(R, W, S::DepData),
                DiyEdge::po(R, R, S::DepAddr),
                DiyEdge::po(R, W, S::Release),
                DiyEdge::po(R, R, S::Acquire),
            };
            return enumerateCycles(alphabet, 4, 4000);
        }();
        return progs;
    }
};

TEST_F(DiySweep, EveryCriticalCycleIsNonSc)
{
    // The exists clause observes a communication cycle, which SC
    // cannot produce: ScModel must forbid every generated test.
    ScModel sc;
    std::size_t checked = 0;
    for (const Program &p : tests()) {
        if (checked++ % 7 != 0)
            continue; // sample for speed; the bench sweeps all
        EXPECT_EQ(quickVerdict(p, sc), Verdict::Forbid) << p.name;
    }
    EXPECT_GT(checked, 100u);
}

TEST_F(DiySweep, LkmmSoundWrtArchitectures)
{
    // LK-forbidden => forbidden on every architecture model: the
    // paper's soundness experiment, on generated tests.
    LkmmModel lk;
    PowerModel power;
    PowerModel armv7(PowerModel::Flavor::Armv7);
    Armv8Model armv8;
    TsoModel tso;
    AlphaModel alpha;
    const std::vector<const Model *> archs{&power, &armv7, &armv8,
                                           &tso, &alpha};

    std::size_t forbidden = 0;
    std::size_t i = 0;
    for (const Program &p : tests()) {
        if (i++ % 11 != 0)
            continue;
        if (quickVerdict(p, lk) != Verdict::Forbid)
            continue;
        ++forbidden;
        for (const Model *m : archs) {
            EXPECT_EQ(quickVerdict(p, *m), Verdict::Forbid)
                << p.name << " on " << m->name();
        }
    }
    EXPECT_GT(forbidden, 20u);
}

TEST_F(DiySweep, CatModelEquivalentOnGeneratedTests)
{
    // Every shipped cat file against its native model.
    LkmmModel lkmm;
    PowerModel power;
    ScModel sc;
    TsoModel tso;
    const std::pair<const char *, const Model *> pairs[] = {
        {"lkmm.cat", &lkmm},
        {"power.cat", &power},
        {"sc.cat", &sc},
        {"tso.cat", &tso},
    };
    for (const auto &[file, native] : pairs) {
        const CatModel catModel = CatModel::fromFile(
            std::string(LKMM_CAT_MODEL_DIR) + "/" + file);
        std::size_t i = 0;
        for (const Program &p : tests()) {
            if (i++ % 29 != 0)
                continue;
            EXPECT_EQ(quickVerdict(p, catModel), quickVerdict(p, *native))
                << file << " on " << p.name;
        }
    }
}

TEST_F(DiySweep, ScStrongerThanTsoStrongerThanPower)
{
    // Model-strength chain on generated tests: anything SC allows,
    // TSO allows; anything TSO allows, Power allows.
    ScModel sc;
    TsoModel tso;
    PowerModel power;
    std::size_t i = 0;
    for (const Program &p : tests()) {
        if (i++ % 13 != 0)
            continue;
        if (quickVerdict(p, sc) == Verdict::Allow) {
            EXPECT_EQ(quickVerdict(p, tso), Verdict::Allow) << p.name;
        }
        if (quickVerdict(p, tso) == Verdict::Allow) {
            EXPECT_EQ(quickVerdict(p, power), Verdict::Allow) << p.name;
        }
    }
}

} // namespace
} // namespace lkmm
