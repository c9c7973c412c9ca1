/**
 * @file
 * The differential oracles: agreement stays silent, seeded model
 * ablations diverge, RCU-unsound comparisons are skipped, a side
 * that crashes or hangs becomes a finding instead of killing the
 * campaign (the crash-isolation contract from the subprocess layer),
 * a side the worker runs past the deadline is a timeout too, and
 * sides that repeat an evaluation share it.
 */

#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/faultinject.hh"
#include "base/status.hh"
#include "fuzz/oracle.hh"
#include "litmus/printer.hh"
#include "lkmm/catalog.hh"

namespace lkmm::fuzz
{
namespace
{

OracleOptions
inProcessOpts()
{
    OracleOptions opts;
    opts.isolate = false;
    return opts;
}

class OracleTest : public ::testing::Test
{
protected:
    void TearDown() override { faultinject::reset(); }
};

TEST_F(OracleTest, UsesRcuDetectsRcuPrimitives)
{
    EXPECT_TRUE(usesRcu(rcuMp()));
    EXPECT_TRUE(usesRcu(rcuDeferredFree()));
    EXPECT_FALSE(usesRcu(mp()));
    EXPECT_FALSE(usesRcu(sb()));
}

TEST_F(OracleTest, MakeOraclesParsesSpec)
{
    const auto oracles =
        makeOracles("native-vs-cat,mono-sc-lkmm,mono-sc-tso,"
                    "sc-vs-operational,native-vs-ablated:rcu-axiom");
    ASSERT_EQ(oracles.size(), 5u);
    EXPECT_EQ(oracles[0].name, "native-vs-cat");
    EXPECT_EQ(oracles[0].mode, Oracle::Mode::Equal);
    EXPECT_EQ(oracles[1].name, "mono-sc-lkmm");
    EXPECT_EQ(oracles[1].mode, Oracle::Mode::Subset);
    EXPECT_FALSE(oracles[1].rcuSound);
    EXPECT_TRUE(oracles[2].rcuSound);
    EXPECT_EQ(oracles[4].name, "native-vs-ablated:rcu-axiom");
    EXPECT_FALSE(knownOracleSpec().empty());
}

TEST_F(OracleTest, MakeOraclesRejectsUnknownNames)
{
    EXPECT_THROW(makeOracles("no-such-oracle"), StatusError);
    EXPECT_THROW(makeOracles(""), StatusError);
    EXPECT_THROW(makeOracles("native-vs-ablated:no-such-knob"),
                 StatusError);
}

TEST_F(OracleTest, AgreeingSidesProduceNoFinding)
{
    const auto oracles = makeOracles("native-vs-cat");
    for (const CatalogEntry &e : table5()) {
        SCOPED_TRACE(e.prog.name);
        EXPECT_FALSE(
            runOracle(oracles[0], e.prog, inProcessOpts()));
    }
}

TEST_F(OracleTest, AblatedRcuAxiomDivergesOnRcuMp)
{
    const auto oracles = makeOracles("native-vs-ablated:rcu-axiom");
    const auto finding =
        runOracle(oracles[0], rcuMp(), inProcessOpts());
    ASSERT_TRUE(finding);
    EXPECT_EQ(finding->kind, "diverge");
    EXPECT_EQ(finding->oracle, "native-vs-ablated:rcu-axiom");
    EXPECT_NE(finding->a, finding->b);
}

TEST_F(OracleTest, RcuUnsoundOracleSkipsRcuPrograms)
{
    // mono-sc-lkmm is invalid for RCU tests: LKMM's rcu axiom
    // forbids interleavings plain SC linearizes, so a skip — not a
    // false "diverge" — is the correct behaviour on the RCU-MP shape.
    const auto oracles = makeOracles("mono-sc-lkmm");
    EXPECT_FALSE(oracles[0].rcuSound);
    EXPECT_FALSE(runOracle(oracles[0], rcuMp(), inProcessOpts()));
}

TEST_F(OracleTest, SubsetOracleSkipsForallTests)
{
    const auto oracles = makeOracles("mono-sc-tso");
    Program prog = sb();
    prog.quantifier = Quantifier::Forall;
    EXPECT_FALSE(runOracle(oracles[0], prog, inProcessOpts()));
}

TEST_F(OracleTest, MonotonicityHoldsOnCatalog)
{
    const auto oracles = makeOracles("mono-sc-lkmm,mono-sc-tso");
    for (const CatalogEntry &e : table5()) {
        SCOPED_TRACE(e.prog.name);
        EXPECT_TRUE(
            runOracles(oracles, e.prog, inProcessOpts()).empty());
    }
}

TEST_F(OracleTest, CrashingSideBecomesFinding)
{
    const Program prog = mp();
    faultinject::setPlan(faultinject::FaultPlan::parse("enumerate:1:crash"));
    faultinject::setFilter(prog.name);

    OracleOptions opts; // isolate = true: the sandbox must contain it
    opts.deadline = std::chrono::seconds(20);
    const auto oracles = makeOracles("native-vs-cat");
    const auto finding = runOracle(oracles[0], prog, opts);
    ASSERT_TRUE(finding);
    EXPECT_EQ(finding->kind, "crash");
    EXPECT_NE(finding->detail.find("native-lkmm:SIGKILL"),
              std::string::npos)
        << finding->detail;
}

TEST_F(OracleTest, HangingSideBecomesTimeoutFinding)
{
    const Program prog = mp();
    faultinject::setPlan(faultinject::FaultPlan::parse("enumerate:1:hang"));
    faultinject::setFilter(prog.name);

    OracleOptions opts;
    opts.deadline = std::chrono::milliseconds(500);
    const auto oracles = makeOracles("native-vs-cat");
    const auto finding = runOracle(oracles[0], prog, opts);
    ASSERT_TRUE(finding);
    EXPECT_EQ(finding->kind, "timeout");
}

TEST_F(OracleTest, WorkerSideSlowerThanTheDeadlineIsATimeoutFinding)
{
    // The request's watchdog is the per-side deadline times its two
    // sides, so the slow side finishes inside it; the worker reports
    // the side's time, and a side past the per-side deadline is
    // re-run one-shot, where it is the one-shot path's timeout.
    std::vector<Oracle> oracles(1);
    oracles[0].name = "native-vs-slow";
    oracles[0].a = makeOracles("native-vs-cat")[0].a;
    oracles[0].b.label = "slow";
    oracles[0].b.model = "test:slow";
    oracles[0].b.eval = [](const Program &, const EngineConfig &,
                           std::uint64_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
        return Verdict::Allow;
    };
    OracleOptions opts;
    opts.deadline = std::chrono::milliseconds(200);
    SideWorker worker(oracles, opts);
    const Program prog = mp();
    const auto findings = worker.run(prog, printLitmus(prog), 1);
    ASSERT_EQ(findings.size(), 1u);
    ASSERT_TRUE(findings[0]);
    EXPECT_EQ(findings[0]->signature(),
              "native-vs-slow/timeout/slow:deadline");
    EXPECT_EQ(worker.requests(), 1u);
    EXPECT_EQ(worker.unconfirmedDeaths(), 0u);
}

TEST_F(OracleTest, SignatureIsStable)
{
    Finding f;
    f.oracle = "native-vs-cat";
    f.kind = "diverge";
    f.detail = "a=Allow b=Forbid";
    EXPECT_EQ(f.signature(),
              "native-vs-cat/diverge/a=Allow b=Forbid");
}

TEST(OracleSides, RepeatedSidesShareOneEvaluation)
{
    // The default set: native-vs-cat, rf-first-vs-brute, mono-sc-lkmm.
    const std::vector<Oracle> oracles =
        makeOracles("native-vs-cat,rf-first-vs-brute,mono-sc-lkmm");
    const OracleSide &native = oracles[0].a;
    const OracleSide &cat = oracles[0].b;
    const OracleSide &rfFirst = oracles[1].a;
    const OracleSide &brute = oracles[1].b;
    const OracleSide &monoNative = oracles[2].b;

    // Under the default engine (rf-first), rf-first-lkmm and
    // mono-sc-lkmm's native-lkmm are native-vs-cat's native-lkmm.
    const OracleSides sides(oracles, EngineConfig{});
    EXPECT_EQ(sides.size(), 4u);
    EXPECT_EQ(sides.evaluationOf(rfFirst), sides.evaluationOf(native));
    EXPECT_EQ(sides.evaluationOf(monoNative), sides.evaluationOf(native));
    EXPECT_NE(sides.evaluationOf(brute), sides.evaluationOf(native));
    EXPECT_EQ(&sides.side(sides.evaluationOf(monoNative)), &native);

    // RCU-free exists: every oracle applies, 4 evaluations in the
    // order runOracle asks for them.  Forall drops the Subset
    // oracle, and so does RCU (mono-sc-lkmm is RCU-unsound); neither
    // drops an evaluation native-vs-cat still needs.
    Program prog = sb();
    ASSERT_FALSE(usesRcu(prog));
    ASSERT_EQ(prog.quantifier, Quantifier::Exists);
    EXPECT_EQ(sides.needed(prog),
              (std::vector<std::size_t>{sides.evaluationOf(native),
                                        sides.evaluationOf(cat),
                                        sides.evaluationOf(brute),
                                        sides.evaluationOf(oracles[2].a)}));
    prog.quantifier = Quantifier::Forall;
    EXPECT_EQ(sides.needed(prog).size(), 3u);
    EXPECT_EQ(sides.needed(rcuMp()).size(), 3u);

    // Under brute, native-lkmm is brute-lkmm, not rf-first-lkmm.
    EngineConfig bruteEngine;
    bruteEngine.setMode("brute");
    const OracleSides underBrute(oracles, bruteEngine);
    EXPECT_EQ(underBrute.size(), 4u);
    EXPECT_EQ(underBrute.evaluationOf(brute), underBrute.evaluationOf(native));
    EXPECT_NE(underBrute.evaluationOf(rfFirst),
              underBrute.evaluationOf(native));

    // A cat model and an ablated native model are other models.
    const std::vector<Oracle> others =
        makeOracles("native-vs-cat,native-vs-ablated:rcu-axiom");
    for (const EngineConfig &engine : {EngineConfig{}, bruteEngine}) {
        SCOPED_TRACE(engine.modeName());
        const OracleSides set(others, engine);
        EXPECT_EQ(set.size(), 3u);
        EXPECT_EQ(set.evaluationOf(others[1].a), set.evaluationOf(others[0].a));
        EXPECT_NE(set.evaluationOf(others[0].b), set.evaluationOf(others[0].a));
        EXPECT_NE(set.evaluationOf(others[1].b), set.evaluationOf(others[0].a));
    }
}

} // namespace
} // namespace lkmm::fuzz
