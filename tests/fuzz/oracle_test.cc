/**
 * @file
 * The differential oracles: agreement stays silent, seeded model
 * ablations diverge, RCU-unsound comparisons are skipped, and a side
 * that crashes or hangs becomes a finding instead of killing the
 * campaign (the crash-isolation contract from the subprocess layer).
 */

#include <chrono>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "base/faultinject.hh"
#include "base/status.hh"
#include "fuzz/oracle.hh"
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

TEST_F(OracleTest, SignatureIsStable)
{
    Finding f;
    f.oracle = "native-vs-cat";
    f.kind = "diverge";
    f.detail = "a=Allow b=Forbid";
    EXPECT_EQ(f.signature(),
              "native-vs-cat/diverge/a=Allow b=Forbid");
}

} // namespace
} // namespace lkmm::fuzz
