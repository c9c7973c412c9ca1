/**
 * @file
 * Edge-of-the-grammar litmus programs (tests/litmus/edge): a
 * single-thread program, a thread with an empty body, write-only
 * and read-only programs, and an exists clause naming a location no
 * thread writes.  Degenerate shapes like these are exactly what the
 * fuzzer's mutators produce, so the parser, the printer round-trip
 * and both enumeration engines must handle every one without
 * crashing — and with the verdicts a human would expect.
 */

#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "exec/enumerate.hh"
#include "exec/rf_engine.hh"
#include "litmus/parser.hh"
#include "litmus/printer.hh"
#include "lkmm/runner.hh"
#include "model/lkmm_model.hh"

namespace lkmm
{
namespace
{

std::string
edgePath(const std::string &name)
{
    return std::string(LKMM_EDGE_CORPUS_DIR) + "/" + name + ".litmus";
}

/** Parse, round-trip through the printer, and enumerate both ways. */
Program
exerciseWithoutCrashing(const std::string &name)
{
    const Program prog = parseLitmusFile(edgePath(name));

    // The printer must accept the program and its output must parse
    // back (the printer is documented as the parser's inverse).
    const Program reparsed = parseLitmus(printLitmus(prog));
    EXPECT_EQ(prog.name, reparsed.name);
    EXPECT_EQ(prog.threads.size(), reparsed.threads.size());

    const auto exercise = [](auto &en) {
        std::size_t seen = 0;
        en.forEach([&](const CandidateExecution &) {
            ++seen;
            return true;
        });
        EXPECT_EQ(en.completeness(), Completeness::Complete);
        EXPECT_EQ(seen, en.stats().candidates);
    };
    Enumerator brute(prog);
    exercise(brute);
    RfFirstEngine rfFirst(prog, RunBudget::unlimited(), {},
                          LkmmModel().saturationSupport());
    exercise(rfFirst);
    return prog;
}

TEST(EdgeCases, SingleThreadProgram)
{
    const Program prog = exerciseWithoutCrashing("single-thread");
    ASSERT_EQ(prog.threads.size(), 1u);
    // The read can see the thread's own write, so r0=1 is allowed.
    EXPECT_EQ(runTest(prog, LkmmModel()).verdict, Verdict::Allow);
}

TEST(EdgeCases, EmptyThreadBody)
{
    const Program prog = exerciseWithoutCrashing("empty-body");
    ASSERT_EQ(prog.threads.size(), 2u);
    EXPECT_TRUE(prog.threads[1].body.empty());
    EXPECT_EQ(runTest(prog, LkmmModel()).verdict, Verdict::Allow);
}

TEST(EdgeCases, WriteOnlyProgram)
{
    const Program prog = exerciseWithoutCrashing("write-only");
    // No reads: exactly the co permutations, 2 per location.
    Enumerator en(prog);
    en.forEach([](const CandidateExecution &) { return true; });
    EXPECT_EQ(en.stats().rfAssignments, 1u);
    EXPECT_EQ(en.stats().candidates, 4u);
    // x=1 needs P1's x-write first, y=2 needs P0's y-write first.
    EXPECT_EQ(runTest(prog, LkmmModel()).verdict, Verdict::Allow);
}

TEST(EdgeCases, ReadOnlyProgram)
{
    const Program prog = exerciseWithoutCrashing("read-only");
    // Every read can only see the init writes.  Raw candidate counts
    // are the brute reference's; rf-first's depend on the model.
    EnumerateOptions brute;
    brute.rfFirst = false;
    RunResult res =
        runTest(prog, LkmmModel(), RunBudget::unlimited(), brute);
    EXPECT_EQ(res.candidates, 1u);
    EXPECT_EQ(res.verdict, Verdict::Allow);
}

TEST(EdgeCases, ExistsClauseOnUnwrittenLocation)
{
    const Program prog = exerciseWithoutCrashing("unwritten-loc");
    // ghost is never written by a thread; ghost=9 is unsatisfiable
    // while the read still sees the init value.
    RunResult res = runTest(prog, LkmmModel());
    EXPECT_EQ(res.verdict, Verdict::Forbid);
    EXPECT_GE(res.candidates, 1u);
}

} // namespace
} // namespace lkmm
