/**
 * @file
 * Tests for the cat evaluator (src/cat): parsing, lowering, frame
 * reuse, the saturation promises, and — most importantly — the
 * equivalence of the shipped lkmm.cat (transcribing Figures 3, 8
 * and 12 of the paper) with the native C++ LkmmModel, checked on
 * every candidate execution of every Table 5 test.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "base/logging.hh"
#include "base/status.hh"
#include "cat/classify.hh"
#include "cat/eval.hh"
#include "cat/lower.hh"
#include "cat/parser.hh"
#include "litmus/builder.hh"
#include "litmus/parser.hh"
#include "lkmm/catalog.hh"
#include "lkmm/runner.hh"
#include "model/lkmm_model.hh"
#include "model/power_model.hh"
#include "model/sc_model.hh"
#include "model/tso_model.hh"

namespace lkmm
{
namespace
{

std::string
modelPath(const std::string &file)
{
    return std::string(LKMM_CAT_MODEL_DIR) + "/" + file;
}

// Parser unit tests -----------------------------------------------------

TEST(CatParser, ModelNameAndLet)
{
    auto file = cat::parseCat("\"my model\"\nlet a = po | rf\n");
    EXPECT_EQ(file.modelName, "my model");
    ASSERT_EQ(file.statements.size(), 1u);
    EXPECT_EQ(file.statements[0].kind, cat::CatStatement::Kind::Let);
    ASSERT_EQ(file.statements[0].bindings.size(), 1u);
    EXPECT_EQ(file.statements[0].bindings[0].name, "a");
}

TEST(CatParser, Comments)
{
    auto file = cat::parseCat(
        "(* a (* nested *) comment *) let a = po // trailing\n"
        "acyclic a as chk\n");
    EXPECT_EQ(file.statements.size(), 2u);
    EXPECT_EQ(file.statements[1].checkName, "chk");
}

TEST(CatParser, PostfixVsInfixStar)
{
    // 'hb*' is postfix closure; '_ * S' is a product.
    auto file = cat::parseCat("let a = (po*) ; (int & (_ * W))\n");
    ASSERT_EQ(file.statements.size(), 1u);
    const auto &body = *file.statements[0].bindings[0].body;
    EXPECT_EQ(body.kind, cat::CatExpr::Kind::Seq);
    EXPECT_EQ(body.args[0]->kind, cat::CatExpr::Kind::Star);
    EXPECT_EQ(body.args[1]->kind, cat::CatExpr::Kind::Inter);
}

TEST(CatParser, RecursiveAndMutual)
{
    auto file = cat::parseCat(
        "let rec a = po | (a ; a) and b = rf | (b ; a)\n");
    ASSERT_EQ(file.statements.size(), 1u);
    EXPECT_TRUE(file.statements[0].recursive);
    EXPECT_EQ(file.statements[0].bindings.size(), 2u);
}

TEST(CatParser, SyntaxErrorThrows)
{
    EXPECT_THROW(cat::parseCat("let = po\n"), FatalError);
    EXPECT_THROW(cat::parseCat("acyclic (po\n"), FatalError);
    EXPECT_THROW(cat::parseCat("frobnicate po\n"), FatalError);
}

// Evaluator unit tests ---------------------------------------------------

TEST(CatEval, BuiltinsMatchExecution)
{
    Program p = mpWmbRmb();
    Enumerator en(p);
    auto execs = en.all();
    ASSERT_FALSE(execs.empty());
    const CandidateExecution &ex = execs.front();

    auto model = CatModel::fromSource(
        "let my-fr = rf^-1 ; co\n"
        "let my-com = rf | co | my-fr\n"
        "let my-poloc = po & loc\n");
    auto env = model.evalBindings(ex);
    EXPECT_EQ(env.at("my-fr").rel, ex.fr());
    EXPECT_EQ(env.at("my-com").rel, ex.com());
    EXPECT_EQ(env.at("my-poloc").rel, ex.poLoc());
}

TEST(CatEval, FencerelMatchesNative)
{
    Program p = mpWmbRmb();
    Enumerator en(p);
    auto execs = en.all();
    const CandidateExecution &ex = execs.front();

    auto model = CatModel::fromSource(
        "let my-wmb = [W] ; fencerel(Wmb) ; [W]\n"
        "let my-rmb = [R] ; fencerel(Rmb) ; [R]\n");
    auto env = model.evalBindings(ex);
    EXPECT_EQ(env.at("my-wmb").rel, ex.wmbRel());
    EXPECT_EQ(env.at("my-rmb").rel, ex.rmbRel());
}

TEST(CatEval, UserFunctions)
{
    Program p = mpWmbRmb();
    Enumerator en(p);
    auto execs = en.all();
    const CandidateExecution &ex = execs.front();

    auto model = CatModel::fromSource(
        "let twice(r) = r ; r\n"
        "let a = twice(po)\n");
    auto env = model.evalBindings(ex);
    EXPECT_EQ(env.at("a").rel, ex.po.seq(ex.po));
}

TEST(CatEval, RecursionComputesLfp)
{
    Program p = mpWmbRmb();
    Enumerator en(p);
    auto execs = en.all();
    const CandidateExecution &ex = execs.front();

    auto model = CatModel::fromSource("let rec tc = po | (tc ; po)\n");
    auto env = model.evalBindings(ex);
    EXPECT_EQ(env.at("tc").rel, ex.po.plus());
}

TEST(CatEval, UndefinedIdentifierFails)
{
    // Caught at load, before any candidate is checked.
    EXPECT_THROW(CatModel::fromSource("acyclic nonexistent as bad\n"),
                 ParseError);
}

TEST(CatEval, ArgumentsLowerInTheCallersScope)
{
    Program p = mpWmbRmb();
    Enumerator en(p);
    const CandidateExecution ex = en.all().front();

    // The second argument names the first parameter: it means the
    // caller's x (po), not the argument bound to x (rf).
    auto model = CatModel::fromSource(
        "let x = po\n"
        "let pair(x, y) = x | y\n"
        "let a = pair(rf, x)\n");
    EXPECT_EQ(model.evalBindings(ex).at("a").rel, ex.rf | ex.po);
}

// Frame reuse ------------------------------------------------------------

/** CoRR2: the two reads see the writes to x in the wrong order. */
const char *const kCoRR2 = R"(C CoRR2

{ x=0; }

P0(int *x) {
    WRITE_ONCE(*x, 1);
    WRITE_ONCE(*x, 2);
}

P1(int *x) {
    int r0 = READ_ONCE(*x);
    int r1 = READ_ONCE(*x);
}

exists (1:r0=2 /\ 1:r1=1)
)";

/** The inputs a frame reuses Static ops for. */
bool
sameStatic(const CandidateExecution &a, const CandidateExecution &b)
{
    if (a.events.size() != b.events.size())
        return false;
    for (std::size_t i = 0; i < a.events.size(); ++i) {
        const Event &x = a.events[i];
        const Event &y = b.events[i];
        if (x.kind != y.kind || x.ann != y.ann || x.tid != y.tid)
            return false;
    }
    return a.po == b.po && a.addr == b.addr && a.data == b.data &&
           a.ctrl == b.ctrl && a.rmw == b.rmw;
}

/** The inputs a frame reuses Rf ops for. */
bool
sameRf(const CandidateExecution &a, const CandidateExecution &b)
{
    if (!sameStatic(a, b) || !(a.rf == b.rf))
        return false;
    for (std::size_t i = 0; i < a.events.size(); ++i) {
        if (a.events[i].loc != b.events[i].loc)
            return false;
    }
    return true;
}

/**
 * Candidates of four Table 5 tests and CoRR2 (whose incoherent
 * candidates fail the first check of every shipped file), in an
 * order where successive checks change the static inputs, change
 * only rf, or change neither.
 */
class CandidateStream
{
  public:
    CandidateStream()
    {
        for (const CatalogEntry &e : table5()) {
            if (e.prog.name == "LB+ctrl+mb" || e.prog.name == "MP+wmb+rmb" ||
                e.prog.name == "PeterZ" || e.prog.name == "RWC+mbs") {
                progs_.push_back(e.prog);
            }
        }
        progs_.push_back(parseLitmus(kCoRR2));
        // Candidates point at their program: fill progs_ first.
        for (const Program &prog : progs_)
            pools_.push_back(Enumerator(prog).all());
        std::size_t rounds = 0;
        for (const auto &pool : pools_)
            rounds = std::max(rounds, pool.size());
        for (std::size_t r = 0; r < rounds; ++r) {
            for (std::size_t p = 0; p < pools_.size(); ++p) {
                const std::size_t n = pools_[p].size();
                order_.emplace_back(p, r % n);
                order_.emplace_back(p, r % n);
                order_.emplace_back(p, (r + 1) % n);
            }
        }
    }

    std::size_t size() const { return order_.size(); }

    const CandidateExecution &
    operator[](std::size_t i) const
    {
        return pools_[order_[i].first][order_[i].second];
    }

  private:
    std::vector<Program> progs_;
    std::vector<std::vector<CandidateExecution>> pools_;
    std::vector<std::pair<std::size_t, std::size_t>> order_;
};

void
expectSameViolation(const std::optional<Violation> &got,
                    const std::optional<Violation> &want,
                    const std::string &where)
{
    ASSERT_EQ(got.has_value(), want.has_value()) << where;
    if (got) {
        EXPECT_EQ(got->axiom, want->axiom) << where;
        EXPECT_EQ(got->cycle, want->cycle) << where;
    }
}

const char *const kShippedFiles[] = {"lkmm.cat", "power.cat", "sc.cat",
                                     "tso.cat"};

/** What a model with no frames yet says about every stream entry. */
std::vector<std::optional<Violation>>
freshResults(const std::string &file, const CandidateStream &stream)
{
    const CatModel loaded = CatModel::fromFile(modelPath(file));
    std::vector<std::optional<Violation>> out;
    for (std::size_t i = 0; i < stream.size(); ++i)
        out.push_back(CatModel(loaded).check(stream[i]));
    return out;
}

TEST(CatEval, FrameReuseMatchesFreshEvaluation)
{
    const CandidateStream stream;
    std::size_t staticChanges = 0, rfChanges = 0, unchanged = 0;
    for (std::size_t i = 1; i < stream.size(); ++i) {
        if (!sameStatic(stream[i - 1], stream[i]))
            ++staticChanges;
        else if (!sameRf(stream[i - 1], stream[i]))
            ++rfChanges;
        else
            ++unchanged;
    }
    EXPECT_GT(staticChanges, 0u);
    EXPECT_GT(rfChanges, 0u);
    EXPECT_GT(unchanged, 0u);

    for (const char *file : kShippedFiles) {
        SCOPED_TRACE(file);
        const std::vector<std::optional<Violation>> want =
            freshResults(file, stream);
        const cat::SlotProgram program =
            cat::lower(cat::parseCatFile(modelPath(file)));
        const std::string &lastCheck = program.checkNames.back();
        std::size_t early = 0;
        for (const auto &v : want)
            early += v && v->axiom != lastCheck;
        EXPECT_GT(early, 0u) << "no candidate fails an early check";

        const CatModel model = CatModel::fromFile(modelPath(file));
        for (std::size_t i = 0; i < stream.size(); ++i) {
            expectSameViolation(model.check(stream[i]), want[i],
                                "entry " + std::to_string(i));
        }
    }
}

TEST(CatEval, SharedInstanceAcrossThreads)
{
    const CandidateStream stream;
    constexpr int kThreads = 4;
    for (const char *file : kShippedFiles) {
        SCOPED_TRACE(file);
        const std::vector<std::optional<Violation>> want =
            freshResults(file, stream);
        const CatModel shared = CatModel::fromFile(modelPath(file));
        std::atomic<int> mismatches{0};
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                // Own candidates (executions cache lazily), shared
                // model; each thread starts at a different entry.
                const CandidateStream mine;
                for (std::size_t k = 0; k < mine.size(); ++k) {
                    const std::size_t i =
                        (k + t * mine.size() / kThreads) % mine.size();
                    const std::optional<Violation> got =
                        shared.check(mine[i]);
                    const bool same =
                        got.has_value() == want[i].has_value() &&
                        (!got || (got->axiom == want[i]->axiom &&
                                  got->cycle == want[i]->cycle));
                    if (!same)
                        ++mismatches;
                }
            });
        }
        for (std::thread &th : threads)
            th.join();
        EXPECT_EQ(mismatches.load(), 0);
    }
}

// Lowering and classification --------------------------------------------

/** The slot of the last top-level binding called name. */
cat::Slot
bindingSlot(const cat::SlotProgram &p, const std::string &name)
{
    for (auto it = p.bindings.rbegin(); it != p.bindings.rend(); ++it) {
        if (it->first == name)
            return it->second;
    }
    ADD_FAILURE() << "no binding " << name;
    return 0;
}

TEST(CatLower, StagesFollowOperands)
{
    const cat::SlotProgram p =
        cat::lower(cat::parseCatFile(modelPath("lkmm.cat")));
    const std::pair<const char *, cat::Stage> want[] = {
        {"mb", cat::Stage::Static},      {"rrdep", cat::Stage::Rf},
        {"strong-rrdep", cat::Stage::Rf}, {"ppo", cat::Stage::Co},
        {"hb", cat::Stage::Co},          {"rcu-path", cat::Stage::Co},
    };
    for (const auto &[name, stage] : want) {
        EXPECT_EQ(p.ops[bindingSlot(p, name)].stage, stage) << name;
    }
}

/** n functions, f0 forwarding to f1 and so on, and a check of f0. */
std::string
forwardingChain(int n)
{
    std::string src = "\"chain\"\n";
    for (int i = 0; i + 1 < n; ++i) {
        src += "let f" + std::to_string(i) + "(x) = f" +
            std::to_string(i + 1) + "(x)\n";
    }
    src += "let f" + std::to_string(n - 1) + "(x) = x\n";
    return src + "acyclic f0(po) as chain\n";
}

/** f0 forwards its argument; f<k> calls f<k-1> twice, nested. */
std::string
doublingForwarders(int k)
{
    std::string src = "\"doubling\"\nlet f0(x) = x\n";
    for (int i = 1; i <= k; ++i) {
        const std::string prev = "f" + std::to_string(i - 1);
        src += "let f" + std::to_string(i) + "(x) = " + prev + "(" + prev +
            "(x))\n";
    }
    return src + "acyclic f" + std::to_string(k) + "(po) as blowup\n";
}

TEST(CatLower, ExpansionIsBoundedAtTheOutermostCall)
{
    // Forwarding pushes no op of its own: depth and expansions are
    // what the lowering must count.
    EXPECT_NO_THROW(CatModel::fromSource(forwardingChain(150)));
    EXPECT_NO_THROW(CatModel::fromSource(doublingForwarders(10)));

    const std::pair<std::string, const char *> bad[] = {
        {forwardingChain(20000), "nest deeper than"},
        {doublingForwarders(40), "expands past"},
    };
    for (const auto &[src, what] : bad) {
        const int checkLine =
            static_cast<int>(std::count(src.begin(), src.end(), '\n'));
        try {
            (void)CatModel::fromSource(src);
            ADD_FAILURE() << what << ": loaded";
        } catch (const ParseError &e) {
            EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
                << e.what();
            EXPECT_EQ(e.line(), checkLine) << what;
            EXPECT_EQ(e.column(), 9) << what;
        }
    }
}

TEST(CatClassify, PromisesOfShippedAndCraftedShapes)
{
    for (const char *file : kShippedFiles) {
        const rel::SaturationSupport s = cat::classifyAxioms(
            cat::lower(cat::parseCatFile(modelPath(file))));
        EXPECT_TRUE(s.coherence) << file;
        EXPECT_TRUE(s.atomicity) << file;
    }

    struct Case
    {
        const char *source;
        bool coherence;
        bool atomicity;
    };
    const Case cases[] = {
        // Coherence: the whitelist and its near misses.
        {"acyclic po-loc | rf | co | fr", true, false},
        {"acyclic po | com", true, false},
        {"acyclic ([M] ; po ; [M]) | com", true, false},
        {"acyclic ([_] ; (po-loc | com)+)?", true, false},
        {"let m = M\nacyclic ([m] ; po ; [m]) | com", true, false},
        {"let c(r) = r | com\nacyclic c(po-loc)", true, false},
        {"acyclic po-loc | rf | co", false, false},
        {"acyclic (po-loc | com) & loc", false, false},
        {"acyclic ([R] ; po ; [R]) | com", false, false},
        {"irreflexive po-loc | com", false, false},
        {"let po = rf\nacyclic po | com", false, false},
        {"let M = R\nacyclic ([M] ; po-loc ; [M]) | com", false, false},
        {"let rec c = com | (c ; c)\nacyclic po-loc | c", false, false},
        // Atomicity.
        {"empty rmw & (fre ; coe)", false, true},
        {"empty (coe ; fre) & rmw", false, false},
        {"empty (fre ; coe) & rmw", false, true},
        {"empty rmw & ((fr & ext) ; (ext & co))", false, true},
        {"let x = fre ; coe\nempty rmw & x", false, true},
        {"empty rmw & (fr ; co)", false, false},
        {"empty rmw & (fre ; coe ; po)", false, false},
        {"let rmw = po\nempty rmw & (fre ; coe)", false, false},
        {"let fre = fr\nempty rmw & (fre ; coe)", false, false},
        {"acyclic rmw & (fre ; coe)", false, false},
    };
    for (const Case &c : cases) {
        const rel::SaturationSupport s =
            cat::classifyAxioms(cat::lower(cat::parseCat(c.source)));
        EXPECT_EQ(s.coherence, c.coherence) << c.source;
        EXPECT_EQ(s.atomicity, c.atomicity) << c.source;
    }
}

TEST(CatClassify, ShadowedBuiltinKeepsRfFirstExact)
{
    // po is shadowed by rf, so the acyclic axiom does not contain
    // po-loc and promises no coherence: rf-first must not prune
    // CoRR2's incoherent candidates.
    const CatModel model = CatModel::fromSource(
        "\"fake\"\nlet po = rf\nacyclic po | com as fake\n");
    EXPECT_FALSE(model.saturationSupport().coherence);
    const Program prog = parseLitmus(kCoRR2);
    const RunResult brute = runTest(prog, model, RunBudget::unlimited(),
                                    EnumerateOptions{false});
    const RunResult rfFirst = runTest(prog, model, RunBudget::unlimited(),
                                      EnumerateOptions{true});
    EXPECT_EQ(brute.verdict, Verdict::Allow);
    EXPECT_EQ(brute.allowedCandidates, 18u);
    EXPECT_EQ(rfFirst.verdict, brute.verdict);
    EXPECT_EQ(rfFirst.allowedCandidates, brute.allowedCandidates);
}

// Shipped-model equivalence ----------------------------------------------

/** Every candidate of prog gets the same verdict from both models. */
void
expectModelsAgree(const Program &prog, const Model &a, const Model &b)
{
    Enumerator en(prog);
    en.forEach([&](const CandidateExecution &ex) {
        EXPECT_EQ(a.allows(ex), b.allows(ex))
            << prog.name << ": disagreement on candidate with state "
            << ex.finalStateString();
        return true;
    });
}

class CatLkmmEquivalence : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(CatLkmmEquivalence, AgreesWithNativeModel)
{
    static CatModel catModel =
        CatModel::fromFile(modelPath("lkmm.cat"));
    static const std::vector<CatalogEntry> entries = table5();
    LkmmModel native;
    const CatalogEntry &e = entries[GetParam()];
    SCOPED_TRACE(e.prog.name);
    expectModelsAgree(e.prog, catModel, native);
}

INSTANTIATE_TEST_SUITE_P(
    Table5, CatLkmmEquivalence,
    ::testing::Range<std::size_t>(0, table5().size()),
    [](const ::testing::TestParamInfo<std::size_t> &info) {
        std::string name = table5()[info.param].prog.name;
        for (char &c : name) {
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

TEST(CatShippedModels, ScCatAgreesWithNative)
{
    auto catSc = CatModel::fromFile(modelPath("sc.cat"));
    ScModel native;
    for (const CatalogEntry &e : table5())
        expectModelsAgree(e.prog, catSc, native);
}

TEST(CatShippedModels, TsoCatAgreesWithNative)
{
    auto catTso = CatModel::fromFile(modelPath("tso.cat"));
    TsoModel native;
    for (const CatalogEntry &e : table5())
        expectModelsAgree(e.prog, catTso, native);
}

TEST(CatShippedModels, PowerCatAgreesWithNative)
{
    // power.cat exercises the interpreter's *mutual* recursion (the
    // ii/ci/ic/cc equations) and must agree with the native
    // PowerModel on every candidate of every non-RCU Table 5 test
    // (the hardware models do not interpret RCU primitives).
    auto catPower = CatModel::fromFile(modelPath("power.cat"));
    PowerModel native;
    for (const CatalogEntry &e : table5()) {
        if (!e.c11Expected.has_value())
            continue;
        SCOPED_TRACE(e.prog.name);
        expectModelsAgree(e.prog, catPower, native);
    }
}

TEST(CatShippedModels, LkmmCatVerdictsMatchTable5)
{
    auto catModel = CatModel::fromFile(modelPath("lkmm.cat"));
    for (const CatalogEntry &e : table5()) {
        SCOPED_TRACE(e.prog.name);
        EXPECT_EQ(quickVerdict(e.prog, catModel), e.lkmmExpected);
    }
}

} // namespace
} // namespace lkmm
