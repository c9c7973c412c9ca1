/**
 * @file
 * sweep-scale and sweep-small-cat: the in-process parallel
 * BatchRunner sweep (lkmm-sweep --isolation inproc-parallel) with two
 * workers and the default EngineConfig.
 */

#include "workloads.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <set>

#include "diy/generator.hh"
#include "layers.hh"
#include "litmus/parser.hh"
#include "litmus/printer.hh"
#include "lkmm/batch.hh"
#include "lkmm/catalog.hh"
#include "model/registry.hh"

namespace perfbench
{

namespace
{

constexpr int kWorkers = 2;
/**
 * Seeded diy tests per sweep.  A generated test's cost varies several
 * fold with its edges, so these counts set how far the per-test cost
 * moves from one seed to the next.
 */
constexpr std::size_t kWideCycles = 48;
constexpr std::size_t kSmallCycles = 80;
/**
 * Set-ups timed after each sweep pass, about a tenth of a pass's time
 * (a sweep-scale pass takes about 1 s, a sweep-small-cat pass 60 ms).
 */
constexpr int kScaleSetUpsPerPass = 100;
constexpr int kSmallSetUpsPerPass = 1;

/** One queued test. */
struct Item
{
    std::string name;
    lkmm::Program prog;
    /** Litmus text (sweep-small-cat feeds text, so parse is timed). */
    std::string source;
    /** Key into the golden snapshot; empty for generated tests. */
    std::string golden;
};

struct SweepInput
{
    std::vector<Item> items;
    std::vector<std::string> specs;
    std::map<std::string, lkmm::ModelFactory> factories;
    bool feedText = false;
};

/** Seeded, distinct diy critical cycles of [minLen, maxLen] edges. */
std::vector<lkmm::Program>
diyCycles(std::uint64_t seed, std::size_t count, std::size_t minLen,
          std::size_t maxLen, int maxThreads)
{
    lkmm::Rng rng(seed);
    const std::vector<lkmm::DiyEdge> alphabet = lkmm::defaultAlphabet();
    std::vector<lkmm::Program> out;
    std::set<std::string> seen;
    while (out.size() < count) {
        std::optional<lkmm::Program> p =
            lkmm::randomCycle(rng, alphabet, minLen, maxLen);
        if (p && p->numThreads() <= maxThreads && seen.insert(p->name).second)
            out.push_back(std::move(*p));
    }
    return out;
}

/**
 * Seeded, distinct critical cycles with exactly `threads` threads:
 * each thread contributes one communication edge (Rfe, Fre or Coe)
 * and one decorated program-order edge.  randomCycle almost never
 * draws four or more communication edges, so the wide cycles are
 * assembled edge by edge and validated by cycleToProgram.
 */
std::vector<lkmm::Program>
wideCycles(std::uint64_t seed, std::size_t count, int threads)
{
    using lkmm::DiyEdge;
    lkmm::Rng rng(seed);
    const DiyEdge::Synchro synchros[] = {
        DiyEdge::Synchro::None,    DiyEdge::Synchro::Mb,
        DiyEdge::Synchro::Wmb,     DiyEdge::Synchro::Rmb,
        DiyEdge::Synchro::RbDep,   DiyEdge::Synchro::DepAddr,
        DiyEdge::Synchro::DepData, DiyEdge::Synchro::DepCtrl,
        DiyEdge::Synchro::Release, DiyEdge::Synchro::Acquire,
    };
    std::vector<lkmm::Program> out;
    std::set<std::string> seen;
    while (out.size() < count) {
        std::vector<DiyEdge> com;
        for (int t = 0; t < threads; ++t) {
            const int k = static_cast<int>(rng.below(3));
            com.push_back(k == 0 ? DiyEdge::rfe()
                                 : k == 1 ? DiyEdge::fre() : DiyEdge::coe());
        }
        std::vector<DiyEdge> cycle;
        for (int t = 0; t < threads; ++t) {
            cycle.push_back(com[t]);
            cycle.push_back(DiyEdge::po(
                com[t].targetKind(), com[(t + 1) % threads].sourceKind(),
                synchros[rng.below(std::size(synchros))]));
        }
        std::optional<lkmm::Program> p = lkmm::cycleToProgram(cycle);
        if (p && seen.insert(p->name).second)
            out.push_back(std::move(*p));
    }
    return out;
}

/** Everything before the first timed sweep: the set-up being timed. */
SweepInput
setUp(const Context &ctx, bool smallCat)
{
    SweepInput in;
    const lkmm::ModelRegistry &registry = lkmm::ModelRegistry::instance();
    if (!smallCat) {
        in.specs = {"lkmm"};
        for (const std::string &path :
             litmusFiles(ctx.root + "/tests/litmus/scale")) {
            const std::string stem = std::filesystem::path(path).stem();
            Item it;
            it.name = "scale/" + stem;
            it.golden = it.name;
            it.prog = lkmm::parseLitmusFile(path);
            in.items.push_back(std::move(it));
        }
        for (lkmm::Program &p :
             wideCycles(deriveSeed(ctx.seed, 1), kWideCycles, 4)) {
            Item it;
            it.name = "diy/" + p.name;
            it.prog = std::move(p);
            in.items.push_back(std::move(it));
        }
    } else {
        in.feedText = true;
        for (const char *m : {"lkmm", "power", "tso", "sc"})
            in.specs.push_back("cat:" + ctx.catModel(m));
        for (lkmm::CatalogEntry &e : lkmm::table5()) {
            Item it;
            it.name = e.prog.name;
            it.golden = it.name;
            it.source = lkmm::printLitmus(e.prog);
            it.prog = std::move(e.prog);
            in.items.push_back(std::move(it));
        }
        for (const std::string &path : litmusFiles(ctx.root + "/litmus/tests")) {
            Item it;
            it.name = "litmus/" + std::filesystem::path(path).stem().string();
            it.golden = it.name;
            it.source = slurp(path);
            it.prog = lkmm::parseLitmus(it.source);
            in.items.push_back(std::move(it));
        }
        for (lkmm::Program &p :
             diyCycles(deriveSeed(ctx.seed, 2), kSmallCycles, 3, 6, 3)) {
            Item it;
            it.name = "diy/" + p.name;
            it.source = lkmm::printLitmus(p);
            it.prog = std::move(p);
            in.items.push_back(std::move(it));
        }
    }
    for (const std::string &spec : in.specs)
        in.factories[spec] = registry.factoryFor(spec);
    return in;
}

/** "cat:<dir>/power.cat" -> "power"; "lkmm" -> "lkmm". */
std::string
goldenModel(const std::string &spec)
{
    if (spec.rfind("cat:", 0) != 0)
        return spec;
    return std::filesystem::path(spec.substr(4)).stem();
}

/** (test name, spec) -> known verdict. */
using Expected = std::map<std::pair<std::string, std::string>, lkmm::Verdict>;

Expected
knownAnswers(const Context &ctx, const SweepInput &in, Report &report)
{
    const Golden golden = loadGolden(ctx.root);
    const std::vector<lkmm::CatalogEntry> table = lkmm::table5();
    Expected out;
    for (const Item &it : in.items) {
        for (const std::string &spec : in.specs) {
            lkmm::Verdict v;
            if (!it.golden.empty()) {
                auto g = golden.find(it.golden);
                if (g == golden.end() ||
                    !g->second.count(goldenModel(spec))) {
                    report.fail(it.name + ": no golden verdict for " +
                                goldenModel(spec));
                    continue;
                }
                v = g->second.at(goldenModel(spec));
                // Table 5's "Model" column must agree with the
                // snapshot for every LKMM check of a catalog test.
                if (goldenModel(spec) == "lkmm") {
                    if (auto e = lkmm::findEntry(table, it.name);
                        e && e->lkmmExpected != v) {
                        report.fail(it.name +
                                    ": golden snapshot disagrees with "
                                    "Table 5");
                    }
                }
            } else {
                v = referenceVerdict(ctx, it.prog, spec);
            }
            out[{it.name, spec}] = v;
        }
    }
    return out;
}

/** Wall and CPU seconds of one BatchRunner::run. */
struct RunTime
{
    double wallS = 0;
    double cpuS = 0;
};

/** One sweep of every item under one spec, verdicts checked. */
RunTime
sweepOnce(const SweepInput &in, const std::string &spec,
          const lkmm::ModelFactory &factory, const Expected &expected,
          Report &report, lkmm::Enumerator::Stats *stats,
          std::vector<std::size_t> *candidates)
{
    lkmm::BatchOptions opts;
    opts.isolation = lkmm::IsolationMode::InProcessParallel;
    opts.workers = kWorkers;
    opts.modelFactory = factory;
    std::unique_ptr<lkmm::Model> model = factory();
    lkmm::BatchRunner runner(*model, opts);
    for (const Item &it : in.items) {
        if (in.feedText)
            runner.addLitmusSource(it.name, it.source);
        else
            runner.add(it.name, it.prog);
    }
    const Clock::time_point t0 = Clock::now();
    const double c0 = processCpuSeconds();
    lkmm::BatchReport rep;
    {
        ScopedSpan span("lkmm.batch_run", spec);
        rep = runner.run();
    }
    const RunTime time{secondsSince(t0), processCpuSeconds() - c0};

    report.attempt(in.items.size());
    for (const lkmm::TestFailure &f : rep.failures)
        report.fail(f.toString());
    for (const lkmm::BatchItemResult &r : rep.results) {
        auto it = expected.find({r.name, spec});
        if (r.result.truncated() ||
            r.result.verdict == lkmm::Verdict::Unknown) {
            report.fail(r.name + " under " + goldenModel(spec) +
                        ": truncated or Unknown");
        } else if (it == expected.end() || it->second != r.result.verdict) {
            report.fail(r.name + " under " + goldenModel(spec) + ": got " +
                        lkmm::verdictName(r.result.verdict));
        }
        if (candidates)
            candidates->push_back(r.result.candidates);
    }
    if (stats)
        *stats = rep.stats;
    return time;
}

/**
 * Repeat whole sweeps (every spec) for `budgetS` seconds, at least
 * `minPasses` times.  `between`, when given, runs after each pass.
 */
Throughput
measure(const SweepInput &in,
        const std::map<std::string, lkmm::ModelFactory> &factories,
        const Expected &expected, Report &report, double budgetS,
        int minPasses, const std::function<void()> &between = {})
{
    Throughput t;
    const Clock::time_point start = Clock::now();
    while (static_cast<int>(t.rounds.size()) < minPasses ||
           secondsSince(start) < budgetS) {
        RunTime pass;
        for (const std::string &spec : in.specs) {
            const RunTime r = sweepOnce(in, spec, factories.at(spec),
                                        expected, report, nullptr, nullptr);
            pass.wallS += r.wallS;
            pass.cpuS += r.cpuS;
        }
        t.add(static_cast<double>(in.items.size() * in.specs.size()),
              pass.wallS, pass.cpuS);
        if (between)
            between();
    }
    return t;
}

std::string
fmtRange(const char *what, std::vector<double> v)
{
    char buf[200];
    std::snprintf(buf, sizeof buf, "  %s: min %g, q10 %g, median %g, max %g",
                  what, quantile(v, 0), quantile(v, kQuietQuantile), median(v),
                  quantile(v, 1));
    return buf;
}

} // namespace

int
runSweep(const Context &ctx, bool smallCat)
{
    Report report(ctx);

    SetUpTimer setup;
    SweepInput in;
    setup.time([&] { in = setUp(ctx, smallCat); });
    // Later set-ups build a copy that is thrown away.
    auto setUpAgain = [&] {
        setup.time([&] { (void)setUp(ctx, smallCat); },
                   smallCat ? kSmallSetUpsPerPass : kScaleSetUpsPerPass);
    };

    const Expected expected = knownAnswers(ctx, in, report);

    // Shape: what one sweep looks like.
    {
        std::vector<double> threads;
        for (const Item &it : in.items)
            threads.push_back(it.prog.numThreads());
        lkmm::Enumerator::Stats stats;
        std::vector<std::size_t> cands;
        for (const std::string &spec : in.specs) {
            sweepOnce(in, spec, in.factories.at(spec), expected, report,
                      &stats, &cands);
        }
        report.shape("  tests: " + std::to_string(in.items.size()) + " x " +
                     std::to_string(in.specs.size()) + " model(s), " +
                     std::to_string(kWorkers) + " workers, engine " +
                     lkmm::EngineConfig{}.modeName());
        report.shape(fmtRange("threads per test", threads));
        report.shape(fmtRange("candidates per test",
                              std::vector<double>(cands.begin(), cands.end())));
        report.shape(coFallbackShape(stats, lkmm::EngineConfig{}));
    }

    if (!ctx.trace) {
        const Throughput t = measure(in, in.factories, expected, report,
                                     ctx.seconds, 3, setUpAgain);
        reportSetUp(report, setup.result());
        report.endToEnd("tests_per_s", t.rate(), "tests/s");
        report.endToEnd("cpu_ms_per_op", t.cpuMsPerOp(), "ms");
        report.shape(fmtRange(
            ("tests/s over " + std::to_string(t.rounds.size()) + " passes")
                .c_str(),
            t.rounds));
        report.shape(fmtRange("CPU ms per test of each pass", t.cpuRounds));
        reportCommon(report);
        return report.finish();
    }

    // Traced run: untraced and traced sweeps for the overhead, then
    // the sequential layer pass.
    const double phase = ctx.seconds / 3;
    const Throughput plain =
        measure(in, in.factories, expected, report, phase, 2, setUpAgain);
    reportSetUp(report, setup.result());

    Tracer tracer;
    Tracer::activate(&tracer);
    std::map<std::string, lkmm::ModelFactory> timed;
    for (const std::string &spec : in.specs)
        timed[spec] = timedFactory(in.factories.at(spec));
    const Throughput traced = measure(in, timed, expected, report, phase, 2);

    std::vector<LayerTest> tests;
    for (const Item &it : in.items)
        tests.push_back({it.name, &it.prog, it.source, in.specs});
    const LayerTotals t = layerPass(tests, lkmm::EngineConfig{});
    Tracer::activate(nullptr);

    report.endToEnd("tests_per_s.untraced", plain.rate(), "tests/s");
    report.endToEnd("tests_per_s.traced", traced.rate(), "tests/s");
    const double overhead = traced.cpuMsPerOp() / plain.cpuMsPerOp() - 1.0;
    reportLayers(report, tracer, t,
                 traced.wallS / static_cast<double>(traced.rounds.size()),
                 kWorkers);
    report.layer("trace.overhead_frac", overhead, "ratio");

    std::map<std::string, Tracer::Totals> spans = tracer.totals();
    const double enumerateS = spans["exec.enumerate"].totalS;
    const double runTestS = spans["lkmm.run_test"].totalS;
    const double check = static_cast<double>(t.native.ns) * 1e-9;
    const double catCheck = static_cast<double>(t.cat.ns) * 1e-9;
    const double execModel = (enumerateS + check) / runTestS;
    const double catShare = catCheck / runTestS;
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "  runTest time: exec+model %.1f%%, cat %.1f%%, "
                  "enumerate %.1f%%",
                  100 * execModel, 100 * catShare,
                  100 * enumerateS / runTestS);
    report.shape(buf);
    if (!smallCat) {
        report.expect(execModel >= 0.6,
                      "exec+model dominate sweep-scale (>= 60% of runTest)");
    } else {
        report.expect(catShare >= 0.5,
                      "cat dominates sweep-small-cat (>= 50% of runTest)");
    }
    tracer.finish(report, ctx.workdir + "/trace-" + ctx.workload + ".jsonl");
    reportCommon(report);
    return report.finish();
}

} // namespace perfbench
