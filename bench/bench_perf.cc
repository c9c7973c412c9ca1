/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot paths:
 * relational algebra (closures, sequencing), candidate enumeration,
 * model checking (native vs cat-interpreted), and the operational
 * machines.  These are throughput numbers for the substrate, not a
 * paper table.
 */

#include <filesystem>
#include <map>

#include <benchmark/benchmark.h>

#include "cat/eval.hh"
#include "exec/rf_engine.hh"
#include "litmus/parser.hh"
#include "lkmm/catalog.hh"
#include "lkmm/runner.hh"
#include "model/c11_model.hh"
#include "model/lkmm_model.hh"
#include "model/power_model.hh"
#include "sim/machine.hh"
#include "support/unsaturated_model.hh"

namespace
{

using namespace lkmm;

Relation
denseRelation(std::size_t n, unsigned seed)
{
    Relation r(n);
    unsigned state = seed * 2654435761u + 1u;
    for (EventId a = 0; a < n; ++a) {
        for (EventId b = 0; b < n; ++b) {
            state = state * 1664525u + 1013904223u;
            if ((state >> 28) < 4)
                r.add(a, b);
        }
    }
    return r;
}

void
BM_RelationTransitiveClosure(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    Relation r = denseRelation(n, 42);
    for (auto _ : state)
        benchmark::DoNotOptimize(r.plus());
}
BENCHMARK(BM_RelationTransitiveClosure)->Arg(16)->Arg(32)->Arg(64);

void
BM_RelationSequence(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    Relation a = denseRelation(n, 1);
    Relation b = denseRelation(n, 2);
    for (auto _ : state)
        benchmark::DoNotOptimize(a.seq(b));
}
BENCHMARK(BM_RelationSequence)->Arg(16)->Arg(64);

void
BM_EnumerateCandidates(benchmark::State &state)
{
    Program p = wrcPoRelRmb();
    for (auto _ : state) {
        Enumerator en(p);
        std::size_t count = 0;
        en.forEach([&](const CandidateExecution &) {
            ++count;
            return true;
        });
        benchmark::DoNotOptimize(count);
    }
}
BENCHMARK(BM_EnumerateCandidates);

/**
 * End-to-end candidate throughput over the whole Table 5 catalog.
 * Arg 0: engine — 0 the brute-force reference, 1 rf-first with no
 * saturation support (the staged, arena-backed engine alone).  Both
 * deliver the same candidate stream, so items/s compare directly;
 * CI gates 1-vs-0 from BENCH_enumerate.json.
 */
void
BM_EnumerateCatalog(benchmark::State &state)
{
    std::vector<CatalogEntry> entries = table5();
    std::size_t candidates = 0;
    const auto enumerate = [&](auto &&en) {
        en.forEach([](const CandidateExecution &) { return true; });
        candidates += en.stats().candidates;
    };
    for (auto _ : state) {
        for (const CatalogEntry &entry : entries) {
            if (state.range(0) == 0)
                enumerate(Enumerator(entry.prog));
            else
                enumerate(RfFirstEngine(entry.prog,
                                        RunBudget::unlimited(), {}, {}));
        }
    }
    benchmark::DoNotOptimize(candidates);
    state.SetItemsProcessed(static_cast<std::int64_t>(candidates));
}
BENCHMARK(BM_EnumerateCatalog)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/**
 * Programs bucketed by thread count: the 2-/3-thread buckets come
 * from the Table 5 catalog, the 4-/5-thread buckets from the
 * committed scaling corpus (tests/litmus/scale/).
 */
const std::vector<Program> &
threadBucket(int threads)
{
    static std::map<int, std::vector<Program>> byThreads = [] {
        std::map<int, std::vector<Program>> out;
        for (const CatalogEntry &e : table5())
            out[static_cast<int>(e.prog.threads.size())].push_back(
                e.prog);
        namespace fs = std::filesystem;
        for (const fs::directory_entry &de :
             fs::directory_iterator(LKMM_SCALE_DIR)) {
            if (de.path().extension() != ".litmus")
                continue;
            Program p = parseLitmusFile(de.path().string());
            out[static_cast<int>(p.threads.size())].push_back(
                std::move(p));
        }
        return out;
    }();
    return byThreads.at(threads);
}

/**
 * End-to-end verification (enumeration plus model checking, full
 * verdict) under the lkmm model, as a thread-count scaling curve.
 * Arg 0: engine — 0 brute force, 1 rf-first with saturation
 * support withdrawn, 2 rf-first (the default).  Arg 1: thread-count
 * bucket (2/3/4/5).  This is deliberately runTest and not bare
 * enumeration: saturation's win is the model checks it never issues
 * for rejected rf assignments, so an enumeration-only benchmark
 * would hide it.  CI gates rf-first >= 2x the support-withdrawn
 * column on the combined 4+-thread bucket from BENCH_enumerate.json.
 */
void
BM_VerifyScale(benchmark::State &state)
{
    const std::vector<Program> &progs =
        threadBucket(static_cast<int>(state.range(1)));
    EnumerateOptions opts;
    opts.rfFirst = state.range(0) != 0;
    LkmmModel lkmm;
    UnsaturatedModel unsaturated(lkmm);
    const Model &model =
        state.range(0) == 1 ? static_cast<const Model &>(unsaturated)
                            : lkmm;
    std::size_t candidates = 0;
    for (auto _ : state) {
        for (const Program &p : progs) {
            RunResult res =
                runTest(p, model, RunBudget::unlimited(), opts);
            candidates += res.candidates;
        }
    }
    benchmark::DoNotOptimize(candidates);
    state.SetItemsProcessed(static_cast<std::int64_t>(candidates));
}
BENCHMARK(BM_VerifyScale)
    ->ArgsProduct({{0, 1, 2}, {2, 3, 4, 5}})
    ->Unit(benchmark::kMillisecond);

void
BM_LkmmCheck(benchmark::State &state)
{
    Program p = peterZ();
    Enumerator en(p);
    auto execs = en.all();
    LkmmModel model;
    for (auto _ : state) {
        for (const auto &ex : execs)
            benchmark::DoNotOptimize(model.allows(ex));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * execs.size()));
}
BENCHMARK(BM_LkmmCheck);

void
BM_CatLkmmCheck(benchmark::State &state)
{
    Program p = peterZ();
    Enumerator en(p);
    auto execs = en.all();
    auto model = CatModel::fromFile(
        std::string(LKMM_CAT_MODEL_DIR) + "/lkmm.cat");
    for (auto _ : state) {
        for (const auto &ex : execs)
            benchmark::DoNotOptimize(model.allows(ex));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * execs.size()));
}
BENCHMARK(BM_CatLkmmCheck);

/** Parse, lower and classify lkmm.cat: the load-time share of cat. */
void
BM_CatLoad(benchmark::State &state)
{
    const std::string path = std::string(LKMM_CAT_MODEL_DIR) + "/lkmm.cat";
    for (auto _ : state)
        benchmark::DoNotOptimize(CatModel::fromFile(path));
}
BENCHMARK(BM_CatLoad);

void
BM_PowerCheck(benchmark::State &state)
{
    Program p = peterZ();
    Enumerator en(p);
    auto execs = en.all();
    PowerModel model;
    for (auto _ : state) {
        for (const auto &ex : execs)
            benchmark::DoNotOptimize(model.allows(ex));
    }
}
BENCHMARK(BM_PowerCheck);

void
BM_C11Check(benchmark::State &state)
{
    Program p = rwcMbs();
    Enumerator en(p);
    auto execs = en.all();
    C11Model model;
    for (auto _ : state) {
        for (const auto &ex : execs)
            benchmark::DoNotOptimize(model.allows(ex));
    }
}
BENCHMARK(BM_C11Check);

void
BM_OperationalMachineRun(benchmark::State &state)
{
    Program p = sb();
    OperationalMachine machine(p, MachineConfig::power());
    std::uint64_t seed = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(machine.run(++seed));
}
BENCHMARK(BM_OperationalMachineRun);

void
BM_FullTestVerdict(benchmark::State &state)
{
    Program p = rcuMp();
    LkmmModel model;
    for (auto _ : state)
        benchmark::DoNotOptimize(quickVerdict(p, model));
}
BENCHMARK(BM_FullTestVerdict);

} // namespace

BENCHMARK_MAIN();
