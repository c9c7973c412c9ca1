/**
 * @file
 * Sweep throughput: the full Table 5 catalog swept through
 * BatchRunner.  BM_SweepCatalog runs in process at jobs = 1, 2, 4
 * and the hardware thread count, with per-worker model instances
 * from the ModelRegistry; BM_SweepCatalogForked runs one forked
 * child per test at jobs = 1 and 4.  SetItemsProcessed makes the
 * reported items/s a tests/sec figure, so the CI harness
 * (--benchmark_out=BENCH_sweep.json) captures both curves directly;
 * the acceptance bar is >1.5x at jobs=4 over jobs=1 in process on a
 * 4-core runner.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "base/scheduler.hh"
#include "lkmm/batch.hh"
#include "lkmm/catalog.hh"
#include "model/registry.hh"

namespace
{

using namespace lkmm;

/**
 * Sweep the catalog `copies` times over `jobs` workers and return
 * the number of tests checked.  Each run builds a fresh runner (the
 * queue is consumed by run()) but the models come from per-worker
 * factories, exactly as lkmm-sweep --jobs N does.
 */
std::size_t
sweepOnce(IsolationMode isolation, int jobs, int copies)
{
    static const std::unique_ptr<Model> shared =
        ModelRegistry::instance().make("lkmm");

    BatchOptions opts;
    opts.isolation = isolation;
    opts.workers = jobs;
    opts.modelFactory = ModelRegistry::instance().factoryFor("lkmm");

    BatchRunner runner(*shared, opts);
    std::size_t queued = 0;
    for (int c = 0; c < copies; ++c) {
        for (const CatalogEntry &entry : table5()) {
            runner.add(entry.prog.name + "#" + std::to_string(c),
                       entry.prog);
            ++queued;
        }
    }
    const BatchReport report = runner.run();
    if (report.results.size() != queued ||
        !report.failures.empty()) {
        throw std::runtime_error("parallel sweep lost tests");
    }
    return queued;
}

void
sweepCatalog(benchmark::State &state, IsolationMode isolation)
{
    const int jobs = static_cast<int>(state.range(0));
    const int copies = 4;
    std::size_t tests = 0;
    for (auto _ : state)
        tests += sweepOnce(isolation, jobs, copies);
    state.SetItemsProcessed(static_cast<std::int64_t>(tests));
    state.counters["jobs"] = static_cast<double>(jobs);
}

void
BM_SweepCatalog(benchmark::State &state)
{
    sweepCatalog(state, IsolationMode::InProcessParallel);
}
BENCHMARK(BM_SweepCatalog)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(static_cast<long>(lkmm::ThreadPool::hardwareThreads()))
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void
BM_SweepCatalogForked(benchmark::State &state)
{
    sweepCatalog(state, IsolationMode::Forked);
}
BENCHMARK(BM_SweepCatalogForked)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

} // namespace

BENCHMARK_MAIN();
