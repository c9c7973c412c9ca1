/**
 * @file
 * Microbenchmarks for the relation kernel layer (relation/kernels.hh):
 * union, compose, closure and acyclic at n = 16/64/256, each in the
 * classic allocating form (value-returning operators, a fresh heap
 * matrix per call) and the destination-passing form (kernels writing
 * into a reused arena destination), plus the rf-first engine's
 * per-rf forced-coherence fixpoint (relation/saturation.hh).  CI
 * records the run as BENCH_relation.json.
 *
 * Beyond the speed ratio, this binary is the zero-allocation proof
 * for the hot path: a TU-local counting operator new tallies every
 * heap allocation, and each destination-passing benchmark asserts
 * the steady state performs none — the counter is reported as the
 * "allocs_per_iter" counter in the JSON artifact, and a non-zero
 * value in any *Into benchmark or in the saturation benchmark aborts
 * the run.  That is the
 * "zero per-candidate heap allocations" acceptance check in a form
 * CI can gate.
 */

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include <benchmark/benchmark.h>

#include "base/rng.hh"
#include "relation/arena.hh"
#include "relation/kernels.hh"
#include "relation/relation.hh"
#include "relation/saturation.hh"

/* ------------------------------------------------------------------ */
/* Counting operator new: global within this binary only.             */
/* ------------------------------------------------------------------ */

namespace
{
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<bool> g_counting{false};
} // namespace

void *
operator new(std::size_t size)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace lkmm
{
namespace
{

Relation
randomRelation(Rng &rng, std::size_t n, std::uint64_t fill)
{
    Relation r(n);
    for (EventId a = 0; a < n; ++a) {
        for (EventId b = 0; b < n; ++b) {
            if (rng.chance(fill, 64))
                r.add(a, b);
        }
    }
    return r;
}

/** A sparse DAG-ish relation so closure/acyclic do real level work. */
Relation
layeredRelation(Rng &rng, std::size_t n)
{
    Relation r(n);
    for (EventId a = 0; a < n; ++a) {
        for (EventId b = a + 1; b < n; ++b) {
            if (rng.chance(4, 64))
                r.add(a, b);
        }
    }
    return r;
}

/**
 * Run `body` under the allocation counter and report the steady-state
 * allocations per iteration.  `requireZero` aborts the whole run on
 * any allocation — the CI contract for the destination-passing path.
 */
template <typename Body>
void
countedLoop(benchmark::State &state, bool requireZero, Body body)
{
    // Warm two iterations outside the counter: scratch vectors and
    // thread-local buffers may allocate on first use (and kernels
    // that swap scratch buffers settle their capacities on the
    // second call), and the claim under test is about the *steady*
    // state.
    body();
    body();
    g_allocs.store(0, std::memory_order_relaxed);
    // The counter brackets only the body — the benchmark library
    // itself allocates in its loop/timer machinery.
    for (auto _ : state) {
        g_counting.store(true, std::memory_order_relaxed);
        body();
        g_counting.store(false, std::memory_order_relaxed);
    }
    const double iters =
        state.iterations() ? static_cast<double>(state.iterations())
                           : 1.0;
    const double allocs =
        static_cast<double>(g_allocs.load(std::memory_order_relaxed));
    state.counters["allocs_per_iter"] = allocs / iters;
    if (requireZero && allocs > 0) {
        std::fprintf(stderr,
                     "FATAL: destination-passing benchmark performed "
                     "%.0f heap allocations (%.2f per iteration); "
                     "the steady state must perform none\n",
                     allocs, allocs / iters);
        std::abort();
    }
}

void
BM_UnionAlloc(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    Rng rng(1);
    const Relation a = randomRelation(rng, n, 8);
    const Relation b = randomRelation(rng, n, 8);
    countedLoop(state, /*requireZero=*/false, [&] {
        Relation r = a | b;
        benchmark::DoNotOptimize(r.count());
    });
}
BENCHMARK(BM_UnionAlloc)->Arg(16)->Arg(64)->Arg(256);

void
BM_UnionInto(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    Rng rng(1);
    const Relation a = randomRelation(rng, n, 8);
    const Relation b = randomRelation(rng, n, 8);
    RelationArena arena;
    Relation dst(arena, n);
    countedLoop(state, /*requireZero=*/true, [&] {
        rel::unionInto(dst, a, b);
        benchmark::DoNotOptimize(dst.row(0));
    });
}
BENCHMARK(BM_UnionInto)->Arg(16)->Arg(64)->Arg(256);

void
BM_ComposeAlloc(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    Rng rng(2);
    const Relation a = randomRelation(rng, n, 8);
    const Relation b = randomRelation(rng, n, 8);
    countedLoop(state, /*requireZero=*/false, [&] {
        Relation r = a.seq(b);
        benchmark::DoNotOptimize(r.count());
    });
}
BENCHMARK(BM_ComposeAlloc)->Arg(16)->Arg(64)->Arg(256);

void
BM_ComposeInto(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    Rng rng(2);
    const Relation a = randomRelation(rng, n, 8);
    const Relation b = randomRelation(rng, n, 8);
    RelationArena arena;
    Relation dst(arena, n);
    countedLoop(state, /*requireZero=*/true, [&] {
        rel::composeInto(dst, a, b);
        benchmark::DoNotOptimize(dst.row(0));
    });
}
BENCHMARK(BM_ComposeInto)->Arg(16)->Arg(64)->Arg(256);

void
BM_ClosureAlloc(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    Rng rng(3);
    const Relation a = layeredRelation(rng, n);
    countedLoop(state, /*requireZero=*/false, [&] {
        Relation r = a.plus();
        benchmark::DoNotOptimize(r.count());
    });
}
BENCHMARK(BM_ClosureAlloc)->Arg(16)->Arg(64)->Arg(256);

void
BM_ClosureInto(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    Rng rng(3);
    const Relation a = layeredRelation(rng, n);
    RelationArena arena;
    Relation dst(arena, n);
    countedLoop(state, /*requireZero=*/true, [&] {
        rel::copyInto(dst, a);
        rel::closureInPlace(dst);
        benchmark::DoNotOptimize(dst.row(0));
    });
}
BENCHMARK(BM_ClosureInto)->Arg(16)->Arg(64)->Arg(256);

void
BM_AcyclicAlloc(benchmark::State &state)
{
    // The pre-kernel formulation: closure, then irreflexivity — a
    // fresh closed matrix per query.
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    Rng rng(4);
    const Relation a = layeredRelation(rng, n);
    countedLoop(state, /*requireZero=*/false, [&] {
        benchmark::DoNotOptimize(a.plus().irreflexive());
    });
}
BENCHMARK(BM_AcyclicAlloc)->Arg(16)->Arg(64)->Arg(256);

void
BM_AcyclicLevels(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    Rng rng(4);
    const Relation a = layeredRelation(rng, n);
    countedLoop(state, /*requireZero=*/true, [&] {
        benchmark::DoNotOptimize(rel::acyclicWithLevels(a));
    });
}
BENCHMARK(BM_AcyclicLevels)->Arg(16)->Arg(64)->Arg(256);

/**
 * One saturating rf: `copies` independent blocks of ten events, each
 * two locations written from three threads with an rmw on x reading
 * another thread's write, so the coherence and atomicity passes both
 * run (each block forces one co edge and leaves two pairs open).
 */
struct SaturationCase
{
    std::size_t n = 0;
    Relation poLoc;
    Relation rf;
    Relation rmw;
    Relation intRel;
    std::vector<std::vector<EventId>> writesByLoc;
    std::vector<EventId> initWrites;
};

SaturationCase
saturationCase(std::size_t copies)
{
    SaturationCase c;
    c.n = 10 * copies;
    c.poLoc = Relation(c.n);
    c.rf = Relation(c.n);
    c.rmw = Relation(c.n);
    c.intRel = Relation(c.n);
    for (std::size_t k = 0; k < copies; ++k) {
        // b: init x, b+1: init y.  Thread 0: b+2 W x, b+3 W y.
        // Thread 1: b+4 R y, then the rmw b+5 R x / b+6 W x.
        // Thread 2: b+7 W x, b+8 W y, b+9 R x.
        const EventId b = static_cast<EventId>(10 * k);
        c.initWrites.push_back(b);
        c.initWrites.push_back(b + 1);
        c.writesByLoc.push_back({b + 2, b + 6, b + 7});
        c.writesByLoc.push_back({b + 3, b + 8});
        c.rf.add(b + 3, b + 4);
        c.rf.add(b + 2, b + 5);
        c.rf.add(b + 7, b + 9);
        c.rmw.add(b + 5, b + 6);
        c.poLoc.add(b + 5, b + 6);
        c.poLoc.add(b + 7, b + 9);
        for (const std::vector<EventId> &thread :
             {std::vector<EventId>{b + 2, b + 3},
              std::vector<EventId>{b + 4, b + 5, b + 6},
              std::vector<EventId>{b + 7, b + 8, b + 9}}) {
            for (EventId x : thread) {
                for (EventId y : thread) {
                    if (x != y)
                        c.intRel.add(x, y);
                }
            }
        }
    }
    return c;
}

void
BM_SaturateForcedCo(benchmark::State &state)
{
    const SaturationCase c =
        saturationCase(static_cast<std::size_t>(state.range(0)));
    const rel::SaturationSupport support{true, true};
    RelationArena arena;
    Relation forced(arena, c.n);
    rel::SaturationScratch scratch;
    std::size_t forcedEdges = 0;
    countedLoop(state, /*requireZero=*/true, [&] {
        rel::clear(forced);
        scratch.prepare(arena, c.n);
        const rel::SaturationResult res = rel::saturateForcedCo(
            forced, c.poLoc, c.rf, c.rmw, c.intRel, c.writesByLoc,
            c.initWrites, support, scratch);
        benchmark::DoNotOptimize(res.forcedEdges);
        benchmark::DoNotOptimize(forced.row(0));
        forcedEdges = res.forcedEdges;
    });
    state.counters["forced_edges"] = static_cast<double>(forcedEdges);
}
BENCHMARK(BM_SaturateForcedCo)->Arg(1)->Arg(4)->Arg(16);

} // namespace
} // namespace lkmm

BENCHMARK_MAIN();
