/**
 * @file
 * The sequential per-layer pass of a traced run: every test goes
 * through the public entry points of each layer in turn, each call
 * timed from outside.
 *
 *   litmus  parseLitmus (tests fed as text) and printLitmus
 *   exec    the default engine's forEach with a no-op callback
 *   lkmm    runTest against a TimedModel (whose check() times give
 *           the model / cat layers)
 */

#ifndef LKMM_PERFBENCH_LAYERS_HH
#define LKMM_PERFBENCH_LAYERS_HH

#include <map>
#include <string>
#include <vector>

#include "common.hh"
#include "exec/engine_config.hh"
#include "litmus/program.hh"

namespace perfbench
{

/** One test of the layer pass. */
struct LayerTest
{
    std::string id;
    const lkmm::Program *prog = nullptr;
    /** Litmus text when the workload feeds text (parse is timed). */
    std::string source;
    /** Model specs the workload checks this test under. */
    std::vector<std::string> specs;
};

/**
 * The counters the layer pass collected.  Its call times are the
 * tracer's spans: litmus.parse, litmus.print, cat.load,
 * exec.enumerate and lkmm.run_test.
 */
struct LayerTotals
{
    lkmm::Enumerator::Stats stats;
    CheckStats native;
    CheckStats cat;
    std::size_t candidates = 0;
    std::size_t allowed = 0;
};

/**
 * Run every test through every layer once, sequentially.  A tracer
 * must be active: it records the timings.
 */
LayerTotals layerPass(const std::vector<LayerTest> &tests,
                      const lkmm::EngineConfig &engine);

/**
 * Emit the litmus / exec / model / cat / lkmm layer metrics from the
 * layer pass's counters and spans.  batchWallS and workers give
 * lkmm.batch_parallel_eff (0 = none).
 */
void reportLayers(Report &report, const Tracer &tracer, const LayerTotals &t,
                  double batchWallS, int workers);

/** Fill the co-fallback shape line from engine counters. */
std::string coFallbackShape(const lkmm::Enumerator::Stats &s,
                            const lkmm::EngineConfig &engine);

} // namespace perfbench

#endif // LKMM_PERFBENCH_LAYERS_HH
