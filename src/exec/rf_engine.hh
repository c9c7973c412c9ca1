/**
 * @file
 * The reads-from-first enumeration engine: the production engine.
 *
 * The brute-force reference (enumerate.hh) materializes every
 * coherence permutation of every consistent rf assignment —
 * exponential in the writes per location, which is exactly what
 * blows up on 4+ thread tests.  Following the reads-from-first
 * approach of Tunç et al. (PAPERS.md), this engine enumerates rf
 * assignments only and lets the model's communication axioms
 * decide most of co:
 *
 *  1. per path combo, the po-derived relations are built once into
 *     an arena-backed base execution; rf prefixes that are provably
 *     value-infeasible are cut without materializing their
 *     subtrees;
 *  2. per consistent rf, the rf-derived stage is finalized once and
 *     the forced part of co is saturated (relation/saturation.hh)
 *     under the axioms the model declares through
 *     Model::saturationSupport();
 *  3. a contradiction kills the whole rf — no co order is built,
 *     because every one of them would be model-rejected;
 *  4. otherwise only the linear extensions of the forced partial
 *     order are enumerated (the bounded fallback; often exactly
 *     one), each finalizing only the co-derived stage, and handed
 *     to the caller exactly like any other candidate.
 *
 * Saturation is skipped when no location of the rf assignment has
 * two or more non-init writes: co is then unique, and its one
 * candidate goes to the model, which decides it as exactly as a
 * saturation contradiction would.
 *
 * Exactness: the engine's stream is a subset of the brute stream,
 * and every skipped candidate is one the model rejects, so verdicts,
 * allowed candidates, witnesses and allowed final states are
 * identical to brute under any model whose saturationSupport()
 * promises are true — the engine-identity and conformance suites
 * enforce this.  Raw candidate counts depend on the model by design.
 * With an empty SaturationSupport the forced order is empty and the
 * stream is the brute stream: the same candidates in the same order.
 */

#ifndef LKMM_EXEC_RF_ENGINE_HH
#define LKMM_EXEC_RF_ENGINE_HH

#include <functional>
#include <vector>

#include "base/budget.hh"
#include "exec/enumerate.hh"
#include "exec/execution.hh"
#include "litmus/program.hh"
#include "relation/saturation.hh"

namespace lkmm
{

/** Enumerates candidate executions, coherence decided by saturation. */
class RfFirstEngine
{
  public:
    /** Shares the brute engine's counter block (plus rfSat*). */
    using Stats = Enumerator::Stats;

    /** `opts` is accepted for symmetry with Enumerator; unused. */
    RfFirstEngine(const Program &prog, const RunBudget &budget,
                  const EnumerateOptions & /*opts*/,
                  rel::SaturationSupport support)
        : prog_(prog), budget_(budget), support_(support)
    {}

    /**
     * Visit every candidate execution the model could accept; same
     * contract as Enumerator::forEach (return false to stop early;
     * a tripped budget reports Completeness::Truncated).
     */
    void forEach(const std::function<bool(const CandidateExecution &)> &fn);

    /** Collect all candidates (convenience for tests). */
    std::vector<CandidateExecution> all();

    const Stats &stats() const { return stats_; }

    /** Did the last forEach() see the whole search space? */
    Completeness completeness() const { return completeness_; }

    /** The bound that truncated the last forEach(), if any. */
    BoundKind trippedBound() const { return tripped_; }

  private:
    const Program &prog_;
    RunBudget budget_;
    rel::SaturationSupport support_;
    Stats stats_;
    Completeness completeness_ = Completeness::Complete;
    BoundKind tripped_ = BoundKind::None;
    /**
     * Word storage for the staged derived relations: fully reset at
     * each path-combo boundary — the static-stage lifetime — while
     * the rf- and co-stage relations reuse their allocations in
     * place across reruns (see CandidateExecution::ensureRel), so
     * the steady state allocates nothing per candidate.  One arena
     * per engine; parallel sweeps hold one engine per worker.
     */
    RelationArena arena_;
};

} // namespace lkmm

#endif // LKMM_EXEC_RF_ENGINE_HH
