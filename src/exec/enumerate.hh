/**
 * @file
 * Enumeration of the candidate executions of a litmus program.
 *
 * This is the herd core: for every combination of per-thread
 * control-flow paths, every reads-from assignment and every
 * per-location coherence order, build the candidate execution,
 * solve the value equations, and hand consistent candidates to the
 * caller.  Model axioms are *not* applied here; models filter the
 * stream (see src/model/model.hh), exactly as herd separates
 * candidate generation from cat-model checking.
 */

#ifndef LKMM_EXEC_ENUMERATE_HH
#define LKMM_EXEC_ENUMERATE_HH

#include <functional>
#include <vector>

#include "base/budget.hh"
#include "exec/execution.hh"
#include "litmus/program.hh"

namespace lkmm
{

/**
 * Engine selection, consumed by the runner (src/lkmm/runner.cc).
 *
 *  - rfFirst=true (default): the production engine, RfFirstEngine
 *    (rf_engine.hh).  It stages the derived relations per path
 *    combo and rf assignment, cuts value-infeasible rf prefixes,
 *    and derives coherence orders by saturation under the model's
 *    axioms instead of enumerating them.
 *  - rfFirst=false: the brute-force reference, Enumerator below.
 *    Every rf assignment is valuated in full and every rf×co
 *    candidate is rebuilt from scratch: the simplest code, kept as
 *    the oracle the conformance and engine-identity suites compare
 *    the production engine against.
 */
struct EnumerateOptions
{
    bool rfFirst = true;
};

/**
 * The brute-force reference enumerator: every rf assignment times
 * every per-location coherence permutation, each candidate built
 * from scratch.  Its stream is model-independent; RfFirstEngine
 * with an empty SaturationSupport yields the same candidates in the
 * same order.
 */
class Enumerator
{
  public:
    /**
     * Per-stage search counters, shared by both engines.
     *
     * Complete rf assignments are accounted exactly:
     *
     *   rfSpace = rfPruned + rfAssignments          (complete runs)
     *   rfAssignments = valuationRejects + rfConsistent
     *
     * and prefix pruning is sound: on the same program,
     * valuationRejects(brute) = valuationRejects(rf-first)
     * + rfPruned(rf-first) — every pruned assignment is one the full
     * valuation would have rejected.  The pruning counters
     * (rfPruned, coPruned, partialValuationRejects) and the
     * saturation counters are always zero for the brute engine.
     */
    struct Stats
    {
        std::size_t pathCombos = 0;
        /** Complete rf assignments in the search space (expanded). */
        std::size_t rfSpace = 0;
        std::size_t rfAssignments = 0;
        std::size_t valuationRejects = 0;
        /** Complete rf assignments that passed the full valuation. */
        std::size_t rfConsistent = 0;
        /**
         * Complete rf assignments skipped because a prefix was
         * provably infeasible (expanded subtree size).
         */
        std::size_t rfPruned = 0;
        /**
         * Candidates (co orders) of a delivered rf assignment that
         * were cut by an early stop — a tripped budget bound or a
         * callback that returned false — before being built.
         */
        std::size_t coPruned = 0;
        /** Number of infeasible-prefix cuts (prune events). */
        std::size_t partialValuationRejects = 0;
        std::size_t candidates = 0;

        // Saturation counters (rf-first engine only).
        // rfConsistent = rfSatRejects + delivered-rf count;
        // coFallbacks counts the delivered rfs whose forced order
        // was not total somewhere, i.e. the ones that needed
        // bounded co enumeration.

        /**
         * Consistent rf assignments rejected outright because
         * saturation derived a contradiction from the model's
         * communication axioms (every co extension is
         * model-rejected; no candidate was built).
         */
        std::size_t rfSatRejects = 0;
        /**
         * Forced co edges derived by saturation, beyond the
         * trivially-forced init edges, summed over rf assignments.
         */
        std::size_t coSatForced = 0;
        /**
         * Rf assignments the saturation could not fully decide: at
         * least one location's forced order was partial, so the
         * engine fell back to enumerating its linear extensions.
         */
        std::size_t coFallbacks = 0;
    };

    explicit Enumerator(const Program &prog) : prog_(prog) {}

    /**
     * Enumerate under a budget: the run stops at the first bound.
     * `opts` is accepted so callers can pass one options struct to
     * either engine; this class is always the brute reference.
     */
    Enumerator(const Program &prog, const RunBudget &budget,
               const EnumerateOptions & /*opts*/ = {})
        : prog_(prog), budget_(budget)
    {}

    /**
     * Visit every consistent candidate execution.
     *
     * A budgeted enumeration that trips a bound stops early and
     * reports Completeness::Truncated; the candidates delivered up
     * to that point are all valid.
     *
     * @param fn Called with each finalized candidate; return false
     *           to stop the enumeration early.
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
    Stats stats_;
    Completeness completeness_ = Completeness::Complete;
    BoundKind tripped_ = BoundKind::None;
};

} // namespace lkmm

#endif // LKMM_EXEC_ENUMERATE_HH
