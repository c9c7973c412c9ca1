/**
 * @file
 * The engine-neutral core of candidate enumeration.
 *
 * Both enumeration engines — the brute-force Enumerator
 * (enumerate.hh) and the rf-first engine (rf_engine.hh) — walk the
 * same search: lay out each path combo as events, walk the rf
 * assignments depth-first, solve the value equations, build the
 * abstract-execution relations, and build co from one write order
 * per location.  This header is that shared walk, extracted so the
 * engines cannot drift apart on it: a divergence in rf-candidate
 * pruning or valuation would silently break the cross-engine
 * identity the conformance and engine-identity suites enforce.  The
 * engines differ only in what they do per consistent rf: brute
 * rebuilds every co permutation from scratch, rf-first stages the
 * derived relations and lets saturation pick the co orders.
 */

#ifndef LKMM_EXEC_ENUM_CORE_HH
#define LKMM_EXEC_ENUM_CORE_HH

#include <functional>
#include <optional>
#include <vector>

#include "base/budget.hh"
#include "exec/enumerate.hh"
#include "exec/execution.hh"
#include "exec/unroll.hh"
#include "litmus/program.hh"

namespace lkmm::enumcore
{

constexpr std::size_t NO_EVENT = static_cast<std::size_t>(-1);

/** A path combination laid out as events, before rf/co choices. */
struct Layout
{
    const Program *prog;
    /** Chosen path per thread. */
    std::vector<const ThreadPath *> paths;
    /** All events; init writes first, then threads in order. */
    std::vector<Event> events;
    /** eventOf[t][item] = event id, or SIZE_MAX for non-events. */
    std::vector<std::vector<std::size_t>> eventOf;
    /** Statically-known location per event (or -1). */
    std::vector<LocId> staticLoc;
    /** Event ids of all reads (enumeration order). */
    std::vector<EventId> readIds;
    /** Event ids of all writes, including init. */
    std::vector<EventId> writeIds;
};

Layout layOut(const Program &prog,
              const std::vector<const ThreadPath *> &paths);

/** Result of the valuation fixpoint for one rf assignment. */
struct Valuation
{
    bool consistent = false;
    /** Resolved location per event (-1 for fences). */
    std::vector<LocId> loc;
    /** Resolved value per memory event. */
    std::vector<Value> value;
    /** Final register values per thread. */
    std::vector<std::vector<Value>> finalRegs;
};

/**
 * Scratch vectors of the valuation walks.  forEachConsistentRf
 * reuses one instance across every rf assignment of a layout
 * (assign() keeps the capacity, so the steady state allocates
 * nothing).
 */
struct ValuateScratch
{
    std::vector<std::optional<Value>> evValue;
    std::vector<EventId> rfOf;
    std::vector<std::optional<Value>> env;
    /** partialFeasible's location column (valuate uses val.loc). */
    std::vector<LocId> loc;
};

/**
 * Solve the value equations for a given rf choice.
 *
 * Iterates per-thread walks until no event value or location
 * becomes newly known; any write value still unknown afterwards
 * sits on a dependency cycle through rf, and is resolved to 0 (the
 * "out-of-thin-air zero" rule; see DESIGN.md).  A final
 * verification walk then checks branch outcomes, location agreement
 * between each read and its rf source, and expression consistency.
 */
void valuate(const Layout &lay, const std::vector<EventId> &rfSrc,
             Valuation &val, ValuateScratch &ws);

/**
 * Is a partial rf assignment (sources chosen for the first
 * `numAssigned` reads, in readIds order) still completable?
 *
 * Runs the same monotone fixpoint as valuate() with the unassigned
 * reads left unknown; see enum_core.cc for the soundness argument.
 * Returns true when no forced violation exists (the prefix may
 * still fail the full valuation once completed).
 */
bool partialFeasible(const Layout &lay,
                     const std::vector<EventId> &rfSrc,
                     std::size_t numAssigned, ValuateScratch &ws);

/**
 * Fill in the parts of an execution that depend only on the layout:
 * the events and the abstract-execution relations.  Valid for every
 * rf/co choice of the path combo.
 */
void buildStaticRelations(const Layout &lay, CandidateExecution &ex);

/** Stamp a solved rf assignment onto a statically-built execution. */
void applyValuation(const Layout &lay, const Valuation &val,
                    const std::vector<EventId> &rfSrc,
                    CandidateExecution &ex);

/** Build the abstract-execution relations (static + valuation). */
void buildRelations(const Layout &lay, const Valuation &val,
                    const std::vector<EventId> &rfSrc,
                    CandidateExecution &ex);

/**
 * Candidate rf sources per read, pruned by static locations and by
 * intra-thread order: reading a po-later write of one's own thread
 * violates sc-per-variable in every model this repository ships, so
 * such candidates are never useful (herd prunes identically).
 * forEachConsistentRf applies it for both engines, so their rf
 * spaces agree.
 */
std::vector<std::vector<EventId>> rfCandidates(const Layout &lay);

/**
 * Does the partial-prefix check have anything to cut on?  It can
 * only ever fire on a forced Check violation, a forced-bad address,
 * or a forced location mismatch; with all-static locations and no
 * Check items none of those exist and the check is pure overhead.
 */
bool canPartialReject(const Layout &lay);

/**
 * The outer loop of both engines: lay out every combination of
 * per-thread control-flow paths in turn.  Polls the tracker's
 * deadline and cancel token before each combo and counts it in
 * stats.pathCombos.
 *
 * @return false when `fn` returned false or the tracker tripped.
 */
bool forEachLayout(const Program &prog, BudgetTracker &tracker,
                   Enumerator::Stats &stats,
                   const std::function<bool(const Layout &)> &fn);

/** Called per consistent rf: the sources (readIds order), solved. */
using RfVisitor = std::function<bool(const std::vector<EventId> &rfSrc,
                                     const Valuation &val)>;

/**
 * Walk the rf assignments of one layout depth-first, in
 * rfCandidates order.  Each complete assignment is charged to the
 * tracker's rf bound, valuated and counted; `fn` sees the
 * consistent ones.  With `prune`, a proper prefix partialFeasible()
 * refutes is cut, its subtree accounted in whole complete
 * assignments (rfPruned) so the Enumerator::Stats identities hold.
 *
 * @return false when `fn` returned false or the tracker tripped.
 */
bool forEachConsistentRf(const Layout &lay, bool prune,
                         BudgetTracker &tracker, Enumerator::Stats &stats,
                         const RfVisitor &fn);

/** Non-init writes per resolved location, each list ascending. */
void groupWritesByLoc(const Layout &lay, const Valuation &val,
                      std::vector<std::vector<EventId>> &byLoc);

/**
 * The candidate orders of one location's k non-init writes, stored
 * back to back in `flat` so refilling them per rf keeps capacity.
 */
struct LocOrders
{
    std::size_t k = 0;
    std::vector<EventId> flat;

    void
    reset(std::size_t writes)
    {
        k = writes;
        flat.clear();
    }

    /** Number of orders; a location without writes has one, empty. */
    std::size_t count() const { return k == 0 ? 1 : flat.size() / k; }
};

/** Candidate write orders per location (index = location). */
using CoOrders = std::vector<LocOrders>;

/**
 * Visit the cross product of per-location write orders, location 0
 * outermost.  Each pick becomes co — the location's init write
 * before its writes, then the order's pairs — built in `stack`
 * (orders.size() + 1 relations sized to the universe, rewritten in
 * place per tree node) and passed to `fn`.
 *
 * @return false when `fn` returned false.
 */
bool forEachCo(const CoOrders &orders, std::vector<Relation> &stack,
               const std::function<bool(const Relation &co)> &fn);

} // namespace lkmm::enumcore

#endif // LKMM_EXEC_ENUM_CORE_HH
