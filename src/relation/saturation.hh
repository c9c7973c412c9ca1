/**
 * @file
 * Forced-coherence saturation: the fixpoint behind the rf-first
 * engine (src/exec/rf_engine.hh).
 *
 * Given one rf assignment, most of the coherence order is not a
 * free choice: the communication axioms every model in this tree
 * shares — coherence-per-location, acyclic(po-loc | rf | co | fr)
 * with fr = rf^-1;co, and atomicity, empty(rmw & (fre;coe)) — force
 * one direction of many write pairs.  saturateForcedCo derives the
 * forced edges as a fixpoint over the destination-passing kernels:
 *
 *  - coherence forcing: with C the transitive closure of
 *    po-loc | rf | co_forced | fr_forced, orienting a same-location
 *    write pair as co(b, a) adds only edges into `a` (b -> a, plus
 *    r -> a for every rf(b, r)); it closes a cycle — and is hence
 *    impossible in every axiom-satisfying extension — iff C(a, b)
 *    or C(a, r) for some r with rf(b, r).  An impossible direction
 *    forces the opposite one by per-location totality.
 *
 *  - atomicity forcing: for an rmw pair (r, w) reading from w0 and
 *    a same-location write w' external to both sides, the axiom
 *    forbids co(w0, w') together with co(w', w); either edge being
 *    forced therefore forces the other pair member's opposite.
 *
 * Both directions impossible, or the forced graph itself cyclic,
 * is a *contradiction*: no coherence order completing this rf
 * satisfies the axioms, so the whole rf assignment can be skipped
 * without looking at a single co permutation.  Every derivation is
 * sound (an induction over the rules keeps the invariant "each
 * forced edge belongs to every axiom-satisfying extension"), so the
 * rf-first engine built on top is exact: it only skips candidates
 * the model would reject anyway.  No completeness is claimed —
 * pairs the fixpoint leaves open are enumerated both ways by the
 * engine's bounded fallback, and the model decides.
 *
 * Which axioms may be assumed is the model's statement, carried by
 * SaturationSupport (Model::saturationSupport()); a model that
 * guarantees neither gets an empty forced order and the engine
 * degenerates to plain enumeration, still exact.
 */

#ifndef LKMM_RELATION_SATURATION_HH
#define LKMM_RELATION_SATURATION_HH

#include <cstddef>
#include <vector>

#include "relation/arena.hh"
#include "relation/relation.hh"

namespace lkmm::rel
{

/**
 * The communication axioms a model permits saturation to assume.
 * Each flag is a soundness promise about the model's check():
 * every execution violating that axiom is rejected.
 */
struct SaturationSupport
{
    /** The model rejects any cycle in po-loc | rf | co | fr. */
    bool coherence = false;
    /** The model rejects rmw & (fre ; coe) being nonempty. */
    bool atomicity = false;

    /** Can saturation derive anything at all? */
    bool any() const { return coherence; }
};

/** What one saturation run derived. */
struct SaturationResult
{
    /**
     * No coherence order completing this rf satisfies the assumed
     * axioms; the rf assignment is dead.  When set, the contents of
     * the forced relation are meaningless.
     */
    bool contradiction = false;
    /** Forced co edges beyond the always-forced init edges. */
    std::size_t forcedEdges = 0;
    /** Fixpoint rounds until stabilization. */
    std::size_t rounds = 0;
};

/**
 * Reusable intermediates of the fixpoint (the closure, fr, an
 * inverse scratch, and the per-event location and rf-source maps).
 * prepare() sizes them for a universe; the arena overload carves the
 * relation words from a RelationArena so the per-rf steady state
 * allocates nothing, mirroring the staged finalize.
 */
struct SaturationScratch
{
    Relation closure;
    Relation fr;
    Relation inv;
    /** writeLoc[w] = location index of write w. */
    std::vector<std::size_t> writeLoc;
    /** rfSrc[r] = the write read r reads from. */
    std::vector<EventId> rfSrc;

    void
    prepare(std::size_t n)
    {
        if (closure.size() != n) {
            closure = Relation(n);
            fr = Relation(n);
            inv = Relation(n);
        }
        writeLoc.resize(n);
        rfSrc.resize(n);
    }

    void
    prepare(RelationArena &arena, std::size_t n)
    {
        if (closure.size() != n || !closure.arenaBacked()) {
            closure = Relation(arena, n);
            fr = Relation(arena, n);
            inv = Relation(arena, n);
        }
        writeLoc.resize(n);
        rfSrc.resize(n);
    }
};

/**
 * Saturate the forced part of the coherence order for one rf.
 *
 * @param forcedCo   Out: the forced edges.  Must be sized to the
 *                   universe and empty on entry; on return it holds
 *                   the init edges (initWrites[l] before every
 *                   write of location l) plus every derived edge.
 * @param poLoc      Same-location program order.
 * @param rf         The rf assignment under consideration.
 * @param rmw        Read-to-write pairs of RMW operations.
 * @param intRel     Same-thread pairs (for fre/coe externality).
 * @param writesByLoc  Non-init write events per location.
 * @param initWrites   The init write event per location.
 * @param support    Which axioms the model lets us assume.  With
 *                   coherence unsupported nothing is derived and
 *                   only the init edges are emitted.
 * @param scratch    Prepared intermediates (see SaturationScratch).
 */
SaturationResult
saturateForcedCo(Relation &forcedCo, const Relation &poLoc,
                 const Relation &rf, const Relation &rmw,
                 const Relation &intRel,
                 const std::vector<std::vector<EventId>> &writesByLoc,
                 const std::vector<EventId> &initWrites,
                 SaturationSupport support, SaturationScratch &scratch);

namespace saturation_testing
{

/**
 * Fault hook for the seeded-bug ctest: force an extra, deliberately
 * unsound rule (same-location write pairs in different threads are
 * "forced" into event-id order) so the cross-engine oracles must
 * flag the divergence.  Also enabled by the LKMM_BREAK_SATURATION
 * environment variable, which is how the ctest reaches a CLI.
 */
void setBrokenRule(bool on);

/** Is the broken rule active (setter or environment)? */
bool brokenRule();

} // namespace saturation_testing

} // namespace lkmm::rel

#endif // LKMM_RELATION_SATURATION_HH
