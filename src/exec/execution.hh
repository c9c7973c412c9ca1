/**
 * @file
 * Candidate executions (Section 2 of the paper).
 *
 * A candidate execution is an abstract execution
 * (E, po, addr, data, ctrl, rmw) — the per-thread semantics — plus
 * an execution witness (rf, co) — the inter-thread communications.
 * This class stores both, together with every derived relation the
 * models in src/model and the cat interpreter in src/cat need:
 * loc, int/ext, fr, com, the fence-pair relations (rmb, wmb, mb,
 * rb-dep), po-rel, acq-po, rfi-rel-acq, the RCU relations gp and
 * crit, and the final machine state.
 */

#ifndef LKMM_EXEC_EXECUTION_HH
#define LKMM_EXEC_EXECUTION_HH

#include <map>
#include <string>
#include <vector>

#include "exec/event.hh"
#include "litmus/program.hh"
#include "relation/arena.hh"
#include "relation/relation.hh"

namespace lkmm
{

/** A candidate execution of a litmus program. */
class CandidateExecution
{
  public:
    /** The originating program (not owned; outlives the execution). */
    const Program *program = nullptr;

    std::vector<Event> events;

    // Abstract execution ------------------------------------------
    Relation po;    ///< program order (transitive, per thread)
    Relation addr;  ///< address dependencies (from reads)
    Relation data;  ///< data dependencies (from reads)
    Relation ctrl;  ///< control dependencies (from reads)
    Relation rmw;   ///< read of an RMW to its write

    // Execution witness -------------------------------------------
    Relation rf;    ///< reads-from
    Relation co;    ///< coherence (total per location, init first)

    // Final state --------------------------------------------------
    std::vector<std::vector<Value>> finalRegs;
    std::vector<Value> finalMem;

    std::size_t numEvents() const { return events.size(); }

    /** Populate every derived relation; call once after filling in. */
    void finalize();

    // Arena backing -------------------------------------------------
    // The rf-first engine attaches its RelationArena before the
    // staged finalize; the stages then carve their derived
    // relations from it (reusing the same storage in place when a
    // stage reruns at the same universe size) instead of touching
    // the heap per candidate.  The attachment deliberately does not
    // survive copying: a copied execution owns heap storage for
    // every relation (Relation copies always escape the arena) and
    // must not keep allocating from a borrowed allocator it may
    // outlive.

    /** Use this arena for derived relations (nullptr = heap). */
    void attachArena(RelationArena *arena) { arena_.ptr = arena; }

    /** The attached arena, or nullptr when heap-backed. */
    RelationArena *arena() const { return arena_.ptr; }

    // Staged finalization -------------------------------------------
    // finalize() == finalizeStatic(); finalizeRf(); finalizeCo().
    // The rf-first engine uses the stages to share work: the static
    // stage depends only on events (kind/ann/tid) and the abstract
    // execution, so it runs once per path combo and is shared by
    // every candidate; the rf stage additionally needs
    // resolved event locations and rf; the co stage needs co.

    /**
     * Derived data that depends only on the events and the abstract
     * execution (po, deps): predefined sets, int/ext, the fence-pair
     * relations, po-rel/acq-po, and the RCU relations.
     */
    void finalizeStatic();

    /**
     * Derived data that additionally needs resolved event locations
     * and the rf witness: loc, po-loc, rfi/rfe, rfi-rel-acq.
     */
    void finalizeRf();

    /**
     * Derived data that additionally needs the co witness: fr, com,
     * the internal/external splits of co and fr, and finalMem.
     */
    void finalizeCo();

    // Predefined sets ----------------------------------------------
    const EventSet &reads() const { return reads_; }
    const EventSet &writes() const { return writes_; }
    const EventSet &fences() const { return fences_; }
    /** Memory events: reads and writes. */
    const EventSet &mem() const { return mem_; }
    /** Universe. */
    const EventSet &all() const { return all_; }

    /** Events with the given annotation. */
    const EventSet &withAnn(Ann a) const;

    // Predefined relations -----------------------------------------
    /** Same resolved location (memory events only). */
    const Relation &locRel() const { return loc_; }
    /** Same (real) thread. */
    const Relation &intRel() const { return int_; }
    /** Different threads: ~int. */
    const Relation &extRel() const { return ext_; }

    // Derived communication relations -------------------------------
    const Relation &fr() const { return fr_; }
    const Relation &com() const { return com_; }
    const Relation &poLoc() const { return poLoc_; }
    const Relation &rfi() const { return rfi_; }
    const Relation &rfe() const { return rfe_; }
    const Relation &coe() const { return coe_; }
    const Relation &coi() const { return coi_; }
    const Relation &fre() const { return fre_; }
    const Relation &fri() const { return fri_; }

    // Fence-pair relations (Section 3.1 auxiliary relations) --------
    /** Reads separated by smp_rmb: [R]; fencerel(rmb); [R]. */
    const Relation &rmbRel() const { return rmb_; }
    /** Writes separated by smp_wmb. */
    const Relation &wmbRel() const { return wmb_; }
    /** Memory events separated by smp_mb. */
    const Relation &mbRel() const { return mb_; }
    /** Reads separated by smp_read_barrier_depends. */
    const Relation &rbDepRel() const { return rbDep_; }
    /** po ∩ (M × Release): ordering into a release. */
    const Relation &poRel() const { return poRel_; }
    /** po ∩ (Acquire × M): ordering out of an acquire. */
    const Relation &acqPo() const { return acqPo_; }
    /** rfi ∩ (Release × Acquire). */
    const Relation &rfiRelAcq() const { return rfiRelAcq_; }

    // RCU relations (Section 4) --------------------------------------
    /** gp := (po ∩ (_ × Sync)); po?. */
    const Relation &gp() const { return gp_; }
    /** Outermost rcu_read_lock to its matching rcu_read_unlock. */
    const Relation &crit() const { return crit_; }
    /** rscs := po; crit^-1; po?. */
    const Relation &rscs() const { return rscs_; }

    /**
     * Generic herd-style fence relation:
     * (po ∩ (_ × F[a])); po, i.e. pairs with an a-annotated fence
     * po-between them.
     */
    Relation fenceRel(Ann a) const;

    /** True when the final state satisfies the program's condition. */
    bool satisfiesCondition() const;

    /** Multi-line description for diagnostics and the examples. */
    std::string toString() const;

    /** Compact final-state string like "1:r1=1; 1:r2=0;". */
    std::string finalStateString() const;

  private:
    /** Non-owning arena handle that never propagates to copies. */
    struct ArenaRef
    {
        RelationArena *ptr = nullptr;
        ArenaRef() = default;
        ArenaRef(const ArenaRef &) noexcept {}
        ArenaRef &operator=(const ArenaRef &) noexcept
        {
            return *this;
        }
        ArenaRef(ArenaRef &&o) noexcept : ptr(o.ptr)
        {
            o.ptr = nullptr;
        }
        ArenaRef &
        operator=(ArenaRef &&o) noexcept
        {
            ptr = o.ptr;
            o.ptr = nullptr;
            return *this;
        }
    };

    /**
     * Make `r` a writable destination over n events: reuse its
     * storage when already the right size (the kernels overwrite
     * every word), else allocate — from the arena when attached.
     */
    void ensureRel(Relation &r, std::size_t n);

    /**
     * Arena path of the static stage: dst = [dom]; fencerel(a);
     * [rng], fused row passes through scratchA_, no temporaries.
     */
    void fenceRelInto(Relation &dst, Ann a, const EventSet &dom,
                      const EventSet &rng);

    ArenaRef arena_;

    /** Reused intermediates for the arena-path staged finalize. */
    Relation scratchA_, scratchB_;

    EventSet reads_, writes_, fences_, mem_, all_;
    std::map<Ann, EventSet> byAnn_;

    Relation loc_, int_, ext_;
    Relation rfInv_; ///< rf^-1, fixed per rf stage; feeds fr in co
    Relation fr_, com_, poLoc_;
    Relation rfi_, rfe_, coe_, coi_, fre_, fri_;
    Relation rmb_, wmb_, mb_, rbDep_, poRel_, acqPo_, rfiRelAcq_;
    Relation gp_, crit_, rscs_;

    /**
     * fenceRel(a) depends only on po and the annotation sets, so it
     * is stable from finalizeStatic() on; models call it repeatedly
     * per candidate, so cache per annotation.  Lazily filled from a
     * const accessor, like withAnn(); executions are not shared
     * across threads.
     */
    mutable std::map<Ann, Relation> fenceRelCache_;
};

} // namespace lkmm

#endif // LKMM_EXEC_EXECUTION_HH
