/**
 * @file
 * Classification of a lowered cat program for the rf-first engine:
 * which of its saturation axioms does this model provably enforce?
 *
 * The engine (exec/rf_engine.hh) may assume an axiom only when the
 * model rejects every execution violating it, so the analysis is a
 * one-sided superset check and unconditionally conservative.  It
 * reads the program check() runs (cat/lower.hh): names are resolved
 * and calls expanded, so a let that shadows a builtin is that let.
 *
 *  - coherence: some `acyclic e` with e ⊇ po-loc | rf | co | fr.
 *    One forward pass gives each op the builtins it provably
 *    contains: loads (po counts as po-loc), unions, closures (e?,
 *    e+, e*) of their body, and [M];x;[M] framing of x, since every
 *    tracked builtin relates memory events only.
 *
 *  - atomicity: some `empty e` with e = rmw & (fre ; coe) in either
 *    order of &, where fre and coe may be fr & ext and co & ext.
 *
 * A false negative only costs pruning (the engine still enumerates
 * exactly); a false positive would cost soundness, which is why
 * only these whitelisted shapes are accepted.
 */

#ifndef LKMM_CAT_CLASSIFY_HH
#define LKMM_CAT_CLASSIFY_HH

#include "cat/lower.hh"
#include "relation/saturation.hh"

namespace lkmm::cat
{

/** Derive the saturation promises this cat program supports. */
rel::SaturationSupport classifyAxioms(const SlotProgram &program);

} // namespace lkmm::cat

#endif // LKMM_CAT_CLASSIFY_HH
