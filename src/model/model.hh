/**
 * @file
 * The consistency-model interface.
 *
 * An axiomatic model "determines whether candidate executions of a
 * program are allowed" (Section 2).  Implementations check the
 * axioms of one model against a CandidateExecution and, on
 * violation, report which axiom failed and a witness cycle — the
 * executable counterpart of the paper's "why forbidden"
 * explanations in Section 3.1.
 */

#ifndef LKMM_MODEL_MODEL_HH
#define LKMM_MODEL_MODEL_HH

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exec/execution.hh"
#include "relation/saturation.hh"

namespace lkmm
{

/** The reason a candidate execution is forbidden. */
struct Violation
{
    /** Name of the violated axiom (e.g. "hb", "pb", "rcu"). */
    std::string axiom;
    /** A witness cycle (event ids), when the axiom is a cyclicity. */
    std::vector<EventId> cycle;

    /** Render like "hb cycle: a -> b -> c". */
    std::string toString(const CandidateExecution &ex) const;
};

/** A memory-consistency model. */
class Model
{
  public:
    virtual ~Model() = default;

    /** Short name ("lkmm", "sc", "tso", "c11", "power", ...). */
    virtual std::string name() const = 0;

    /**
     * Check the model's axioms.
     *
     * @return nullopt when the execution is allowed, otherwise the
     *         first violated axiom.
     */
    virtual std::optional<Violation>
    check(const CandidateExecution &ex) const = 0;

    /** Convenience: allowed by this model? */
    bool
    allows(const CandidateExecution &ex) const
    {
        return !check(ex).has_value();
    }

    /**
     * Which communication axioms the rf-first engine may assume
     * when saturating coherence orders (rf_engine.hh).  Each set
     * flag is a soundness promise: check() rejects every execution
     * violating that axiom, under every configuration of the model.
     * The conservative default — no promises — keeps the engine
     * exact for unknown models at the cost of all pruning; builtins
     * override it, and CatModel derives it from its lowered
     * program (cat/classify.hh).
     */
    virtual rel::SaturationSupport
    saturationSupport() const
    {
        return {};
    }
};

/**
 * Builds a fresh instance of one model; invocable repeatedly.
 *
 * Factories are how the parallel verification engine gives every
 * worker its own Model instance (no shared mutable state); the
 * ModelRegistry (model/registry.hh) maps names to factories.
 */
using ModelFactory = std::function<std::unique_ptr<Model>()>;

/**
 * Check an acyclicity axiom, producing a witness on failure.
 *
 * Shared helper for every model implementation.
 */
std::optional<Violation>
requireAcyclic(const Relation &r, const std::string &axiom);

/** Check an irreflexivity axiom. */
std::optional<Violation>
requireIrreflexive(const Relation &r, const std::string &axiom);

/** Check an emptiness axiom. */
std::optional<Violation>
requireEmpty(const Relation &r, const std::string &axiom);

} // namespace lkmm

#endif // LKMM_MODEL_MODEL_HH
