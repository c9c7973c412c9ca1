/**
 * @file
 * Lowering of a parsed cat file into a flat slot program.
 *
 * Cat is a relational algebra with least fixpoints [Alglave-Cousot-
 * Maranget 2016], so a model can be resolved, typed and staged once,
 * at load.  lower() turns a CatFile into a SlotProgram whose op i
 * computes slot i from earlier slots; no identifier or call is left.
 * Names resolve as in the shipped models: later lets shadow earlier
 * names, values and functions are separate namespaces, and
 * fencerel/domain/range come before user functions.  A call expands
 * the body inline; the arguments are lowered in the caller's scope,
 * and so are the body's free names (dynamic scoping).
 *
 * Every slot has a kind, set or relation, and every op a stage: the
 * builtin's own for a load, else the highest stage of its operands.
 * A `let rec` group is one fixpoint, staged by what its bodies read
 * besides the group's own names.  A model that could crash, hang or
 * fail at check time throws ParseError here, at the offending token:
 * an undefined name, a wrong arity, a function that reaches itself,
 * a kind mismatch, a function or a set in `let rec`, a recursive
 * name under `~` or right of `\`, more than kMaxSteps steps, or
 * expressions nested deeper than kMaxDepth through calls.  With only
 * monotone operators on a recursive name, every fixpoint stops within
 * n^2 rounds per binding.
 */

#ifndef LKMM_CAT_LOWER_HH
#define LKMM_CAT_LOWER_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cat/ast.hh"
#include "exec/execution.hh"

namespace lkmm::cat
{

/** A cat value: a set of events or a relation. */
struct CatValue
{
    enum class Kind
    {
        Set,
        Rel,
    };

    Kind kind = Kind::Rel;
    EventSet set;
    Relation rel;
};

/**
 * Which witness a value depends on: Static values are functions of
 * the abstract execution (events, po, dependencies), Rf values also
 * of rf and the resolved locations, Co values of co.
 */
enum class Stage : std::uint8_t
{
    Static,
    Rf,
    Co,
};

/** One predefined name of the initial scope. */
struct Builtin
{
    std::string_view name;
    bool isSet;
    Stage stage;
    /** Copy this builtin's value for ex into dst. */
    void (*load)(const CandidateExecution &ex, CatValue &dst);
};

/** The builtins every cat file starts with (21 relations, 15 sets). */
std::span<const Builtin> builtins();

/** Index of a program slot; op i writes slot i. */
using Slot = std::uint32_t;

/** One instruction of a lowered program; it writes its own slot. */
struct Op
{
    enum class Kind : std::uint8_t
    {
        Load, ///< builtins()[aux]
        // The algebra, as CatExpr::Kind; the first four on sets or on
        // relations, as isSet says.
        Union, Inter, Diff, Compl, Seq, Product, Inverse, Opt, Plus,
        Star, Bracket, Fencerel, Domain, Range,
        RecVar,   ///< a `let rec` name; starts empty
        Fixpoint, ///< iterates RecVars a.. to groups[aux]
        // Checks of slot a, named checkNames[aux].
        Acyclic, Irreflexive, Empty,
    };

    Kind kind;
    bool isSet = false; ///< the kind of this op's slot
    Stage stage = Stage::Static;
    Slot a = 0; ///< operands
    Slot b = 0;
    std::uint32_t aux = 0;
};

/** A lowered cat file. */
struct SlotProgram
{
    std::vector<Op> ops;
    /**
     * Per `let rec` group, the slot of each binding's body.  The
     * group's RecVars start at its Fixpoint op's slot a; the body
     * ops run from after them up to the Fixpoint op.
     */
    std::vector<std::vector<Slot>> groups;
    std::vector<std::string> checkNames;
    /** Top-level value bindings in definition order. */
    std::vector<std::pair<std::string, Slot>> bindings;
};

/**
 * Lowering fails past this many steps.  Every expression node lowered
 * is one step, a function's body once per expansion, so a doubling
 * chain of calls fails fast whether its bodies push ops or only
 * forward their parameters, and the ops, the parameter bindings and
 * the name lookups of one load all stay within the bound.
 */
constexpr std::size_t kMaxSteps = std::size_t{1} << 16;

/**
 * Expressions may nest this deep once calls are expanded, as deep as
 * the parser lets one expression nest.  It bounds the lowering's
 * recursion, so a long chain of forwarding functions cannot overflow
 * the stack.
 */
constexpr std::size_t kMaxDepth = 200;

/** Lower a parsed cat file; throws ParseError on a bad model. */
SlotProgram lower(const CatFile &file);

} // namespace lkmm::cat

#endif // LKMM_CAT_LOWER_HH
