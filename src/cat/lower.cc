#include "cat/lower.hh"

#include <algorithm>
#include <string_view>
#include <unordered_map>

#include "base/status.hh"

namespace lkmm::cat
{

namespace
{

using Ex = CandidateExecution;
using enum Stage;

template <Ann A>
void
annotated(const Ex &e, CatValue &v)
{
    v.set = e.withAnn(A);
}

/** Every predefined name; its stage is the witness it reads. */
const Builtin kBuiltins[] = {
    {"po", false, Static, [](const Ex &e, CatValue &v) { v.rel = e.po; }},
    {"addr", false, Static, [](const Ex &e, CatValue &v) { v.rel = e.addr; }},
    {"data", false, Static, [](const Ex &e, CatValue &v) { v.rel = e.data; }},
    {"ctrl", false, Static, [](const Ex &e, CatValue &v) { v.rel = e.ctrl; }},
    {"rmw", false, Static, [](const Ex &e, CatValue &v) { v.rel = e.rmw; }},
    {"int", false, Static,
     [](const Ex &e, CatValue &v) { v.rel = e.intRel(); }},
    {"ext", false, Static,
     [](const Ex &e, CatValue &v) { v.rel = e.extRel(); }},
    {"id", false, Static,
     [](const Ex &e, CatValue &v) {
         v.rel = Relation::identity(e.numEvents());
     }},
    {"crit", false, Static,
     [](const Ex &e, CatValue &v) { v.rel = e.crit(); }},
    {"rf", false, Rf, [](const Ex &e, CatValue &v) { v.rel = e.rf; }},
    {"rfi", false, Rf, [](const Ex &e, CatValue &v) { v.rel = e.rfi(); }},
    {"rfe", false, Rf, [](const Ex &e, CatValue &v) { v.rel = e.rfe(); }},
    {"loc", false, Rf, [](const Ex &e, CatValue &v) { v.rel = e.locRel(); }},
    {"po-loc", false, Rf,
     [](const Ex &e, CatValue &v) { v.rel = e.poLoc(); }},
    {"co", false, Co, [](const Ex &e, CatValue &v) { v.rel = e.co; }},
    {"fr", false, Co, [](const Ex &e, CatValue &v) { v.rel = e.fr(); }},
    {"coi", false, Co, [](const Ex &e, CatValue &v) { v.rel = e.coi(); }},
    {"coe", false, Co, [](const Ex &e, CatValue &v) { v.rel = e.coe(); }},
    {"fri", false, Co, [](const Ex &e, CatValue &v) { v.rel = e.fri(); }},
    {"fre", false, Co, [](const Ex &e, CatValue &v) { v.rel = e.fre(); }},
    {"com", false, Co, [](const Ex &e, CatValue &v) { v.rel = e.com(); }},
    {"_", true, Static, [](const Ex &e, CatValue &v) { v.set = e.all(); }},
    {"W", true, Static, [](const Ex &e, CatValue &v) { v.set = e.writes(); }},
    {"R", true, Static, [](const Ex &e, CatValue &v) { v.set = e.reads(); }},
    {"F", true, Static, [](const Ex &e, CatValue &v) { v.set = e.fences(); }},
    {"M", true, Static, [](const Ex &e, CatValue &v) { v.set = e.mem(); }},
    {"Once", true, Static, annotated<Ann::Once>},
    {"Acquire", true, Static, annotated<Ann::Acquire>},
    {"Release", true, Static, annotated<Ann::Release>},
    {"Rmb", true, Static, annotated<Ann::Rmb>},
    {"Wmb", true, Static, annotated<Ann::Wmb>},
    {"Mb", true, Static, annotated<Ann::Mb>},
    {"Rb-dep", true, Static, annotated<Ann::RbDep>},
    {"Rcu-lock", true, Static, annotated<Ann::RcuLock>},
    {"Rcu-unlock", true, Static, annotated<Ann::RcuUnlock>},
    {"Sync-rcu", true, Static, annotated<Ann::SyncRcu>},
};

constexpr const char *kNotRel = "expected a relation, got a set";

template <typename Node>
[[noreturn]] void
fail(const std::string &what, const Node &at)
{
    throw ParseError("cat: " + what, at.line, at.col, at.name);
}

class Lowerer
{
  public:
    SlotProgram
    run(const CatFile &file)
    {
        // Room for the shipped models: growth shows in load time.
        values_.reserve(128);
        prog_.ops.reserve(256);
        for (const CatStatement &st : file.statements) {
            if (st.kind != CatStatement::Kind::Let)
                check(st);
            else if (st.recursive)
                recGroup(st);
            else
                let(st);
        }
        return std::move(prog_);
    }

  private:
    /** Plain lets bind in order, so later bindings see earlier ones. */
    void
    let(const CatStatement &st)
    {
        for (const CatBinding &b : st.bindings) {
            if (!b.params.empty()) {
                funcs_[b.name] = &b;
                continue;
            }
            const Slot s = values_[b.name] = expr(*b.body);
            prog_.bindings.emplace_back(b.name, s);
        }
    }

    /**
     * A `let rec` group: its RecVar slots, bound before the bodies
     * are lowered, then the bodies, then one Fixpoint op.  Every op
     * of the group takes the group's stage, so the group is reused
     * or recomputed as a unit.
     */
    void
    recGroup(const CatStatement &st)
    {
        const Slot vars = groupVars_ = static_cast<Slot>(prog_.ops.size());
        std::vector<Slot> results;
        for (const CatBinding &b : st.bindings) {
            if (!b.params.empty())
                fail("function '" + b.name + "' cannot be recursive", b);
            values_[b.name] = push({Op::Kind::RecVar}, true);
        }
        for (const CatBinding &b : st.bindings) {
            recName_ = b.name;
            results.push_back(expr(*b.body));
            if (isSet(results.back()))
                fail("recursive definition of '" + b.name +
                         "' yields a set", b);
        }
        groupVars_ = kNone;

        // The RecVars still carry Static: the group's stage counts
        // what the bodies read, not the group's own names.
        Stage stage = Static;
        for (std::size_t i = vars; i < prog_.ops.size(); ++i)
            stage = std::max(stage, prog_.ops[i].stage);
        for (Slot r : results)
            stage = std::max(stage, prog_.ops[r].stage);
        push({Op::Kind::Fixpoint, false, stage, vars, vars,
              static_cast<std::uint32_t>(prog_.groups.size())});
        for (std::size_t i = vars; i < prog_.ops.size(); ++i)
            prog_.ops[i].stage = stage;
        for (std::size_t k = 0; k < st.bindings.size(); ++k)
            prog_.bindings.emplace_back(st.bindings[k].name, vars + k);
        prog_.groups.push_back(std::move(results));
    }

    /** A check's verdict is never reused: it is staged Co. */
    void
    check(const CatStatement &st)
    {
        using K = CatStatement::Kind;
        const Slot s = typed(*st.constraint, false);
        const Op::Kind kind = st.kind == K::Acyclic ? Op::Kind::Acyclic
                              : st.kind == K::Irreflexive
                                  ? Op::Kind::Irreflexive
                                  : Op::Kind::Empty;
        push({kind, false, Co, s, s,
              static_cast<std::uint32_t>(prog_.checkNames.size())});
        prog_.checkNames.push_back(st.checkName);
    }

    /**
     * Lower e, charging one step (see kMaxSteps) and one level of
     * recursion, calls included (see kMaxDepth).  A throw abandons
     * the whole lowering, so depth_ needs no unwinding.
     */
    Slot
    expr(const CatExpr &e)
    {
        if (++steps_ > kMaxSteps) {
            overLimit("model expands past " + std::to_string(kMaxSteps) +
                          " steps",
                      e);
        }
        if (++depth_ > kMaxDepth) {
            overLimit("expressions nest deeper than " +
                          std::to_string(kMaxDepth) + " levels",
                      e);
        }
        const Slot s = node(e);
        --depth_;
        return s;
    }

    Slot
    node(const CatExpr &e)
    {
        using K = CatExpr::Kind;
        const auto &args = e.args;
        switch (e.kind) {
          case K::Id:
            return lookup(e);
          case K::Union:
          case K::Inter:
          case K::Diff: {
            const Slot a = expr(*args[0]);
            const Slot b = expr(*args[1]);
            if (isSet(a) != isSet(b))
                fail(kNotRel, *args[isSet(a) ? 0 : 1]);
            if (e.kind == K::Diff && inGroup(b))
                notMonotone(e);
            return op(e.kind == K::Union   ? Op::Kind::Union
                      : e.kind == K::Inter ? Op::Kind::Inter
                                           : Op::Kind::Diff,
                      isSet(a), a, b);
          }
          case K::Seq: {
            const Slot a = typed(*args[0], false);
            return op(Op::Kind::Seq, false, a, typed(*args[1], false));
          }
          case K::Product: {
            const Slot a = typed(*args[0], true);
            return op(Op::Kind::Product, false, a, typed(*args[1], true));
          }
          case K::Compl: {
            const Slot a = expr(*args[0]);
            if (inGroup(a))
                notMonotone(e);
            return op(Op::Kind::Compl, isSet(a), a, a);
          }
          case K::Inverse: return unary(Op::Kind::Inverse, false, e);
          case K::Opt: return unary(Op::Kind::Opt, false, e);
          case K::Plus: return unary(Op::Kind::Plus, false, e);
          case K::Star: return unary(Op::Kind::Star, false, e);
          case K::Bracket: return unary(Op::Kind::Bracket, true, e);
          case K::Call: return call(e);
        }
        fail("unhandled expression", e);
    }

    /** Parameters of the expansions in progress, then lets, then builtins. */
    Slot
    lookup(const CatExpr &e)
    {
        if (auto it = values_.find(e.name); it != values_.end())
            return it->second;
        // A builtin loads on first reference; later ones share the slot.
        const std::span<const Builtin> table = builtins();
        for (std::uint32_t i = 0; i < table.size(); ++i) {
            const Builtin &b = table[i];
            if (e.name == b.name) {
                const Op load{Op::Kind::Load, b.isSet, b.stage, 0, 0, i};
                return values_[e.name] = push(load);
            }
        }
        fail("undefined identifier '" + e.name + "'", e);
    }

    Slot
    call(const CatExpr &e)
    {
        const bool builtin =
            e.name == "fencerel" || e.name == "domain" || e.name == "range";
        auto it = funcs_.find(e.name);
        if (!builtin && it == funcs_.end())
            fail("undefined function '" + e.name + "'", e);
        const std::size_t arity = builtin ? 1 : it->second->params.size();
        if (e.args.size() != arity) {
            fail("'" + e.name + "' takes " + std::to_string(arity) +
                     " argument(s), got " + std::to_string(e.args.size()),
                 e);
        }
        if (e.name == "fencerel")
            return unary(Op::Kind::Fencerel, true, e);
        if (builtin) {
            const Slot a = typed(*e.args[0], false);
            return op(e.name == "domain" ? Op::Kind::Domain : Op::Kind::Range,
                      true, a, a);
        }
        const CatBinding &fn = *it->second;
        for (const auto &[f, site] : expanding_) {
            if (f == &fn)
                fail("function '" + e.name + "' reaches itself", e);
        }

        std::vector<Slot> args;
        for (const CatExprPtr &arg : e.args)
            args.push_back(expr(*arg));
        // Bind each parameter over the name it shadows, so a lookup
        // costs one probe however many parameters are live.
        const std::size_t mark = shadowed_.size();
        for (std::size_t i = 0; i < args.size(); ++i) {
            const auto it = values_.find(fn.params[i]);
            shadowed_.emplace_back(
                fn.params[i], it == values_.end() ? kNone : it->second);
            values_[fn.params[i]] = args[i];
        }
        expanding_.emplace_back(&fn, &e);
        const Slot result = expr(*fn.body);
        expanding_.pop_back();
        for (; shadowed_.size() > mark; shadowed_.pop_back()) {
            const auto &[name, old] = shadowed_.back();
            if (old == kNone)
                values_.erase(name);
            else
                values_[name] = old;
        }
        return result;
    }

    /** Lower e, which must be a set (or a relation). */
    Slot
    typed(const CatExpr &e, bool set)
    {
        const Slot s = expr(e);
        if (isSet(s) != set)
            fail(set ? "expected a set, got a relation" : kNotRel, e);
        return s;
    }

    /** A relation-valued op over e's one operand of kind operandIsSet. */
    Slot
    unary(Op::Kind kind, bool operandIsSet, const CatExpr &e)
    {
        const Slot a = typed(*e.args[0], operandIsSet);
        return op(kind, false, a, a);
    }

    [[noreturn]] void
    notMonotone(const CatExpr &at)
    {
        fail("recursive definition of '" + recName_ +
                 "' is not monotone: a recursive name appears under '" +
                 at.name + "'",
             at);
    }

    bool isSet(Slot s) const { return prog_.ops[s].isSet; }

    /** Does slot s depend on the recursive names being lowered? */
    bool inGroup(Slot s) const { return s >= groupVars_ && recDep_[s]; }

    /** An op over a and b, staged by the later of their stages. */
    Slot
    op(Op::Kind kind, bool isSet, Slot a, Slot b)
    {
        const Stage stage = std::max(prog_.ops[a].stage, prog_.ops[b].stage);
        return push({kind, isSet, stage, a, b}, inGroup(a) || inGroup(b));
    }

    Slot
    push(const Op &op, bool dependsOnGroup = false)
    {
        prog_.ops.push_back(op);
        recDep_.push_back(dependsOnGroup);
        return static_cast<Slot>(prog_.ops.size() - 1);
    }

    /**
     * Blame the call the statement made, not the node deep inside the
     * expansion that happened to cross the limit.
     */
    [[noreturn]] void
    overLimit(const std::string &what, const CatExpr &at)
    {
        fail(what, expanding_.empty() ? at : *expanding_.front().second);
    }

    /** No group being lowered; no name under a parameter. */
    static constexpr Slot kNone = ~Slot{0};

    // Names view the CatFile, which outlives the lowering.
    SlotProgram prog_;
    /** Lets, loaded builtins and the parameters being expanded. */
    std::unordered_map<std::string_view, Slot> values_;
    std::unordered_map<std::string_view, const CatBinding *> funcs_;
    /** What each live parameter shadows (or kNone), innermost last. */
    std::vector<std::pair<std::string_view, Slot>> shadowed_;
    /** The functions being expanded, with their call sites. */
    std::vector<std::pair<const CatBinding *, const CatExpr *>> expanding_;
    /** Nodes lowered so far, a body once per expansion. */
    std::size_t steps_ = 0;
    /** Current expr() recursion depth, bounded by kMaxDepth. */
    std::size_t depth_ = 0;
    /** First RecVar slot of the group being lowered, or kNone. */
    Slot groupVars_ = kNone;
    /** Per slot: does it read a RecVar of the group being lowered? */
    std::vector<bool> recDep_;
    std::string recName_;
};

} // namespace

std::span<const Builtin>
builtins()
{
    return kBuiltins;
}

SlotProgram
lower(const CatFile &file)
{
    return Lowerer().run(file);
}

} // namespace lkmm::cat
