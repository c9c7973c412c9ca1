#include "cat/classify.hh"

#include <vector>

namespace lkmm::cat
{

namespace
{

/** Guarantee bits: builtins an op's value provably contains. */
enum : unsigned
{
    G_POLOC = 1u << 0,
    G_RF = 1u << 1,
    G_CO = 1u << 2,
    G_FR = 1u << 3,
    G_COM = G_RF | G_CO | G_FR,
    G_ALL = G_POLOC | G_COM,
};

/** Is slot s a load of the builtin called name? */
bool
isLoad(const SlotProgram &p, Slot s, const char *name)
{
    const Op &op = p.ops[s];
    return op.kind == Op::Kind::Load && builtins()[op.aux].name == name;
}

/** Is slot s the bracket [M] or [_]? */
bool
isMemBracket(const SlotProgram &p, Slot s)
{
    const Op &op = p.ops[s];
    return op.kind == Op::Kind::Bracket &&
           (isLoad(p, op.a, "M") || isLoad(p, op.a, "_"));
}

/** Does slot s denote the builtin `external` or `base & ext`? */
bool
isExternalOf(const SlotProgram &p, Slot s, const char *external,
             const char *base)
{
    const Op &op = p.ops[s];
    return isLoad(p, s, external) ||
           (op.kind == Op::Kind::Inter &&
            ((isLoad(p, op.a, base) && isLoad(p, op.b, "ext")) ||
             (isLoad(p, op.b, base) && isLoad(p, op.a, "ext"))));
}

/** Does slot s denote rmw & (fre ; coe), in either order of &? */
bool
isAtomicity(const SlotProgram &p, Slot s)
{
    const Op &op = p.ops[s];
    auto isFreCoe = [&](Slot t) {
        const Op &seq = p.ops[t];
        return seq.kind == Op::Kind::Seq &&
               isExternalOf(p, seq.a, "fre", "fr") &&
               isExternalOf(p, seq.b, "coe", "co");
    };
    return op.kind == Op::Kind::Inter &&
           ((isLoad(p, op.a, "rmw") && isFreCoe(op.b)) ||
            (isLoad(p, op.b, "rmw") && isFreCoe(op.a)));
}

} // namespace

rel::SaturationSupport
classifyAxioms(const SlotProgram &program)
{
    // po ⊇ po-loc makes acyclic(po | com)-style models classify too.
    static const std::pair<const char *, unsigned> kLoads[] = {
        {"po-loc", G_POLOC}, {"po", G_POLOC}, {"com", G_COM},
        {"rf", G_RF},        {"co", G_CO},    {"fr", G_FR},
    };
    rel::SaturationSupport support;
    // Operands precede their op, so one forward pass suffices.
    std::vector<unsigned> g(program.ops.size(), 0);
    for (std::size_t i = 0; i < program.ops.size(); ++i) {
        const Op &op = program.ops[i];
        switch (op.kind) {
          case Op::Kind::Load:
            for (const auto &[name, bits] : kLoads) {
                if (isLoad(program, i, name))
                    g[i] = bits;
            }
            break;
          case Op::Kind::Union:
            g[i] = g[op.a] | g[op.b];
            break;
          case Op::Kind::Opt:
          case Op::Kind::Plus:
          case Op::Kind::Star:
            g[i] = g[op.a];
            break;
          case Op::Kind::Seq:
            // [M];x and x;[M] contain x ∩ (M × M), and every tracked
            // builtin relates memory events only.
            if (isMemBracket(program, op.a))
                g[i] = g[op.b];
            else if (isMemBracket(program, op.b))
                g[i] = g[op.a];
            break;
          case Op::Kind::Acyclic:
            support.coherence |= (g[op.a] & G_ALL) == G_ALL;
            break;
          case Op::Kind::Empty:
            support.atomicity |= isAtomicity(program, op.a);
            break;
          default:
            // Inter, Diff, Compl, Inverse, Product, Bracket, the
            // builtin functions and recursion: nothing provable
            // without semantic reasoning.
            break;
        }
    }
    return support;
}

} // namespace lkmm::cat
