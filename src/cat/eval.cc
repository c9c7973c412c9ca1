#include "cat/eval.hh"

#include <algorithm>
#include <tuple>

#include "base/faultinject.hh"
#include "cat/classify.hh"
#include "cat/parser.hh"
#include "relation/kernels.hh"

namespace lkmm
{

using cat::CatValue;
using cat::Op;
using cat::SlotProgram;

struct CatModel::Frame
{
    explicit Frame(const SlotProgram &p) : slots(p.ops.size()) {}

    std::vector<CatValue> slots;

    // Static ops before staticUpTo hold their values for executions
    // with these static inputs (the predefined sets, int, ext, id
    // and crit are functions of them); Rf ops before rfUpTo also
    // need this rf and these locations.
    std::size_t staticUpTo = 0;
    std::size_t rfUpTo = 0;
    std::vector<std::tuple<EvKind, Ann, int>> events;
    Relation po, addr, data, ctrl, rmw, rf;
    std::vector<LocId> locs;

    /** Drop the reuse that ex's inputs no longer match; key on ex. */
    void
    rekey(const CandidateExecution &ex)
    {
        const bool sameStatic =
            events.size() == ex.events.size() &&
            std::equal(events.begin(), events.end(), ex.events.begin(),
                       [](const auto &k, const Event &e) {
                           return k == std::tuple(e.kind, e.ann, e.tid);
                       }) &&
            po == ex.po && addr == ex.addr && data == ex.data &&
            ctrl == ex.ctrl && rmw == ex.rmw;
        if (!sameStatic) {
            staticUpTo = 0;
            events.clear();
            for (const Event &e : ex.events)
                events.emplace_back(e.kind, e.ann, e.tid);
            po = ex.po;
            addr = ex.addr;
            data = ex.data;
            ctrl = ex.ctrl;
            rmw = ex.rmw;
        } else if (rf == ex.rf &&
                   std::equal(locs.begin(), locs.end(), ex.events.begin(),
                              [](LocId l, const Event &e) {
                                  return l == e.loc;
                              })) {
            return;
        }
        rfUpTo = 0;
        locs.clear();
        for (const Event &e : ex.events)
            locs.push_back(e.loc);
        rf = ex.rf;
    }

    /**
     * Run the program over ex, skipping the ops whose inputs still
     * match.  With stopAtViolation the run ends at the first failing
     * check, and the ops after it are not reused until computed.
     */
    std::optional<Violation>
    run(const SlotProgram &p, const CandidateExecution &ex,
        bool stopAtViolation)
    {
        rekey(ex);
        std::optional<Violation> first;
        std::size_t i = 0;
        for (; i < p.ops.size() && !(first && stopAtViolation); ++i) {
            const cat::Stage stage = p.ops[i].stage;
            if ((stage == cat::Stage::Static && i < staticUpTo) ||
                (stage == cat::Stage::Rf && i < rfUpTo)) {
                continue;
            }
            std::optional<Violation> v = exec(p, ex, i);
            if (v && !first)
                first = std::move(v);
        }
        staticUpTo = std::max(staticUpTo, i);
        rfUpTo = std::max(rfUpTo, i);
        return first;
    }

    std::optional<Violation>
    exec(const SlotProgram &p, const CandidateExecution &ex,
         std::size_t i)
    {
        const Op &op = p.ops[i];
        const std::size_t n = ex.numEvents();
        CatValue &d = slots[i];
        d.kind = op.isSet ? CatValue::Kind::Set : CatValue::Kind::Rel;
        if (!op.isSet && d.rel.size() != n)
            d.rel = Relation(n);
        Relation &r = d.rel;
        const CatValue &a = slots[op.a];
        const CatValue &b = slots[op.b];
        switch (op.kind) {
          case Op::Kind::Load:
            cat::builtins()[op.aux].load(ex, d);
            break;
          case Op::Kind::Union:
            if (op.isSet)
                d.set = a.set | b.set;
            else
                rel::unionInto(r, a.rel, b.rel);
            break;
          case Op::Kind::Inter:
            if (op.isSet)
                d.set = a.set & b.set;
            else
                rel::intersectInto(r, a.rel, b.rel);
            break;
          case Op::Kind::Diff:
            if (op.isSet)
                d.set = a.set - b.set;
            else
                rel::differenceInto(r, a.rel, b.rel);
            break;
          case Op::Kind::Compl:
            if (op.isSet)
                d.set = ~a.set;
            else
                rel::complementInto(r, a.rel);
            break;
          case Op::Kind::Seq:
            rel::composeInto(r, a.rel, b.rel);
            break;
          case Op::Kind::Product:
            r = Relation::product(a.set, b.set);
            break;
          case Op::Kind::Inverse:
            rel::inverseInto(r, a.rel);
            break;
          case Op::Kind::Opt:
          case Op::Kind::Plus:
          case Op::Kind::Star:
            rel::copyInto(r, a.rel);
            if (op.kind != Op::Kind::Opt)
                rel::closureInPlace(r);
            for (EventId e = 0; op.kind != Op::Kind::Plus && e < n; ++e)
                r.add(e, e);
            break;
          case Op::Kind::Bracket:
            rel::clear(r);
            for (EventId e : a.set.members())
                r.add(e, e);
            break;
          case Op::Kind::Fencerel: // (po & (_ * S)) ; po
            rel::composeInto(r, ex.po.restrictRange(a.set), ex.po);
            break;
          case Op::Kind::Domain:
          case Op::Kind::Range:
            d.set = op.kind == Op::Kind::Domain ? a.rel.domain()
                                                : a.rel.range();
            break;
          case Op::Kind::RecVar:
            rel::clear(r);
            break;
          case Op::Kind::Fixpoint:
            fixpoint(p, ex, i);
            break;
          case Op::Kind::Acyclic:
            return requireAcyclic(a.rel, p.checkNames[op.aux]);
          case Op::Kind::Irreflexive:
            return requireIrreflexive(a.rel, p.checkNames[op.aux]);
          case Op::Kind::Empty:
            return requireEmpty(a.rel, p.checkNames[op.aux]);
        }
        return std::nullopt;
    }

    /**
     * The group's bodies have run once from empty RecVars; feed each
     * body back into its name and rerun them until nothing changes.
     * Only monotone operators reach a RecVar (cat/lower.hh), so the
     * values only grow: at most n^2 rounds per name.
     */
    void
    fixpoint(const SlotProgram &p, const CandidateExecution &ex,
             std::size_t at)
    {
        const std::vector<cat::Slot> &results = p.groups[p.ops[at].aux];
        const std::size_t vars = p.ops[at].a;
        for (;;) {
            bool changed = false;
            for (std::size_t k = 0; k < results.size(); ++k) {
                Relation &var = slots[vars + k].rel;
                if (!(var == slots[results[k]].rel)) {
                    rel::copyInto(var, slots[results[k]].rel);
                    changed = true;
                }
            }
            if (!changed)
                return;
            for (std::size_t i = vars + results.size(); i < at; ++i)
                exec(p, ex, i);
        }
    }
};

CatModel::CatModel(const cat::CatFile &file,
                   const std::string &fallbackName)
    : name_(file.modelName.empty() ? fallbackName : file.modelName),
      program_(std::make_shared<const SlotProgram>(cat::lower(file))),
      support_(cat::classifyAxioms(*program_))
{}

CatModel::CatModel(const CatModel &other)
    : name_(other.name_), program_(other.program_),
      support_(other.support_)
{}

CatModel::~CatModel() = default;

CatModel
CatModel::fromSource(const std::string &source, const std::string &name)
{
    return CatModel(cat::parseCat(source), name);
}

CatModel
CatModel::fromFile(const std::string &path)
{
    return CatModel(cat::parseCatFile(path), path);
}

std::optional<Violation>
CatModel::check(const CandidateExecution &ex) const
{
    faultinject::checkSite(faultinject::site::kCatEval, name_.c_str());
    std::unique_ptr<Frame> frame;
    {
        std::lock_guard<std::mutex> lock(poolMutex_);
        if (!pool_.empty()) {
            frame = std::move(pool_.back());
            pool_.pop_back();
        }
    }
    if (!frame)
        frame = std::make_unique<Frame>(*program_);
    // A throw drops the frame with its half-written slots.
    std::optional<Violation> violation = frame->run(*program_, ex, true);
    std::lock_guard<std::mutex> lock(poolMutex_);
    pool_.push_back(std::move(frame));
    return violation;
}

std::map<std::string, CatValue>
CatModel::evalBindings(const CandidateExecution &ex) const
{
    Frame frame(*program_);
    frame.run(*program_, ex, false);
    std::map<std::string, CatValue> env;
    for (const cat::Builtin &b : cat::builtins()) {
        CatValue &v = env[std::string(b.name)];
        v.kind = b.isSet ? CatValue::Kind::Set : CatValue::Kind::Rel;
        b.load(ex, v);
    }
    for (const auto &[name, slot] : program_->bindings)
        env[name] = frame.slots[slot];
    return env;
}

} // namespace lkmm
