#include "cat/eval.hh"

#include "cat/classify.hh"

#include <algorithm>
#include <functional>
#include <mutex>
#include <vector>

#include "base/faultinject.hh"
#include "base/logging.hh"
#include "base/status.hh"
#include "cat/parser.hh"

namespace lkmm
{

using cat::CatValue;
using cat::CatExpr;
using cat::CatStatement;

namespace
{

// Memo stages: which witness a cat value transitively depends on.
// A Static value is a function of the abstract execution only (po,
// deps, annotation sets); an Rf value additionally of rf and the
// resolved locations; a Co value of co — Co values are recomputed
// for every candidate.  kNever marks statements that define
// functions (no value to replay) .
constexpr int kStageStatic = 0;
constexpr int kStageRf = 1;
constexpr int kStageCo = 2;
constexpr int kNever = 3;

int
builtinStage(const std::string &name)
{
    static const std::map<std::string, int> stages = {
        {"po", kStageStatic},       {"addr", kStageStatic},
        {"data", kStageStatic},     {"ctrl", kStageStatic},
        {"rmw", kStageStatic},      {"int", kStageStatic},
        {"ext", kStageStatic},      {"id", kStageStatic},
        {"crit", kStageStatic},     {"_", kStageStatic},
        {"W", kStageStatic},        {"R", kStageStatic},
        {"F", kStageStatic},        {"M", kStageStatic},
        {"Once", kStageStatic},     {"Acquire", kStageStatic},
        {"Release", kStageStatic},  {"Rmb", kStageStatic},
        {"Wmb", kStageStatic},      {"Mb", kStageStatic},
        {"Rb-dep", kStageStatic},   {"Rcu-lock", kStageStatic},
        {"Rcu-unlock", kStageStatic}, {"Sync-rcu", kStageStatic},
        {"rf", kStageRf},           {"rfi", kStageRf},
        {"rfe", kStageRf},          {"loc", kStageRf},
        {"po-loc", kStageRf},
        {"co", kStageCo},           {"fr", kStageCo},
        {"coi", kStageCo},          {"coe", kStageCo},
        {"fri", kStageCo},          {"fre", kStageCo},
        {"com", kStageCo},
    };
    auto it = stages.find(name);
    return it == stages.end() ? -1 : it->second;
}

/** Classifies top-level bindings by the builtins they reach. */
class StageClassifier
{
  public:
    /** Stage per statement; kNever when nothing can be replayed. */
    std::vector<int>
    classify(const cat::CatFile &file)
    {
        std::vector<int> out;
        for (const CatStatement &st : file.statements) {
            if (st.kind != CatStatement::Kind::Let) {
                out.push_back(kNever);
                continue;
            }
            bool all_values = true;
            for (const auto &b : st.bindings)
                all_values = all_values && b.params.empty();
            if (!all_values) {
                // Function definitions: record bodies for call-site
                // classification; nothing to replay.
                for (const auto &b : st.bindings) {
                    if (!b.params.empty())
                        funcs_[b.name] = &b;
                }
                out.push_back(kNever);
                continue;
            }
            // Recursive groups: self-references don't raise the
            // stage (the fixpoint is a function of the other
            // relations referenced), so pre-bind the names Static.
            if (st.recursive) {
                for (const auto &b : st.bindings)
                    lets_[b.name] = kStageStatic;
            }
            int stage = kStageStatic;
            for (const auto &b : st.bindings)
                stage = std::max(stage, exprStage(*b.body, {}));
            for (const auto &b : st.bindings)
                lets_[b.name] = stage;
            out.push_back(stage);
        }
        return out;
    }

  private:
    int
    exprStage(const CatExpr &e, const std::vector<std::string> &params)
    {
        switch (e.kind) {
          case CatExpr::Kind::Id: {
            if (std::find(params.begin(), params.end(), e.name) !=
                params.end()) {
                return kStageStatic; // arg stage counted at the call
            }
            auto it = lets_.find(e.name);
            if (it != lets_.end())
                return it->second;
            int b = builtinStage(e.name);
            // Unknown identifier: be conservative, never memoize.
            return b >= 0 ? b : kStageCo;
          }
          case CatExpr::Kind::Call: {
            int stage = kStageStatic;
            for (const auto &arg : e.args)
                stage = std::max(stage, exprStage(*arg, params));
            if (e.name == "fencerel" || e.name == "domain" ||
                e.name == "range") {
                return stage;
            }
            auto it = funcs_.find(e.name);
            if (it == funcs_.end())
                return kStageCo; // unknown function: conservative
            return std::max(stage, exprStage(*it->second->body,
                                             it->second->params));
          }
          default: {
            int stage = kStageStatic;
            for (const auto &arg : e.args)
                stage = std::max(stage, exprStage(*arg, params));
            return stage;
          }
        }
    }

    std::map<std::string, int> lets_;
    std::map<std::string, const cat::CatBinding *> funcs_;
};

/** A user-defined cat function (closure over the environment). */
struct CatFunction
{
    std::vector<std::string> params;
    const CatExpr *body;
};

/** Replayable values per statement index. */
using StmtValues = std::map<std::size_t, std::vector<CatValue>>;

class Evaluator
{
  public:
    Evaluator(const CandidateExecution &ex, std::size_t maxSteps = 0)
        : ex_(ex), n_(ex.numEvents()), maxSteps_(maxSteps)
    {
        installBuiltins();
    }

    /**
     * Memoization hooks: `seed` maps statement indices to the values
     * their bindings had for an execution with identical inputs —
     * those statements are replayed instead of evaluated; freshly
     * evaluated statements whose stage is `collectStage` or below
     * get their values recorded in collected() for the next seed.
     */
    void
    enableMemo(const StmtValues *seed, const std::vector<int> *stages,
               int collectStage)
    {
        seed_ = seed;
        stages_ = stages;
        collectStage_ = collectStage;
    }

    const StmtValues &collected() const { return collected_; }

    /** Run one statement; returns a violation for failed checks. */
    std::optional<Violation>
    run(const CatStatement &st, std::size_t idx)
    {
        switch (st.kind) {
          case CatStatement::Kind::Let: {
            if (seed_) {
                auto it = seed_->find(idx);
                if (it != seed_->end()) {
                    for (std::size_t b = 0; b < st.bindings.size(); ++b)
                        env_[st.bindings[b].name] = it->second[b];
                    return std::nullopt;
                }
            }
            define(st);
            if (stages_ && (*stages_)[idx] <= collectStage_) {
                std::vector<CatValue> vals;
                vals.reserve(st.bindings.size());
                for (const auto &b : st.bindings)
                    vals.push_back(env_[b.name]);
                collected_.emplace(idx, std::move(vals));
            }
            return std::nullopt;
          }
          case CatStatement::Kind::Acyclic:
            return requireAcyclic(relOf(eval(*st.constraint)),
                                  st.checkName.empty() ? "acyclic"
                                                       : st.checkName);
          case CatStatement::Kind::Irreflexive:
            return requireIrreflexive(relOf(eval(*st.constraint)),
                                      st.checkName.empty()
                                          ? "irreflexive"
                                          : st.checkName);
          case CatStatement::Kind::Empty:
            return requireEmpty(relOf(eval(*st.constraint)),
                                st.checkName.empty() ? "empty"
                                                     : st.checkName);
        }
        panic("unhandled cat statement");
    }

    const std::map<std::string, CatValue> &env() const { return env_; }

  private:
    void
    define(const CatStatement &st)
    {
        if (!st.recursive) {
            for (const auto &binding : st.bindings) {
                if (!binding.params.empty()) {
                    funcs_[binding.name] =
                        CatFunction{binding.params, binding.body.get()};
                } else {
                    env_[binding.name] = eval(*binding.body);
                }
            }
            return;
        }

        // Recursive definitions: joint least fixpoint from empty
        // relations, iterating all bindings until stable.
        for (const auto &binding : st.bindings) {
            panicIf(!binding.params.empty(),
                    "recursive cat functions are not supported");
            env_[binding.name] = CatValue::ofRel(Relation(n_));
        }
        for (;;) {
            if (!stepOk()) {
                stepOverflow("recursive definition of '" +
                             st.bindings[0].name + "'");
            }
            bool changed = false;
            for (const auto &binding : st.bindings) {
                CatValue next = eval(*binding.body);
                panicIf(next.kind != CatValue::Kind::Rel,
                        "recursive cat sets are not supported");
                if (!(next.rel == env_[binding.name].rel)) {
                    env_[binding.name] = std::move(next);
                    changed = true;
                }
            }
            if (!changed)
                return;
        }
    }

    static Relation
    relOf(const CatValue &v)
    {
        panicIf(v.kind != CatValue::Kind::Rel,
                "cat: expected a relation, got a set");
        return v.rel;
    }

    static EventSet
    setOf(const CatValue &v)
    {
        panicIf(v.kind != CatValue::Kind::Set,
                "cat: expected a set, got a relation");
        return v.set;
    }

    Relation
    identityOn(const EventSet &s) const
    {
        Relation r(n_);
        for (EventId e : s.members())
            r.add(e, e);
        return r;
    }

    /**
     * Account one interpreter step against the eval budget
     * (CatModel::setEvalBudget); the check is one compare on the
     * unbudgeted fast path.
     */
    bool
    stepOk()
    {
        return !maxSteps_ || ++steps_ <= maxSteps_;
    }

    [[noreturn]] void
    stepOverflow(const std::string &what)
    {
        throw StatusError(Status(
            StatusCode::BudgetExceeded,
            "cat eval budget (" + std::to_string(maxSteps_) +
                " steps) exceeded while evaluating " + what));
    }

    CatValue
    eval(const CatExpr &e)
    {
        if (!stepOk()) {
            stepOverflow(e.kind == CatExpr::Kind::Id
                             ? "'" + e.name + "'" : "an expression");
        }
        switch (e.kind) {
          case CatExpr::Kind::Id: {
            auto it = env_.find(e.name);
            if (it == env_.end()) {
                throw StatusError(Status(
                    StatusCode::EvalError,
                    "cat: undefined identifier '" + e.name + "'"));
            }
            return it->second;
          }
          case CatExpr::Kind::Union: {
            CatValue a = eval(*e.args[0]);
            CatValue b = eval(*e.args[1]);
            if (a.kind == CatValue::Kind::Set &&
                b.kind == CatValue::Kind::Set) {
                return CatValue::ofSet(a.set | b.set);
            }
            return CatValue::ofRel(relOf(a) | relOf(b));
          }
          case CatExpr::Kind::Inter: {
            CatValue a = eval(*e.args[0]);
            CatValue b = eval(*e.args[1]);
            if (a.kind == CatValue::Kind::Set &&
                b.kind == CatValue::Kind::Set) {
                return CatValue::ofSet(a.set & b.set);
            }
            return CatValue::ofRel(relOf(a) & relOf(b));
          }
          case CatExpr::Kind::Diff: {
            CatValue a = eval(*e.args[0]);
            CatValue b = eval(*e.args[1]);
            if (a.kind == CatValue::Kind::Set &&
                b.kind == CatValue::Kind::Set) {
                return CatValue::ofSet(a.set - b.set);
            }
            return CatValue::ofRel(relOf(a) - relOf(b));
          }
          case CatExpr::Kind::Seq:
            return CatValue::ofRel(
                relOf(eval(*e.args[0])).seq(relOf(eval(*e.args[1]))));
          case CatExpr::Kind::Product:
            return CatValue::ofRel(Relation::product(
                setOf(eval(*e.args[0])), setOf(eval(*e.args[1]))));
          case CatExpr::Kind::Compl: {
            CatValue a = eval(*e.args[0]);
            if (a.kind == CatValue::Kind::Set)
                return CatValue::ofSet(~a.set);
            return CatValue::ofRel(~a.rel);
          }
          case CatExpr::Kind::Inverse:
            return CatValue::ofRel(relOf(eval(*e.args[0])).inverse());
          case CatExpr::Kind::Opt:
            return CatValue::ofRel(relOf(eval(*e.args[0])).opt());
          case CatExpr::Kind::Plus:
            return CatValue::ofRel(relOf(eval(*e.args[0])).plus());
          case CatExpr::Kind::Star:
            return CatValue::ofRel(relOf(eval(*e.args[0])).star());
          case CatExpr::Kind::Bracket:
            return CatValue::ofRel(identityOn(setOf(eval(*e.args[0]))));
          case CatExpr::Kind::Call:
            return call(e);
        }
        panic("unhandled cat expression");
    }

    CatValue
    call(const CatExpr &e)
    {
        // Builtins first.
        if (e.name == "fencerel") {
            // fencerel(S) = (po & (_ * S)); po
            const EventSet s = setOf(eval(*e.args[0]));
            return CatValue::ofRel(ex_.po.restrictRange(s).seq(ex_.po));
        }
        if (e.name == "domain")
            return CatValue::ofSet(relOf(eval(*e.args[0])).domain());
        if (e.name == "range")
            return CatValue::ofSet(relOf(eval(*e.args[0])).range());

        auto it = funcs_.find(e.name);
        if (it == funcs_.end()) {
            throw StatusError(Status(
                StatusCode::EvalError,
                "cat: undefined function '" + e.name + "'"));
        }
        const CatFunction &fn = it->second;
        panicIf(fn.params.size() != e.args.size(),
                "cat: wrong arity for '" + e.name + "'");

        // Bind arguments over the current environment (dynamic
        // scoping, like herd's cat interpreter for simple models).
        std::vector<std::pair<std::string, std::optional<CatValue>>> saved;
        for (std::size_t i = 0; i < fn.params.size(); ++i) {
            auto old = env_.find(fn.params[i]);
            saved.emplace_back(fn.params[i],
                               old == env_.end()
                                   ? std::nullopt
                                   : std::optional<CatValue>(old->second));
            env_[fn.params[i]] = eval(*e.args[i]);
        }
        CatValue result = eval(*fn.body);
        for (auto &[name, old] : saved) {
            if (old)
                env_[name] = *old;
            else
                env_.erase(name);
        }
        return result;
    }

    void
    installBuiltins()
    {
        auto rel = [&](const std::string &name, const Relation &r) {
            env_[name] = CatValue::ofRel(r);
        };
        auto set = [&](const std::string &name, const EventSet &s) {
            env_[name] = CatValue::ofSet(s);
        };

        rel("po", ex_.po);
        rel("addr", ex_.addr);
        rel("data", ex_.data);
        rel("ctrl", ex_.ctrl);
        rel("rmw", ex_.rmw);
        rel("rf", ex_.rf);
        rel("co", ex_.co);
        rel("fr", ex_.fr());
        rel("rfi", ex_.rfi());
        rel("rfe", ex_.rfe());
        rel("coi", ex_.coi());
        rel("coe", ex_.coe());
        rel("fri", ex_.fri());
        rel("fre", ex_.fre());
        rel("po-loc", ex_.poLoc());
        rel("com", ex_.com());
        rel("loc", ex_.locRel());
        rel("int", ex_.intRel());
        rel("ext", ex_.extRel());
        rel("id", Relation::identity(n_));
        rel("crit", ex_.crit());

        set("_", ex_.all());
        set("W", ex_.writes());
        set("R", ex_.reads());
        set("F", ex_.fences());
        set("M", ex_.mem());
        set("Once", ex_.withAnn(Ann::Once));
        set("Acquire", ex_.withAnn(Ann::Acquire));
        set("Release", ex_.withAnn(Ann::Release));
        set("Rmb", ex_.withAnn(Ann::Rmb));
        set("Wmb", ex_.withAnn(Ann::Wmb));
        set("Mb", ex_.withAnn(Ann::Mb));
        set("Rb-dep", ex_.withAnn(Ann::RbDep));
        set("Rcu-lock", ex_.withAnn(Ann::RcuLock));
        set("Rcu-unlock", ex_.withAnn(Ann::RcuUnlock));
        set("Sync-rcu", ex_.withAnn(Ann::SyncRcu));
    }

    const CandidateExecution &ex_;
    const std::size_t n_;
    const std::size_t maxSteps_;
    std::size_t steps_ = 0;
    std::map<std::string, CatValue> env_;
    std::map<std::string, CatFunction> funcs_;

    const StmtValues *seed_ = nullptr;
    const std::vector<int> *stages_ = nullptr;
    int collectStage_ = -1;
    StmtValues collected_;
};

} // namespace

/** See the declaration in eval.hh for the caching discipline. */
struct CatModel::Memo
{
    std::mutex mutex;

    bool classified = false;
    std::vector<int> stages; ///< per statement

    // Static layer: valid for executions matching this abstract
    // execution (event kinds/annotations/threads + po and the
    // dependency relations; the predefined sets and crit are
    // functions of these).
    bool staticValid = false;
    std::vector<int> evKey; ///< packed (kind, ann, tid) per event
    Relation po, addr, data, ctrl, rmw;
    StmtValues staticVals;

    // Rf layer: additionally needs rf and the resolved locations.
    bool rfValid = false;
    std::vector<LocId> locKey;
    Relation rf;
    StmtValues rfVals;

    static std::vector<int>
    eventKey(const CandidateExecution &ex)
    {
        std::vector<int> key;
        key.reserve(ex.events.size());
        for (const Event &e : ex.events) {
            key.push_back((static_cast<int>(e.kind) << 16) |
                          (static_cast<int>(e.ann) << 8) |
                          (e.tid & 0xff));
        }
        return key;
    }

    bool
    staticMatches(const CandidateExecution &ex) const
    {
        return staticValid && evKey == eventKey(ex) && po == ex.po &&
               addr == ex.addr && data == ex.data && ctrl == ex.ctrl &&
               rmw == ex.rmw;
    }

    bool
    rfMatches(const CandidateExecution &ex) const
    {
        if (!rfValid || !(rf == ex.rf))
            return false;
        if (locKey.size() != ex.events.size())
            return false;
        for (std::size_t i = 0; i < locKey.size(); ++i) {
            if (locKey[i] != ex.events[i].loc)
                return false;
        }
        return true;
    }
};

CatModel
CatModel::fromSource(const std::string &source, const std::string &name)
{
    CatModel m;
    m.file_ = cat::parseCat(source);
    m.name_ = m.file_.modelName.empty() ? name : m.file_.modelName;
    m.support_ = cat::classifyAxioms(m.file_);
    m.memo_ = std::make_shared<Memo>();
    return m;
}

CatModel
CatModel::fromFile(const std::string &path)
{
    CatModel m;
    m.file_ = cat::parseCatFile(path);
    m.name_ = m.file_.modelName.empty() ? path : m.file_.modelName;
    m.support_ = cat::classifyAxioms(m.file_);
    m.memo_ = std::make_shared<Memo>();
    return m;
}

std::optional<Violation>
CatModel::check(const CandidateExecution &ex) const
{
    faultinject::checkSite(faultinject::site::kCatEval, name_.c_str());
    Evaluator evaluator(ex, maxEvalSteps_);

    // Pull replayable values out of the memo.  The seed is copied
    // under the lock so concurrent checks on a shared model never
    // race with a layer being replaced mid-evaluation.
    Memo &memo = *memo_;
    StmtValues seed;
    bool static_hit = false;
    bool rf_hit = false;
    std::vector<int> stages;
    {
        std::lock_guard<std::mutex> lock(memo.mutex);
        if (!memo.classified) {
            memo.stages = StageClassifier().classify(file_);
            memo.classified = true;
        }
        stages = memo.stages;
        static_hit = memo.staticMatches(ex);
        rf_hit = static_hit && memo.rfMatches(ex);
        if (static_hit)
            seed = memo.staticVals;
        if (rf_hit) {
            for (const auto &[idx, vals] : memo.rfVals)
                seed.emplace(idx, vals);
        }
    }
    // Nothing left to collect on a full hit; otherwise record both
    // layers (seeded statements are skipped, so a static hit only
    // re-collects the rf-stage statements).
    evaluator.enableMemo(&seed, &stages, rf_hit ? -1 : kStageRf);

    std::optional<Violation> violation;
    for (std::size_t i = 0; i < file_.statements.size(); ++i) {
        if ((violation = evaluator.run(file_.statements[i], i)))
            break;
    }

    // Store what was freshly computed, even when a check failed
    // early: the seed map is per-statement, so a partial layer still
    // short-circuits exactly the statements it holds.
    {
        std::lock_guard<std::mutex> lock(memo.mutex);
        if (!static_hit) {
            memo.staticValid = true;
            memo.rfValid = false;
            memo.evKey = Memo::eventKey(ex);
            memo.po = ex.po;
            memo.addr = ex.addr;
            memo.data = ex.data;
            memo.ctrl = ex.ctrl;
            memo.rmw = ex.rmw;
            memo.staticVals.clear();
            memo.rfVals.clear();
            for (const auto &[idx, vals] : evaluator.collected()) {
                if (stages[idx] == kStageStatic)
                    memo.staticVals.emplace(idx, vals);
            }
        }
        if (!rf_hit && memo.staticMatches(ex)) {
            memo.rfValid = true;
            memo.rf = ex.rf;
            memo.locKey.clear();
            for (const Event &e : ex.events)
                memo.locKey.push_back(e.loc);
            memo.rfVals.clear();
            for (const auto &[idx, vals] : evaluator.collected()) {
                if (stages[idx] == kStageRf)
                    memo.rfVals.emplace(idx, vals);
            }
        }
    }
    return violation;
}

std::map<std::string, CatValue>
CatModel::evalBindings(const CandidateExecution &ex) const
{
    Evaluator evaluator(ex, maxEvalSteps_);
    for (std::size_t i = 0; i < file_.statements.size(); ++i)
        evaluator.run(file_.statements[i], i);
    return evaluator.env();
}

} // namespace lkmm
