#include "fuzz/oracle.hh"

#include <algorithm>
#include <csignal>
#include <memory>
#include <sstream>
#include <string_view>

#include "base/channel.hh"
#include "base/status.hh"
#include "cat/eval.hh"
#include "litmus/parser.hh"
#include "model/lkmm_model.hh"
#include "model/registry.hh"
#include "sim/machine.hh"

namespace lkmm::fuzz
{

namespace
{

bool
anyUsesRcu(const std::vector<Instr> &body)
{
    for (const Instr &ins : body) {
        if (ins.kind == Instr::Kind::Fence &&
            (ins.ann == Ann::RcuLock || ins.ann == Ann::RcuUnlock ||
             ins.ann == Ann::SyncRcu)) {
            return true;
        }
        if (ins.kind == Instr::Kind::If &&
            (anyUsesRcu(ins.thenBody) || anyUsesRcu(ins.elseBody)))
            return true;
    }
    return false;
}

std::string
signalName(int sig)
{
    switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGABRT: return "SIGABRT";
    case SIGKILL: return "SIGKILL";
    case SIGBUS:  return "SIGBUS";
    case SIGFPE:  return "SIGFPE";
    case SIGILL:  return "SIGILL";
    default:      return "signal-" + std::to_string(sig);
    }
}

/** Side backed by an axiomatic model. */
OracleSide
modelSide(std::string label, std::shared_ptr<const Model> model)
{
    OracleSide side;
    side.label = std::move(label);
    side.eval = [model](const Program &prog,
                        const EngineConfig &engine, std::uint64_t) {
        return quickVerdict(prog, *model, engine.budget,
                            engine.enumerate);
    };
    return side;
}

/** Side backed by a registry model ("lkmm", "sc", "tso", ...). */
OracleSide
registrySide(std::string label, const std::string &name)
{
    return modelSide(std::move(label),
                     ModelRegistry::instance().make(name));
}

/**
 * Side that pins the engine mode, ignoring the campaign-level
 * --engine flag: the whole point of an engine-differential oracle is
 * that its two sides run different enumeration strategies over the
 * same model.  Budgets and limits from the campaign config still
 * apply.
 */
OracleSide
engineSide(std::string label, std::shared_ptr<const Model> model,
           std::string mode)
{
    OracleSide side;
    side.label = std::move(label);
    side.eval = [model, mode = std::move(mode)](
                    const Program &prog, const EngineConfig &engine,
                    std::uint64_t) {
        EngineConfig cfg = engine;
        cfg.setMode(mode);
        return quickVerdict(prog, *model, cfg.budget, cfg.enumerate);
    };
    return side;
}

/**
 * Side backed by the operational machine: Allow when the exists
 * clause was observed in any of the seeded runs.  "Not observed" is
 * reported as Forbid, which is only sound on the small side of a
 * Subset oracle (absence of evidence never triggers a finding).
 */
OracleSide
operationalSide(std::string label, MachineConfig cfg,
                std::uint64_t runs)
{
    OracleSide side;
    side.label = std::move(label);
    side.eval = [cfg, runs](const Program &prog, const EngineConfig &,
                            std::uint64_t seed) {
        const HarnessResult hr = runHarness(prog, cfg, runs, seed);
        return hr.observed > 0 ? Verdict::Allow : Verdict::Forbid;
    };
    return side;
}

std::optional<LkmmModel::Config>
ablatedConfig(const std::string &knob)
{
    LkmmModel::Config cfg;
    if (knob == "rcu-axiom")
        cfg.rcuAxiom = false;
    else if (knob == "rrdep-prefix")
        cfg.rrdepPrefix = false;
    else if (knob == "free-rrdep")
        cfg.freeRrdep = true;
    else if (knob == "a-cumul")
        cfg.aCumulativity = false;
    else if (knob == "gp-strong-fence")
        cfg.gpIsStrongFence = false;
    else
        return std::nullopt;
    return cfg;
}

Oracle
makeOracle(const std::string &name, const std::string &catModelDir)
{
    Oracle o;
    o.name = name;
    if (name == "native-vs-cat") {
        const std::string dir =
            catModelDir.empty() ? LKMM_CAT_MODEL_DIR : catModelDir;
        auto cat = std::make_shared<CatModel>(
            CatModel::fromFile(dir + "/lkmm.cat"));
        o.mode = Oracle::Mode::Equal;
        o.a = registrySide("native-lkmm", "lkmm");
        o.b = modelSide("cat-lkmm", std::move(cat));
        return o;
    }
    if (name == "rf-first-vs-brute") {
        // Engine differential: the rf-first saturation engine must
        // be verdict-identical to brute force under the same model.
        // A saturation rule that over-rejects shows up here as
        // a=Forbid b=Allow.
        std::shared_ptr<const Model> model =
            ModelRegistry::instance().make("lkmm");
        o.mode = Oracle::Mode::Equal;
        o.a = engineSide("rf-first-lkmm", model, "rf-first");
        o.b = engineSide("brute-lkmm", model, "brute");
        return o;
    }
    if (name == "sc-vs-operational") {
        o.mode = Oracle::Mode::Subset;
        o.a = operationalSide("op-sc", MachineConfig::sc(), 256);
        o.b = registrySide("native-sc", "sc");
        return o;
    }
    if (name == "mono-sc-lkmm") {
        o.mode = Oracle::Mode::Subset;
        o.rcuSound = false; // the rcu axiom breaks SC-monotonicity
        o.a = registrySide("native-sc", "sc");
        o.b = registrySide("native-lkmm", "lkmm");
        return o;
    }
    if (name == "mono-sc-tso") {
        o.mode = Oracle::Mode::Subset;
        o.a = registrySide("native-sc", "sc");
        o.b = registrySide("native-tso", "tso");
        return o;
    }
    const std::string prefix = "native-vs-ablated:";
    if (name.rfind(prefix, 0) == 0) {
        const std::string knob = name.substr(prefix.size());
        const auto cfg = ablatedConfig(knob);
        if (!cfg) {
            throw StatusError(Status(
                StatusCode::InvalidArgument,
                "unknown ablation knob '" + knob +
                    "' (known: rcu-axiom, rrdep-prefix, free-rrdep, "
                    "a-cumul, gp-strong-fence)"));
        }
        o.mode = Oracle::Mode::Equal;
        o.a = registrySide("native-lkmm", "lkmm");
        // Ablations are deliberately-broken variants and stay out of
        // the registry: only the fuzzer should ever construct them.
        o.b = modelSide("ablated-" + knob,
                        std::make_shared<LkmmModel>(*cfg));
        return o;
    }
    throw StatusError(Status(StatusCode::InvalidArgument,
                             "unknown oracle '" + name +
                                 "' (known: " + knownOracleSpec() +
                                 ")"));
}

/**
 * The child/side computation, shared by the isolated and in-process
 * paths.  The side's engine passes the "enumerate" fault site with
 * the candidate's name as context, so a crash or hang plan filtered
 * by that name kills this side inside its sandbox.
 */
std::string
evalSidePayload(const OracleSide &side, const Program &prog,
                const OracleOptions &opts)
{
    try {
        const Verdict v = side.eval(prog, opts.engine, opts.seed);
        return std::string("ok ") + verdictName(v);
    } catch (const std::exception &e) {
        return std::string("err ") +
               statusCodeName(statusOf(e).code());
    }
}

/** evalSidePayload's answer decoded; nullopt for any other text. */
std::optional<SideOutcome>
decodePayload(const std::string &payload)
{
    SideOutcome out;
    std::istringstream ss(payload);
    std::string tag, rest;
    ss >> tag >> rest;
    if (tag == "ok") {
        out.kind = SideOutcome::Kind::Ok;
        out.verdict = verdictFromName(rest).value_or(Verdict::Unknown);
        return out;
    }
    if (tag == "err") {
        out.kind = SideOutcome::Kind::Error;
        out.detail = rest.empty() ? "unknown" : rest;
        return out;
    }
    return std::nullopt;
}

/** Is this Error detail a structured rejection of the input? */
bool
isStructuredReject(const SideOutcome &o)
{
    return o.kind == SideOutcome::Kind::Error &&
           (o.detail == statusCodeName(StatusCode::ParseError) ||
            o.detail == statusCodeName(StatusCode::EvalError) ||
            o.detail == statusCodeName(StatusCode::InvalidArgument) ||
            o.detail == statusCodeName(StatusCode::BudgetExceeded));
}

} // namespace

bool
usesRcu(const Program &prog)
{
    for (const Thread &t : prog.threads) {
        if (anyUsesRcu(t.body))
            return true;
    }
    return false;
}

std::vector<Oracle>
makeOracles(const std::string &spec, const std::string &catModelDir)
{
    std::vector<Oracle> out;
    std::string item;
    std::istringstream ss(spec);
    while (std::getline(ss, item, ',')) {
        if (!item.empty())
            out.push_back(makeOracle(item, catModelDir));
    }
    if (out.empty()) {
        throw StatusError(Status(StatusCode::InvalidArgument,
                                 "empty oracle spec"));
    }
    return out;
}

std::string
knownOracleSpec()
{
    return "native-vs-cat, rf-first-vs-brute, sc-vs-operational, "
           "mono-sc-lkmm, mono-sc-tso, native-vs-ablated:<knob>";
}

SideOutcome
runSide(const OracleSide &side, const Program &prog,
        const OracleOptions &opts)
{
    if (!opts.isolate)
        return *decodePayload(evalSidePayload(side, prog, opts));

    subprocess::Limits limits;
    limits.deadline = opts.deadline;
    const subprocess::Outcome outcome = subprocess::runIsolated(
        [&] { return evalSidePayload(side, prog, opts); }, limits);

    SideOutcome out;
    switch (outcome.kind) {
    case subprocess::ExitKind::Signaled:
        out.kind = SideOutcome::Kind::Crash;
        out.detail = signalName(outcome.signal);
        return out;
    case subprocess::ExitKind::TimedOut:
        out.kind = SideOutcome::Kind::Timeout;
        out.detail = "deadline";
        return out;
    case subprocess::ExitKind::Exited:
        if (outcome.exitCode != 0) {
            out.kind = SideOutcome::Kind::Error;
            out.detail = "exit-" + std::to_string(outcome.exitCode);
            return out;
        }
        if (auto decoded = decodePayload(outcome.output))
            return *decoded;
        out.kind = SideOutcome::Kind::Error;
        out.detail = "bad-payload";
        return out;
    }
    out.kind = SideOutcome::Kind::Error;
    out.detail = "unknown-outcome";
    return out;
}

namespace
{

/** The worker's answer to a request it cannot handle. */
constexpr const char *kBadRequest = "bad-request";

/** Grace a retiring side worker gets to exit at EOF. */
constexpr std::chrono::milliseconds kRetireGrace{500};

/**
 * Worker side of one request, "<side index> <seed>\n<litmus text>":
 * evalSidePayload's answer, or kBadRequest.  The sides of one
 * candidate arrive in a row, so the last text parsed is kept.
 */
std::string
answerSide(const std::vector<const OracleSide *> &sides,
           const OracleOptions &base, const std::string &request,
           std::string &lastSource, std::optional<Program> &lastProg)
{
    const std::size_t newline = request.find('\n');
    if (newline == std::string::npos)
        return kBadRequest;
    std::istringstream header(request.substr(0, newline));
    std::size_t index = 0;
    std::uint64_t seed = 0;
    if (!(header >> index >> seed) || index >= sides.size())
        return kBadRequest;
    const std::string_view source =
        std::string_view(request).substr(newline + 1);
    if (!lastProg || source != lastSource) {
        lastProg.reset();
        try {
            lastProg = parseLitmus(std::string(source));
        } catch (const std::exception &) {
            // The campaign printed this text from a valid program:
            // a text that does not parse back is a printer fault,
            // for the one-shot re-run to judge.
            return kBadRequest;
        }
        lastSource = source;
    }
    OracleOptions opts = base;
    opts.seed = seed;
    return evalSidePayload(*sides[index], *lastProg, opts);
}

} // namespace

SideWorker::SideWorker(const std::vector<Oracle> &oracles,
                       const OracleOptions &opts)
    : opts_(opts)
{
    for (const Oracle &o : oracles) {
        sides_.push_back(&o.a);
        sides_.push_back(&o.b);
    }
}

SideWorker::~SideWorker()
{
    if (child_)
        child_->retire(kRetireGrace);
}

SideOutcome
SideWorker::run(const OracleSide &side, const Program &prog,
                const std::string &source, std::uint64_t seed)
{
    const auto it = std::find(sides_.begin(), sides_.end(), &side);
    if (it == sides_.end()) {
        throw StatusError(Status(StatusCode::Internal,
                                 "side " + side.label +
                                     " is not in the worker's oracle set"));
    }
    OracleOptions opts = opts_;
    opts.seed = seed;

    if (!child_) {
        // Forked from the one thread that owns this worker, while
        // other pool threads may run; the body takes no lock another
        // thread can hold (DESIGN.md "Fork safety"), and the state
        // it keeps lives only in the child.
        child_ = subprocess::Child::spawn([this](int fd) {
            std::string lastSource;
            std::optional<Program> lastProg;
            return channel::serveFrames(
                fd, [&](const std::string &request) {
                    return answerSide(sides_, opts_, request, lastSource,
                                      lastProg);
                });
        });
    }
    std::optional<std::chrono::steady_clock::time_point> deadline;
    if (opts.deadline.count() > 0)
        deadline = std::chrono::steady_clock::now() + opts.deadline;
    const std::string request = std::to_string(it - sides_.begin()) +
        " " + std::to_string(seed) + "\n" + source;
    const channel::Reply reply = channel::call(*child_, request, deadline);
    if (reply.frame) {
        if (auto out = decodePayload(*reply.frame))
            return *out;
        channel::reap(*child_);
    }
    child_.reset();

    // The worker died, overran or could not answer.  Inputs are
    // deterministic, so a fresh one-shot child is the judge: its
    // outcome is the side's, and only a hard failure it reproduces
    // becomes a finding.
    const SideOutcome confirmed = runSide(side, prog, opts);
    if (confirmed.kind == SideOutcome::Kind::Ok ||
        isStructuredReject(confirmed))
        ++unconfirmedDeaths_;
    return confirmed;
}

std::string
Finding::signature() const
{
    return oracle + "/" + kind + "/" + detail;
}

namespace
{

std::optional<Finding>
hardFailure(const Oracle &oracle, const OracleSide &side,
            const SideOutcome &o)
{
    Finding f;
    f.oracle = oracle.name;
    switch (o.kind) {
    case SideOutcome::Kind::Crash:
        f.kind = "crash";
        break;
    case SideOutcome::Kind::Timeout:
        f.kind = "timeout";
        break;
    case SideOutcome::Kind::Error:
        if (isStructuredReject(o))
            return std::nullopt; // handled by the caller
        f.kind = "error";
        break;
    case SideOutcome::Kind::Ok:
        return std::nullopt;
    }
    f.detail = side.label + ":" + o.detail;
    return f;
}

} // namespace

std::optional<Finding>
runOracle(const Oracle &oracle, const Program &prog,
          const OracleOptions &opts)
{
    return runOracle(oracle, prog, [&](const OracleSide &side) {
        return runSide(side, prog, opts);
    });
}

std::optional<Finding>
runOracle(const Oracle &oracle, const Program &prog, const SideEval &eval)
{
    // The Subset inclusion direction reverses under forall; skip.
    if (oracle.mode == Oracle::Mode::Subset &&
        prog.quantifier != Quantifier::Exists) {
        return std::nullopt;
    }
    if (!oracle.rcuSound && usesRcu(prog))
        return std::nullopt;

    const SideOutcome oa = eval(oracle.a);
    if (auto f = hardFailure(oracle, oracle.a, oa))
        return f;
    const SideOutcome ob = eval(oracle.b);
    if (auto f = hardFailure(oracle, oracle.b, ob))
        return f;

    const bool rejectA = isStructuredReject(oa);
    const bool rejectB = isStructuredReject(ob);
    if (rejectA && rejectB)
        return std::nullopt; // both sides agree the input is bad
    if (rejectA || rejectB) {
        // One side rejects an input the other evaluates: a
        // robustness disagreement worth a bucket of its own.
        Finding f;
        f.oracle = oracle.name;
        f.kind = "error";
        const auto &side = rejectA ? oracle.a : oracle.b;
        const auto &o = rejectA ? oa : ob;
        f.detail = side.label + ":" + o.detail + ":one-sided";
        return f;
    }

    if (oa.verdict == Verdict::Unknown ||
        ob.verdict == Verdict::Unknown) {
        return std::nullopt; // truncated evidence is inconclusive
    }

    const bool diverges =
        oracle.mode == Oracle::Mode::Equal
            ? oa.verdict != ob.verdict
            : oa.verdict == Verdict::Allow &&
                  ob.verdict == Verdict::Forbid;
    if (!diverges)
        return std::nullopt;

    Finding f;
    f.oracle = oracle.name;
    f.kind = "diverge";
    f.a = oa.verdict;
    f.b = ob.verdict;
    f.detail = std::string("a=") + verdictName(oa.verdict) +
               " b=" + verdictName(ob.verdict);
    return f;
}

std::vector<Finding>
runOracles(const std::vector<Oracle> &oracles, const Program &prog,
           const OracleOptions &opts)
{
    std::vector<Finding> out;
    for (const Oracle &o : oracles) {
        if (auto f = runOracle(o, prog, opts))
            out.push_back(std::move(*f));
    }
    return out;
}

} // namespace lkmm::fuzz
