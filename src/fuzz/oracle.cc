#include "fuzz/oracle.hh"

#include <algorithm>
#include <charconv>
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

/** Side backed by an axiomatic model, identified by `model`. */
OracleSide
modelSide(std::string label, std::string model,
          std::shared_ptr<const Model> impl)
{
    OracleSide side;
    side.label = std::move(label);
    side.model = std::move(model);
    side.eval = [impl](const Program &prog, const EngineConfig &engine,
                       std::uint64_t) {
        return quickVerdict(prog, *impl, engine.budget, engine.enumerate);
    };
    return side;
}

/** Side backed by a registry model ("lkmm", "sc", "tso", ...). */
OracleSide
registrySide(std::string label, const std::string &name)
{
    return modelSide(std::move(label), "registry:" + name,
                     ModelRegistry::instance().make(name));
}

/**
 * Side backed by the operational machine: Allow when the exists
 * clause was observed in any of the seeded runs.  "Not observed" is
 * reported as Forbid, which is only sound on the small side of a
 * Subset oracle (absence of evidence never triggers a finding).
 */
OracleSide
operationalSide(std::string label, const std::string &name,
                MachineConfig cfg, std::uint64_t runs)
{
    OracleSide side;
    side.label = std::move(label);
    side.model = "machine:" + name + "/" + std::to_string(runs);
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
        const std::string path = dir + "/lkmm.cat";
        o.mode = Oracle::Mode::Equal;
        o.a = registrySide("native-lkmm", "lkmm");
        o.b = modelSide("cat-lkmm", "cat:" + path,
                        std::make_shared<CatModel>(
                            CatModel::fromFile(path)));
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
        o.a = modelSide("rf-first-lkmm", "registry:lkmm", model);
        o.a.engineMode = "rf-first";
        o.b = modelSide("brute-lkmm", "registry:lkmm", model);
        o.b.engineMode = "brute";
        return o;
    }
    if (name == "sc-vs-operational") {
        o.mode = Oracle::Mode::Subset;
        o.a = operationalSide("op-sc", "sc", MachineConfig::sc(), 256);
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
        o.b = modelSide("ablated-" + knob, "ablated:" + knob,
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
        EngineConfig engine = opts.engine;
        if (!side.engineMode.empty())
            engine.setMode(side.engineMode);
        const Verdict v = side.eval(prog, engine, opts.seed);
        return std::string("ok ") + verdictName(v);
    } catch (const std::exception &e) {
        return std::string("err ") +
               statusCodeName(statusOf(e).code());
    }
}

/** evalSidePayload's answer decoded; nullopt for any other text. */
std::optional<SideOutcome>
decodePayload(std::string_view payload)
{
    const std::size_t space = payload.find(' ');
    const std::string_view tag = payload.substr(0, space);
    const std::string rest(space == std::string_view::npos
                               ? std::string_view()
                               : payload.substr(space + 1));
    SideOutcome out;
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

/** A crash, a timeout, or an error other than a structured rejection. */
bool
isHardFailure(const SideOutcome &o)
{
    return o.kind != SideOutcome::Kind::Ok && !isStructuredReject(o);
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

namespace
{

/**
 * Does runOracle compare the oracle's sides on prog?  False for a
 * Subset oracle on a forall test, whose inclusion direction reverses
 * under forall, and for an RCU-unsound oracle on a program that uses
 * RCU.
 */
bool
applies(const Oracle &oracle, const Program &prog)
{
    if (oracle.mode == Oracle::Mode::Subset &&
        prog.quantifier != Quantifier::Exists) {
        return false;
    }
    return oracle.rcuSound || !usesRcu(prog);
}

} // namespace

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

/** Parse the decimal number at the front of s, and drop it from s. */
template <typename T>
bool
takeNumber(std::string_view &s, T &out)
{
    const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
    if (ec != std::errc())
        return false;
    s.remove_prefix(static_cast<std::size_t>(end - s.data()));
    return true;
}

/**
 * Worker side of one request, "<seed> <evaluation>...\n<litmus
 * text>": one line "<ns> <answer>" per evaluation, in request order,
 * where the answer is evalSidePayload's and ns the nanoseconds it
 * took; or kBadRequest.
 */
std::string
answerRequest(const OracleSides &sides, const OracleOptions &base,
              const std::string &request)
{
    const std::size_t newline = request.find('\n');
    if (newline == std::string::npos)
        return kBadRequest;
    std::string_view header = std::string_view(request).substr(0, newline);
    OracleOptions opts = base;
    if (!takeNumber(header, opts.seed))
        return kBadRequest;
    std::vector<std::size_t> evals;
    while (!header.empty()) {
        std::size_t e = 0;
        if (header.front() != ' ')
            return kBadRequest;
        header.remove_prefix(1);
        if (!takeNumber(header, e) || e >= sides.size())
            return kBadRequest;
        evals.push_back(e);
    }
    std::optional<Program> prog;
    try {
        prog = parseLitmus(request.substr(newline + 1));
    } catch (const std::exception &) {
        // The campaign printed this text from a valid program: a
        // text that does not parse back is a printer fault, for the
        // one-shot confirmation to judge.
        return kBadRequest;
    }
    std::string reply;
    for (const std::size_t e : evals) {
        const auto start = std::chrono::steady_clock::now();
        const std::string answer = evalSidePayload(sides.side(e), *prog, opts);
        const std::chrono::nanoseconds took =
            std::chrono::steady_clock::now() - start;
        reply += std::to_string(took.count());
        reply += ' ';
        reply += answer;
        reply += '\n';
    }
    return reply;
}

/**
 * The outcomes in a worker's reply to `count` evaluations; nullopt
 * for a reply that does not decode or that reports a side slower
 * than `deadline` (0 = none).
 */
std::optional<std::vector<SideOutcome>>
decodeReply(std::string_view reply, std::size_t count,
            std::chrono::nanoseconds deadline)
{
    std::vector<SideOutcome> out;
    while (!reply.empty()) {
        const std::size_t eol = reply.find('\n');
        if (eol == std::string_view::npos)
            return std::nullopt;
        std::string_view line = reply.substr(0, eol);
        reply.remove_prefix(eol + 1);
        std::int64_t took = 0;
        if (!takeNumber(line, took) || line.empty() || line.front() != ' ')
            return std::nullopt;
        if (deadline.count() > 0 && took > deadline.count())
            return std::nullopt;
        std::optional<SideOutcome> outcome = decodePayload(line.substr(1));
        if (!outcome)
            return std::nullopt;
        out.push_back(std::move(*outcome));
    }
    if (out.size() != count)
        return std::nullopt;
    return out;
}

} // namespace

OracleSides::OracleSides(const std::vector<Oracle> &oracles,
                         const EngineConfig &engine)
    : oracles_(oracles)
{
    // Evaluation e is keys[e], "<model>@<engine mode>"; a side
    // without a model is an evaluation of its own.
    std::vector<std::string> keys;
    for (const Oracle &o : oracles) {
        for (const OracleSide *side : {&o.a, &o.b}) {
            const std::string key =
                side->model + "@" +
                (side->engineMode.empty() ? engine.modeName()
                                          : side->engineMode);
            std::size_t e = static_cast<std::size_t>(
                std::find(keys.begin(), keys.end(), key) - keys.begin());
            if (side->model.empty() || e == keys.size()) {
                e = keys.size();
                keys.push_back(key);
                first_.push_back(side);
            }
            of_.push_back(e);
        }
    }
}

std::size_t
OracleSides::evaluationOf(const OracleSide &side) const
{
    for (std::size_t k = 0; k < oracles_.size(); ++k) {
        if (&side == &oracles_[k].a)
            return of_[2 * k];
        if (&side == &oracles_[k].b)
            return of_[2 * k + 1];
    }
    throw StatusError(Status(StatusCode::Internal,
                             "side " + side.label +
                                 " is not in the oracle set"));
}

std::vector<std::size_t>
OracleSides::needed(const Program &prog) const
{
    std::vector<std::size_t> out;
    for (std::size_t k = 0; k < oracles_.size(); ++k) {
        if (!applies(oracles_[k], prog))
            continue;
        for (const std::size_t e : {of_[2 * k], of_[2 * k + 1]}) {
            if (std::find(out.begin(), out.end(), e) == out.end())
                out.push_back(e);
        }
    }
    return out;
}

SideWorker::SideWorker(const std::vector<Oracle> &oracles,
                       const OracleOptions &opts)
    : oracles_(oracles), sides_(oracles, opts.engine), opts_(opts)
{
}

SideWorker::~SideWorker()
{
    if (child_)
        child_->retire(kRetireGrace);
}

std::vector<std::optional<Finding>>
SideWorker::run(const Program &prog, const std::string &source,
                std::uint64_t seed)
{
    OracleOptions opts = opts_;
    opts.seed = seed;
    const std::vector<std::size_t> evals = sides_.needed(prog);
    // outcome[e]: evaluation e's outcome, once known.
    std::vector<std::optional<SideOutcome>> outcome(sides_.size());
    bool failed = false;
    if (!opts.isolate) {
        for (const std::size_t e : evals)
            outcome[e] = runSide(sides_.side(e), prog, opts);
    } else if (!evals.empty()) {
        std::optional<std::vector<SideOutcome>> reply =
            request(evals, source, seed);
        failed = !reply;
        for (std::size_t k = 0; reply && k < evals.size(); ++k)
            outcome[evals[k]] = std::move((*reply)[k]);
    }

    // After a failed request no outcome is known.  Inputs are
    // deterministic, so a fresh one-shot child judges each side
    // runOracle asks for, once per evaluation, and only a hard
    // failure it reproduces becomes a finding.
    const SideEval eval = [&](const OracleSide &side) {
        std::optional<SideOutcome> &known = outcome[sides_.evaluationOf(side)];
        if (!known)
            known = runSide(side, prog, opts);
        return *known;
    };
    std::vector<std::optional<Finding>> findings;
    for (const Oracle &oracle : oracles_)
        findings.push_back(runOracle(oracle, prog, eval));
    if (failed &&
        std::none_of(outcome.begin(), outcome.end(),
                     [](const std::optional<SideOutcome> &o) {
                         return o && isHardFailure(*o);
                     }))
        ++unconfirmedDeaths_;
    return findings;
}

std::optional<std::vector<SideOutcome>>
SideWorker::request(const std::vector<std::size_t> &evals,
                    const std::string &source, std::uint64_t seed)
{
    if (!child_) {
        // Forked from the one thread that owns this worker, while
        // other pool threads may run; the body takes no lock another
        // thread can hold (DESIGN.md "Fork safety").
        child_ = subprocess::Child::spawn([this](int fd) {
            return channel::serveFrames(
                fd, [this](const std::string &request) {
                    return answerRequest(sides_, opts_, request);
                });
        });
    }
    std::string request = std::to_string(seed);
    for (const std::size_t e : evals) {
        request += ' ';
        request += std::to_string(e);
    }
    request += '\n';
    request += source;
    std::optional<std::chrono::steady_clock::time_point> deadline;
    if (opts_.deadline.count() > 0) {
        deadline = std::chrono::steady_clock::now() +
                   opts_.deadline * static_cast<std::int64_t>(evals.size());
    }
    ++requests_;
    const channel::Reply reply = channel::call(*child_, request, deadline);
    if (reply.frame) {
        if (auto out = decodeReply(*reply.frame, evals.size(), opts_.deadline))
            return out;
        channel::reap(*child_);
    }
    child_.reset();
    return std::nullopt;
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
    if (!applies(oracle, prog))
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
