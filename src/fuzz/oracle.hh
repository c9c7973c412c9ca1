/**
 * @file
 * Differential oracles: redundant implementations of "what does this
 * litmus test do?" cross-checked against each other.
 *
 * An Oracle is a pair of sides, each mapping a program to a Verdict,
 * compared under a mode:
 *
 *   Equal   the sides must agree (native LKMM vs. lkmm.cat, native
 *           vs. a deliberately ablated native — the seeded-bug
 *           acceptance check);
 *   Subset  Allow on side a implies Allow on side b (model
 *           monotonicity: SC-allowed is a subset of LKMM-allowed;
 *           operational-SC-observed is a subset of axiomatic-SC-
 *           allowed).
 *
 * Each side runs inside a subprocess sandbox, so a side that
 * segfaults, aborts, or hangs becomes a finding attributed to that
 * side's label (the stack-less "phase tag" of the triage signature)
 * instead of killing the campaign.  runSide forks one one-shot child
 * per side; runOracle and runOracles built on it are the reference
 * for --replay, minimization and confirmation.
 *
 * A campaign evaluates a candidate through a SideWorker instead.  Two
 * sides are the same evaluation when they name the same model and
 * resolve to the same engine mode (OracleSides), so a candidate needs
 * each distinct evaluation once: under the default engine,
 * rf-first-lkmm and mono-sc-lkmm's native-lkmm are native-vs-cat's
 * native-lkmm.  A sandboxed SideWorker sends those evaluations and
 * the candidate's printed text to one persistent worker process in
 * one request and gets every outcome in one reply.  Inputs are
 * deterministic, so when the worker dies, overruns or answers
 * garbled, nothing of that request is used: a fresh one-shot child
 * confirms each side runOracle asks for, once per evaluation, and
 * only a failure such a child reproduces is a finding.  Unknown
 * verdicts (budget truncation) are inconclusive and never produce
 * findings, and Subset oracles only apply to exists-quantified tests
 * (the inclusion direction reverses under forall).
 */

#ifndef LKMM_FUZZ_ORACLE_HH
#define LKMM_FUZZ_ORACLE_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "base/budget.hh"
#include "base/subprocess.hh"
#include "exec/engine_config.hh"
#include "litmus/program.hh"
#include "lkmm/runner.hh"

namespace lkmm::fuzz
{

/** One verdict provider of an oracle pair. */
struct OracleSide
{
    /** Phase tag used in failure signatures, e.g. "native-lkmm". */
    std::string label;
    /**
     * What the side evaluates: "registry:<name>", "cat:<path>",
     * "ablated:<knob>" or "machine:<config>".  Sides with equal
     * models and engine modes are one evaluation (OracleSides); a
     * side with an empty model is an evaluation of its own.
     */
    std::string model;
    /**
     * Engine mode the side pins ("brute" or "rf-first") over the
     * campaign's --engine: an engine-differential oracle's two sides
     * run different enumeration strategies over the same model.
     * Empty = the campaign's mode.  Budgets and limits from the
     * campaign config still apply.
     */
    std::string engineMode;
    /** The verdict, given the campaign engine with engineMode set. */
    std::function<Verdict(const Program &, const EngineConfig &,
                          std::uint64_t seed)>
        eval;
};

/** A differential check between two sides. */
struct Oracle
{
    enum class Mode
    {
        Equal,  ///< verdicts must match
        Subset, ///< Allow(a) implies Allow(b)
    };

    std::string name; ///< e.g. "native-vs-cat"
    Mode mode = Mode::Equal;
    OracleSide a;
    OracleSide b;
    /**
     * False when the comparison is invalid for programs using RCU
     * primitives, and such candidates must be skipped.  The SC
     * monotonicity argument is the canonical example: LKMM's rcu
     * axiom forbids grace-period/critical-section interleavings
     * (e.g. the RCU-MP shape) that a plain total-order SC model
     * happily linearizes, so "SC-allowed implies LKMM-allowed" only
     * holds RCU-free.
     */
    bool rcuSound = true;
};

/** Does the program use RCU primitives (lock/unlock/sync)? */
bool usesRcu(const Program &prog);

/**
 * Build oracles from a comma-separated spec.  Known names:
 *
 *   native-vs-cat             LkmmModel vs. cat/models/lkmm.cat
 *   rf-first-vs-brute         the rf-first saturation engine vs.
 *                             brute-force enumeration, same model
 *   sc-vs-operational         operational-SC observations must be
 *                             axiomatic-SC-allowed
 *   mono-sc-lkmm              SC-allowed implies LKMM-allowed
 *   mono-sc-tso               SC-allowed implies TSO-allowed
 *   native-vs-ablated:<knob>  LkmmModel vs. an ablated LkmmModel;
 *                             knobs: rcu-axiom, rrdep-prefix,
 *                             free-rrdep, a-cumul, gp-strong-fence
 *
 * @param catModelDir override for the cat-model directory (empty =
 *        the build-time LKMM_CAT_MODEL_DIR).
 * @throws StatusError (InvalidArgument) on unknown names.
 */
std::vector<Oracle> makeOracles(const std::string &spec,
                                const std::string &catModelDir = "");

/** The spec accepted by makeOracles, for --help text. */
std::string knownOracleSpec();

/** How one oracle run is executed. */
struct OracleOptions
{
    /**
     * Watchdog deadline for each isolated side (0 = none); a
     * SideWorker request gets it once per evaluation it carries.
     * The only sandbox cap: rlimits are per process, so in a
     * persistent worker RLIMIT_CPU would add up across sides.
     */
    std::chrono::nanoseconds deadline{0};
    /** Engine selection and enumeration budget for each side. */
    EngineConfig engine;
    /** Fork each side into the sandbox (crashes become findings). */
    bool isolate = true;
    /** Seed for operational-machine sides. */
    std::uint64_t seed = 1;
};

/** Outcome of one side under the sandbox. */
struct SideOutcome
{
    enum class Kind
    {
        Ok,      ///< produced a verdict
        Crash,   ///< killed by a signal
        Timeout, ///< exceeded the sandbox deadline
        Error,   ///< threw (structured status travels in detail)
    };

    Kind kind = Kind::Ok;
    Verdict verdict = Verdict::Unknown;
    /** Signal name / status-code name, for the signature. */
    std::string detail;
};

/**
 * Evaluate one side, in-process or (opts.isolate) in a fresh
 * one-shot child under opts.deadline.
 */
SideOutcome runSide(const OracleSide &side, const Program &prog,
                    const OracleOptions &opts);

/** A reproducible disagreement, crash, hang, or internal error. */
struct Finding
{
    std::string oracle; ///< oracle name
    std::string kind;   ///< "diverge" | "crash" | "timeout" | "error"
    std::string detail; ///< e.g. "a=Allow b=Forbid", "native-lkmm:SIGSEGV"
    Verdict a = Verdict::Unknown;
    Verdict b = Verdict::Unknown;

    /** Deduplication key: oracle/kind/detail. */
    std::string signature() const;
};

/** Evaluates one side of an oracle on the program under test. */
using SideEval = std::function<SideOutcome(const OracleSide &side)>;

/**
 * Run one oracle on one program, evaluating its sides with `eval`.
 * nullopt when the sides agree (or the comparison is inconclusive:
 * an Unknown verdict, a Subset oracle on a forall test, or a
 * structured input rejection on both sides).
 */
std::optional<Finding> runOracle(const Oracle &oracle,
                                 const Program &prog,
                                 const SideEval &eval);

/** runOracle with each side evaluated by runSide(side, prog, opts). */
std::optional<Finding> runOracle(const Oracle &oracle,
                                 const Program &prog,
                                 const OracleOptions &opts);

/** Run every oracle; first finding per oracle, all oracles tried. */
std::vector<Finding> runOracles(const std::vector<Oracle> &oracles,
                                const Program &prog,
                                const OracleOptions &opts);

/**
 * The distinct evaluations behind an oracle set's sides under one
 * campaign engine.  Two sides are the same evaluation when they have
 * the same model and resolve to the same engine mode (the side's
 * pinned mode, else the campaign's): their outcomes are equal, so a
 * candidate needs each evaluation once.  Evaluations are numbered
 * from 0 in the order of their first side in the set.
 */
class OracleSides
{
  public:
    /** `oracles` must outlive this object. */
    OracleSides(const std::vector<Oracle> &oracles,
                const EngineConfig &engine);

    /** Number of distinct evaluations. */
    std::size_t size() const { return first_.size(); }
    /** The first side of the set that performs evaluation e. */
    const OracleSide &side(std::size_t e) const { return *first_[e]; }
    /**
     * The evaluation `side`, one of the set's sides, performs.
     * @throws StatusError (Internal) for a side from another set.
     */
    std::size_t evaluationOf(const OracleSide &side) const;
    /**
     * The evaluations that the oracles applicable to prog ask for,
     * each once, in the order runOracle asks for them.
     */
    std::vector<std::size_t> needed(const Program &prog) const;

  private:
    const std::vector<Oracle> &oracles_;
    /** Evaluation of oracle k's side a at 2k, side b at 2k + 1. */
    std::vector<std::size_t> of_;
    std::vector<const OracleSide *> first_;
};

/**
 * Runs one oracle set on candidate after candidate for a campaign,
 * each distinct evaluation (OracleSides) once per candidate, and
 * reads the outcomes to runOracle through its SideEval.  Not
 * thread-safe: a parallel campaign gives each pool thread a
 * SideWorker of its own.
 *
 * With opts.isolate, one persistent forked worker gets one request
 * per candidate: the seed, the evaluations the candidate's
 * applicable oracles need, and its printed litmus text.  The worker
 * parses the text and answers every outcome, with the time each
 * took, in one reply.  Without isolate the same evaluations run in
 * this process, and nothing is forked.
 *
 * A request fails when the worker dies, overruns the watchdog (the
 * per-side deadline times the evaluations the request carries),
 * answers something that does not decode, or reports a side slower
 * than the per-side deadline.  Then no outcome of the request is
 * used and the worker is reaped; each side runOracle asks for is
 * confirmed by runSide in a fresh one-shot child, once per
 * evaluation, so crash and timeout signatures are the one-shot
 * path's.  The next request forks a fresh worker.
 */
class SideWorker
{
  public:
    /**
     * The worker, forked on first use, holds its own copy of
     * `oracles` and of opts' engine and deadline.  `oracles` must
     * outlive this object.
     */
    SideWorker(const std::vector<Oracle> &oracles,
               const OracleOptions &opts);
    /** Retire the live worker: EOF on its channel, then reap. */
    ~SideWorker();
    SideWorker(const SideWorker &) = delete;
    SideWorker &operator=(const SideWorker &) = delete;

    /**
     * runOracle's result for every oracle of the set, in set order,
     * on prog, whose printLitmus text is `source`, with the
     * operational-machine seed `seed`.
     */
    std::vector<std::optional<Finding>>
    run(const Program &prog, const std::string &source,
        std::uint64_t seed);

    /** Requests sent to worker processes (0 without isolate). */
    std::uint64_t requests() const { return requests_; }

    /**
     * Failed requests no confirmation reproduced: every side runOracle
     * asked for gave a verdict or a structured rejection in its
     * one-shot child.
     */
    std::uint64_t unconfirmedDeaths() const { return unconfirmedDeaths_; }

  private:
    /** The outcomes of `evals` in one request; nullopt when it failed. */
    std::optional<std::vector<SideOutcome>>
    request(const std::vector<std::size_t> &evals,
            const std::string &source, std::uint64_t seed);

    const std::vector<Oracle> &oracles_;
    OracleSides sides_;
    OracleOptions opts_;
    std::optional<subprocess::Child> child_;
    std::uint64_t requests_ = 0;
    std::uint64_t unconfirmedDeaths_ = 0;
};

} // namespace lkmm::fuzz

#endif // LKMM_FUZZ_ORACLE_HH
