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
 * per side.  A campaign evaluates its sides in persistent
 * SideWorkers instead, one per pool thread, and lets a fresh
 * one-shot child confirm every worker death: inputs are
 * deterministic, so only a failure that child reproduces is a
 * finding.  Unknown verdicts (budget truncation) are inconclusive
 * and never produce findings, and Subset oracles only apply to
 * exists-quantified tests (the inclusion direction reverses under
 * forall).
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
     * Watchdog deadline for each isolated side (0 = none).  The only
     * sandbox cap: rlimits are per process, so in a persistent
     * worker RLIMIT_CPU would add up across sides.
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

/**
 * The persistent sandbox for the sides of one oracle set: one forked
 * worker evaluates side after side, so a campaign forks once per
 * oracle set instead of once per side.  Not thread-safe: a parallel
 * campaign gives each pool thread a worker of its own.  Each request
 * carries the side's index in the set, the seed and the candidate's
 * printed litmus text; the worker parses each distinct text once and
 * answers with runSide's payload.
 *
 * A worker that crashes, overruns opts.deadline, or answers (or is
 * sent) something it cannot handle is reaped, and the side is
 * re-run in a fresh one-shot child through runSide.  Only that
 * child's outcome is returned, so crash and timeout signatures are
 * the one-shot path's.  The next run() forks a fresh worker.
 */
class SideWorker
{
  public:
    /**
     * The worker, forked on first use, holds its own copy of
     * `oracles` and of opts' engine and deadline.  `oracles` must
     * outlive this object; run() takes only sides of it.
     */
    SideWorker(const std::vector<Oracle> &oracles,
               const OracleOptions &opts);
    /** Retire the live worker: EOF on its channel, then reap. */
    ~SideWorker();
    SideWorker(const SideWorker &) = delete;
    SideWorker &operator=(const SideWorker &) = delete;

    /**
     * Evaluate `side` on prog, whose printLitmus text is `source`,
     * with the operational-machine seed `seed`.
     */
    SideOutcome run(const OracleSide &side, const Program &prog,
                    const std::string &source, std::uint64_t seed);

    /**
     * Worker deaths the one-shot re-run did not reproduce: its
     * outcome was a verdict or a structured rejection.
     */
    std::uint64_t unconfirmedDeaths() const { return unconfirmedDeaths_; }

  private:
    std::vector<const OracleSide *> sides_;
    OracleOptions opts_;
    std::optional<subprocess::Child> child_;
    std::uint64_t unconfirmedDeaths_ = 0;
};

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

} // namespace lkmm::fuzz

#endif // LKMM_FUZZ_ORACLE_HH
