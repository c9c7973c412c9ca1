/**
 * @file
 * A hardened batch runner for catalog/corpus sweeps.
 *
 * The Table 5 sweeps and diy-generated families run thousands of
 * tests; one malformed litmus file or one pathological search space
 * must not abort or hang the whole run.  BatchRunner provides:
 *
 *  - per-test failure isolation: parser, evaluator and enumerator
 *    errors become structured TestFailure records (see
 *    base/status.hh) and the sweep continues;
 *  - a structured retry policy (base/retry.hh): transient failures
 *    (fork EAGAIN, ENOMEM, EINTR-shaped I/O errors) are retried
 *    with bounded jittered exponential backoff, deterministic
 *    failures are not, a task that keeps failing in *distinct* ways
 *    is quarantined, and a truncated run is retried with every
 *    bound scaled by RetryPolicy::budgetEscalation, up to
 *    budgetRetries extra attempts, otherwise reported as
 *    Completeness::Truncated with the bound that fired;
 *  - a cross-check mode: every test that completes under the
 *    primary model is re-run under a reference model (typically
 *    CatModel on lkmm.cat vs the native LkmmModel) and verdict
 *    disagreements are recorded as Divergence records instead of
 *    aborting;
 *  - process isolation (IsolationMode::Forked): each test runs in
 *    a forked child under setrlimit caps and a parent watchdog
 *    (base/subprocess.hh), with up to `workers` children in
 *    flight, all spawned and waited on by the calling thread; a
 *    SIGSEGV or OOM kill in one test becomes a
 *    TestFailure{phase:"crash"} record, a deadline overrun a
 *    TestFailure{phase:"timeout"}, and the sweep continues;
 *  - in-process checking (IsolationMode::InProcessParallel, the
 *    default): up to `workers` tests (default 1) checked
 *    concurrently on a thread pool (base/scheduler.hh), each pool
 *    thread on its own Model instance (BatchOptions::modelFactory)
 *    with its own Enumerator; journal writes are serialized through
 *    the single writer, and the report is verdict-identical at
 *    every thread count;
 *  - sweep-wide budgets (BatchOptions::sweepBudget): one shared
 *    BudgetTracker charged by every worker; the first bound tripped
 *    wins and stops the whole sweep, with the unfinished tests left
 *    unrecorded so a resume reruns them;
 *  - checkpoint/resume: with journalPath set, every outcome is
 *    appended to a crash-tolerant result journal
 *    (base/journal.hh); a sweep killed at any point resumes with
 *    resume=true, skips completed tests, and produces a report
 *    with the same per-test verdicts as an uninterrupted run.
 */

#ifndef LKMM_LKMM_BATCH_HH
#define LKMM_LKMM_BATCH_HH

#include <chrono>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "base/budget.hh"
#include "base/journal.hh"
#include "base/retry.hh"
#include "base/status.hh"
#include "exec/engine_config.hh"
#include "lkmm/runner.hh"

namespace lkmm
{

/** One test that could not produce a result at all. */
struct TestFailure
{
    std::string test;
    /** Which stage failed: "parse", "run", "cross-check", "spawn"
     *  (forking the sandbox child failed even after retries),
     *  "crash" (child died on a signal or without a result) or
     *  "timeout" (child SIGKILLed by the watchdog). */
    std::string phase;
    Status status;

    /** "LB+bad [parse]: parse-error: ...". */
    std::string toString() const;
};

/** A native-vs-reference verdict disagreement (cross-check mode). */
struct Divergence
{
    std::string test;
    Verdict primary = Verdict::Unknown;
    Verdict reference = Verdict::Unknown;

    std::string toString() const;
};

/** The outcome of one test that did run. */
struct BatchItemResult
{
    std::string name;
    RunResult result;
    /** Budget-escalation attempts (1 + escalations actually taken).
     *  Deterministic for a given test and budget, so it is part of
     *  the journaled record. */
    int attempts = 1;
    /**
     * Transient-failure retries absorbed along the way (backoff
     * retries that healed).  Deliberately NOT journaled: whether a
     * fork hit EAGAIN is environment noise, and recording it would
     * break the byte-identical-resume guarantee.
     */
    int transientRetries = 0;
};

/**
 * Everything one test contributed to a sweep: at most one result,
 * plus any failures (a cross-check failure can ride along with a
 * result) and divergences.  This is both the unit the forked child
 * ships back to the parent and the unit the journal replays on
 * resume (see lkmm/sweep_journal.hh).
 */
struct ItemOutcome
{
    std::optional<BatchItemResult> result;
    std::vector<TestFailure> failures;
    std::vector<Divergence> divergences;

    /**
     * A test is done (skippable on resume) once it has a terminal
     * record: a result, or a failure.
     */
    bool done() const { return result.has_value() || !failures.empty(); }
};

/** Everything a sweep produced. */
struct BatchReport
{
    std::vector<BatchItemResult> results;
    std::vector<TestFailure> failures;
    std::vector<Divergence> divergences;

    /** Tests recovered from the journal rather than re-run. */
    std::size_t resumedCount = 0;
    /** Was the sweep cut short by cancellation (Ctrl-C)? */
    bool cancelled = false;
    /**
     * The bound of BatchOptions::sweepBudget that stopped the sweep
     * (None when the sweep budget never fired).
     */
    BoundKind sweepBound = BoundKind::None;
    /** The seed the sweep ran under (BatchOptions::seed). */
    std::uint64_t seed = 1;

    /**
     * Enumerator counters summed over every result (including
     * journal-resumed ones) — per-worker stats merged by run().
     */
    Enumerator::Stats stats;

    std::size_t completeCount() const;
    std::size_t truncatedCount() const;

    /** One-line sweep summary for logs. */
    std::string summary() const;

    /** Result for a test by name (null when it failed or is absent). */
    const BatchItemResult *find(const std::string &name) const;
};

/** Where a queued test executes. */
enum class IsolationMode
{
    /** One forked, rlimited, watchdog-supervised child per test. */
    Forked,
    /**
     * In the calling process, `workers` tests at a time on a thread
     * pool: the fast mode for trusted corpora.  No crash protection
     * — one segfaulting test takes the sweep down, use Forked for
     * hostile input.
     */
    InProcessParallel,
};

struct BatchOptions
{
    /**
     * Engine selection and initial per-test budget (see
     * exec/engine_config.hh; unlimited budget by default).
     * engine.enumerate applies to every test, primary and
     * cross-check runs alike.
     */
    EngineConfig engine;
    /**
     * Retry/backoff/quarantine policy (see base/retry.hh).
     * retry.budgetRetries/budgetEscalation grant truncated tests
     * extra attempts at scaled budgets (the old maxRetries/
     * escalation knobs); retry.maxAttempts bounds backoff retries
     * of transient failures.
     */
    retry::RetryPolicy retry;
    /**
     * Reference model for cross-check mode (not owned; null
     * disables).  Must outlive the runner.
     */
    const Model *crossCheck = nullptr;

    /**
     * Factory for per-thread primary-model instances
     * (InProcessParallel).  When unset, the constructor's model is
     * shared across pool threads — sound for the stateless in-tree
     * models, but a factory (e.g. ModelRegistry::factoryFor) keeps
     * threads fully independent.
     */
    ModelFactory modelFactory;
    /**
     * Factory for per-thread reference-model instances; when unset,
     * pool threads share `crossCheck`.
     */
    ModelFactory crossCheckFactory;

    /** Execution mode; Forked adds crash isolation. */
    IsolationMode isolation = IsolationMode::InProcessParallel;
    /** Concurrent children (Forked) or threads (InProcessParallel). */
    int workers = 1;

    /**
     * Sweep-wide budget shared by every worker (unlimited by
     * default).  Enforced by one thread-safe BudgetTracker charged
     * alongside each per-test budget; the first bound tripped stops
     * the whole sweep (BatchReport::sweepBound), leaving unfinished
     * tests unrecorded so a resume reruns them.
     */
    RunBudget sweepBudget;
    /**
     * Per-child wall-clock deadline in forked mode (0 = none);
     * overruns are SIGKILLed by the parent watchdog.
     */
    std::chrono::nanoseconds taskDeadline{0};
    /** Per-child RLIMIT_CPU seconds in forked mode (0 = none). */
    unsigned taskCpuSeconds = 0;
    /**
     * Per-child RLIMIT_AS bytes in forked mode (0 = none).  Leave
     * unset under AddressSanitizer.
     */
    std::size_t taskMemoryBytes = 0;

    /**
     * Campaign seed, recorded in the journal meta record and the
     * report for provenance: one seed reproduces a whole pipeline
     * run (sweep plus any seeded downstream stage, e.g. lkmm-fuzz).
     * The axiomatic sweep itself is deterministic regardless.
     */
    std::uint64_t seed = 1;

    /** Result-journal path ("" disables journaling). */
    std::string journalPath;
    /**
     * Recover journalPath and skip tests it already covers; the
     * journal must have been written for the same model.  Without
     * resume an existing journal is truncated.
     */
    bool resume = false;
};

/** Runs a set of tests against one model, isolating failures. */
class BatchRunner
{
  public:
    /** The model is not owned and must outlive the runner. */
    explicit BatchRunner(const Model &model, BatchOptions opts = {});

    /**
     * Queue an already-built program.  Throws
     * StatusError(InvalidArgument) on a duplicate test name:
     * journal resume is keyed by name, so duplicates would silently
     * corrupt recovery.
     */
    void add(std::string name, Program prog);

    /**
     * Queue litmus source text.  Parsing happens inside run() with
     * failure isolation: a malformed test becomes a TestFailure in
     * the report, never an exception out of the sweep.  Duplicate
     * names are rejected as for add().
     */
    void addLitmusSource(std::string name, std::string source);

    std::size_t size() const { return items_.size(); }

    /**
     * Run the sweep.  Never throws on per-test errors; every queued
     * test ends up in exactly one of results or failures.  With a
     * cancel token in the budget, cancellation stops dispatching,
     * leaves the in-flight tests unrecorded (they rerun on resume;
     * forked children are killed, even hung ones without a task
     * deadline), and returns the partial report with
     * cancelled=true.  No forked child outlives run().
     */
    BatchReport run();

  private:
    struct Item
    {
        std::string name;
        /** Set for add(); unset for addLitmusSource(). */
        std::optional<Program> prog;
        std::string source;
    };

    void checkDuplicate(const std::string &name) const;
    bool cancelled() const;

    /**
     * Run fn under the transient-retry policy: transient failures
     * (see retry::classifyException) are retried with jittered
     * backoff up to retry.maxAttempts total attempts, unless the
     * test is quarantined.  Returns nullopt once fn succeeds, or
     * the definitive Status to record; transientRetries counts the
     * retries absorbed.
     */
    std::optional<Status>
    runWithRetry(const std::string &test, const char *phase,
                 int &transientRetries,
                 const std::function<void()> &fn) const;

    /**
     * Parse + run + cross-check one item against the given model
     * instances, charging `sweepTracker` (nullable) alongside the
     * per-test budget; nullopt on cancellation or sweep-budget
     * exhaustion (the item stays unrecorded and reruns on resume).
     */
    std::optional<ItemOutcome> runItem(Item &item, const Model &model,
                                       const Model *crossCheck,
                                       BudgetTracker *sweepTracker) const;

    /** Record one finished item (journal + outcome map). */
    static void record(const std::string &name, ItemOutcome outcome,
                       std::map<std::string, ItemOutcome> &outcomes,
                       journal::Writer *writer);

    void runParallel(std::vector<Item *> &pending,
                     std::map<std::string, ItemOutcome> &outcomes,
                     journal::Writer *writer, BatchReport &report,
                     BudgetTracker *sweepTracker);
    void runForked(std::vector<Item *> &pending,
                   std::map<std::string, ItemOutcome> &outcomes,
                   journal::Writer *writer, BatchReport &report,
                   BudgetTracker *sweepTracker);

    const Model &model_;
    BatchOptions opts_;
    std::vector<Item> items_;
    std::set<std::string> names_;
    /** Per-test distinct-failure ledger; thread-safe, shared by all
     *  workers of one run. */
    mutable retry::Quarantine quarantine_;
};

} // namespace lkmm

#endif // LKMM_LKMM_BATCH_HH
