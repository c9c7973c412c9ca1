/**
 * @file
 * The fuzzing campaign driver behind tools/lkmm-fuzz.
 *
 * One campaign is a deterministic function of (--seed, --oracles,
 * --max-iters): iteration i derives its own Rng from mixSeed(seed,
 * i), draws a candidate (a diy random cycle or a mutated catalog
 * program), and runs it through every oracle inside the subprocess
 * sandbox.  Each pool thread has an oracle set and a SideWorker
 * (fuzz/oracle.hh): a candidate costs one request to its persistent
 * worker process, carrying every distinct side evaluation the
 * candidate needs, and a fresh one-shot child confirms each side of
 * a request the worker died on.  Findings are minimized
 * (fuzz/shrink.hh), deduplicated into signature buckets
 * (fuzz/triage.hh), appended to a crash-tolerant journal, and their
 * repros written to the corpus directory.  Because candidates depend
 * only on (seed, i), a resumed campaign replays the identical
 * candidate stream and skips straight to the first iteration the
 * journal has not marked complete.
 */

#ifndef LKMM_FUZZ_CAMPAIGN_HH
#define LKMM_FUZZ_CAMPAIGN_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "base/budget.hh"
#include "fuzz/oracle.hh"
#include "fuzz/triage.hh"

namespace lkmm::fuzz
{

/** Per-iteration candidate stream seed (SplitMix64 of seed, iter). */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t iter);

/**
 * The deterministic candidate of one iteration: a diy random cycle
 * (1 in 4) or a mutated catalog seed program, named "fuzz-<iter>".
 * nullopt when generation failed for this iteration (rare; the
 * campaign just moves on).  pool must be the same across runs for
 * reproducibility — runFuzz uses builtinSeedPrograms().
 */
std::optional<Program> candidateFor(std::uint64_t seed,
                                    std::uint64_t iter,
                                    const std::vector<Program> &pool);

struct FuzzOptions
{
    std::uint64_t seed = 1;
    std::uint64_t maxIters = 1000;
    /** Campaign wall-clock budget (0 = none). */
    std::chrono::nanoseconds timeBudget{0};
    /** Comma-separated oracle spec (makeOracles). */
    std::string oracles =
        "native-vs-cat,rf-first-vs-brute,mono-sc-lkmm";
    /** Override for the cat-model directory ("" = build default). */
    std::string catModelDir;
    /** Where bucket-representative repros land ("" = don't write). */
    std::string corpusDir;
    /** Campaign journal path ("" = no journal, no resume). */
    std::string journalPath;
    /**
     * Resume from journalPath instead of truncating it.  The
     * journal's seed and oracle spec are authoritative (they define
     * the candidate stream); maxIters becomes the larger of the
     * journal's and this request's, so a resume can also extend a
     * finished campaign.
     */
    bool resume = false;
    /**
     * Sandbox deadline and enumeration limits for each oracle side.
     * With isolate, the campaign forks one persistent side worker
     * per oracle set and sends it one request per candidate;
     * minimization and confirmation re-runs fork one one-shot child
     * per side.
     */
    OracleOptions oracle;
    /**
     * Candidate evaluations in flight (min 1).  With jobs > 1,
     * iterations are evaluated concurrently on a thread pool
     * (base/scheduler.hh), each pool thread with an oracle set and a
     * SideWorker (with oracle.isolate, a worker process) of its own.
     * Findings, minimization results, triage and the journal are
     * still processed strictly in iteration order, so a parallel
     * campaign reports and resumes exactly like the sequential one.
     */
    int jobs = 1;
    /** Minimize findings before recording them. */
    bool minimize = true;
    /** Predicate-evaluation cap per minimization. */
    std::size_t maxShrinkTests = 300;
    /** Cooperative cancellation (not owned; may be null). */
    const CancelToken *cancel = nullptr;
    /** Called for each finding (after minimization). */
    std::function<void(const FuzzFinding &)> onFinding;
};

struct FuzzReport
{
    std::uint64_t seed = 0;
    /** Resume point (0 for a fresh campaign). */
    std::uint64_t startIter = 0;
    /** Completed iterations, including recovered ones. */
    std::uint64_t iters = 0;
    /** Signature buckets, including recovered findings. */
    TriageDb triage;
    bool cancelled = false;
    bool timedOut = false;
    /**
     * Side-worker requests that failed (a death, an overrun or a
     * garbled reply) where no one-shot confirmation reproduced a
     * hard failure (SideWorker::unconfirmedDeaths, summed over the
     * workers): not findings, but a leaking or flaky worker shows up
     * here instead of being absorbed.
     */
    std::uint64_t unconfirmedDeaths = 0;
    /**
     * Requests sent to side workers, one per candidate with an
     * applicable oracle (0 in process).  Not in the summaries, which
     * read the same sandboxed and in process.
     */
    std::uint64_t workerRequests = 0;
};

/**
 * Run one campaign.  Throws StatusError for infrastructure problems
 * (bad oracle spec, unwritable journal/corpus); findings are data,
 * never exceptions.
 */
FuzzReport runFuzz(const FuzzOptions &opts);

} // namespace lkmm::fuzz

#endif // LKMM_FUZZ_CAMPAIGN_HH
