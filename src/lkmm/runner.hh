/**
 * @file
 * Running litmus tests against models: the herd verdict machinery.
 *
 * A test's verdict under a model is Allow when some candidate
 * execution satisfying the model's axioms also satisfies the test's
 * exists clause, Forbid otherwise (Table 5's "Model" column).
 */

#ifndef LKMM_LKMM_RUNNER_HH
#define LKMM_LKMM_RUNNER_HH

#include <optional>
#include <set>
#include <string>

#include "exec/enumerate.hh"
#include "model/model.hh"

namespace lkmm
{

/**
 * Verdict of a litmus test under a model.
 *
 * Unknown is the degraded verdict of a truncated (budgeted) run
 * whose evidence is inconclusive: reporting Allow or Forbid there
 * would be silently wrong.  Complete runs never yield Unknown.
 */
enum class Verdict
{
    Allow,
    Forbid,
    Unknown,
};

constexpr int kNumVerdicts = 3;

inline const char *
verdictName(Verdict v)
{
    switch (v) {
      case Verdict::Allow: return "Allow";
      case Verdict::Forbid: return "Forbid";
      case Verdict::Unknown: return "Unknown";
    }
    return "?";
}

/** Inverse of verdictName; nullopt for unknown names. */
inline std::optional<Verdict>
verdictFromName(const std::string &name)
{
    for (int i = 0; i < kNumVerdicts; ++i) {
        const Verdict v = static_cast<Verdict>(i);
        if (name == verdictName(v))
            return v;
    }
    return std::nullopt;
}

/** Everything the runner learned about one test under one model. */
struct RunResult
{
    Verdict verdict = Verdict::Forbid;

    /** Total consistent candidates enumerated. */
    std::size_t candidates = 0;
    /** Candidates passing the model's axioms. */
    std::size_t allowedCandidates = 0;
    /** Candidates passing the axioms *and* the exists clause. */
    std::size_t witnesses = 0;

    /** Distinct final states among model-allowed candidates. */
    std::set<std::string> allowedFinalStates;

    /**
     * When the test is forbidden: why the condition-satisfying
     * candidates were rejected (the first axiom violation seen).
     */
    std::optional<Violation> sampleViolation;
    /** Human-readable rendering of sampleViolation. */
    std::string violationText;

    /** A witness execution when the verdict is Allow. */
    std::optional<CandidateExecution> witness;

    /** Did the enumeration cover the whole search space? */
    Completeness completeness = Completeness::Complete;
    /** The budget bound that truncated the run (None if complete). */
    BoundKind trippedBound = BoundKind::None;

    /**
     * Enumerator-side counters for this run (path combos, rf
     * assignments, valuation rejects, raw candidates).  Parallel
     * sweeps merge these across workers into the batch report.
     */
    Enumerator::Stats stats;

    bool
    truncated() const
    {
        return completeness == Completeness::Truncated;
    }
};

/**
 * Run one program against one model, optionally under a budget.
 *
 * With a budget, the verdict degrades gracefully on truncation
 * instead of being silently wrong:
 *  - exists: a witness already found still proves Allow; otherwise
 *    a truncated run reports Unknown (the witness may lie in the
 *    unexplored part).
 *  - forall: a counterexample already found still proves Forbid;
 *    otherwise a truncated run reports Unknown.
 */
RunResult runTest(const Program &prog, const Model &model,
                  const RunBudget &budget = RunBudget::unlimited(),
                  const EnumerateOptions &opts = {});

/**
 * Fast verdict: stops at the first decisive candidate — the first
 * witness for an exists test, the first counterexample for a forall
 * test.  Used by the soundness sweeps in bench/ and the fuzz oracles
 * where only Allow/Forbid matters.  Under a budget the same
 * degradation as runTest applies.  This is the `fast` mode of the
 * same core loop runTest uses; there is exactly one
 * enumerate-and-filter implementation in the tree.
 */
Verdict quickVerdict(const Program &prog, const Model &model,
                     const RunBudget &budget = RunBudget::unlimited(),
                     const EnumerateOptions &opts = {});

} // namespace lkmm

#endif // LKMM_LKMM_RUNNER_HH
