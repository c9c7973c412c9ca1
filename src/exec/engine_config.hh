/**
 * @file
 * The one engine-knob struct shared by every front end.
 *
 * Four CLIs (lkmm-sweep, lkmm-fuzz, lkmm-serve, lkmm-chaos) drive
 * the same enumeration core, and before this header each grew its
 * own copy of the knobs: a RunBudget here, an EnumerateOptions
 * there, hand-rolled flag parsing everywhere.  EngineConfig owns
 * both halves — engine selection (EnumerateOptions) and resource
 * bounds (RunBudget) — plus the two things every consumer was
 * reimplementing:
 *
 *  - a canonical JSON form (toJson).  The serve verdict cache keys
 *    on it, and because json::Object is a sorted map the
 *    serialization is deterministic: equal configs, equal keys.
 *    Only the value knobs are serialized; the process-local budget
 *    plumbing (cancel token, shared sweep tracker) never travels.
 *    The serve worker frame does not carry this form: it sends the
 *    mode name and the budget fields with the wall clock in
 *    nanoseconds, because wall_clock_ms would round a
 *    sub-millisecond remaining deadline to 0, which means
 *    unlimited.
 *
 *  - one flag vocabulary (parseFlag/flagHelp).  All four CLIs
 *    accept the same --engine-family flags:
 *
 *        --engine MODE             rf-first (default) | brute
 *        --engine-time-limit-ms N  per-run wall-clock budget
 *        --engine-max-candidates N
 *        --engine-max-rf N
 */

#ifndef LKMM_EXEC_ENGINE_CONFIG_HH
#define LKMM_EXEC_ENGINE_CONFIG_HH

#include <functional>
#include <string>

#include "base/budget.hh"
#include "base/json.hh"
#include "exec/enumerate.hh"

namespace lkmm
{

/** Engine selection plus resource bounds for one verification run. */
struct EngineConfig
{
    /** Which engine: rf-first (production) or brute (reference). */
    EnumerateOptions enumerate;
    /** Resource bounds applied to each run. */
    RunBudget budget;

    /** "rf-first" or "brute". */
    std::string modeName() const;

    /**
     * Set enumerate from a mode name; throws
     * StatusError(InvalidArgument), naming the two valid modes, on
     * any other name.
     */
    void setMode(const std::string &name);

    /**
     * Canonical JSON: {"engine": mode, "max_candidates": N,
     * "max_rf": N, "wall_clock_ms": N}.  Pointer fields of the
     * budget (cancel, shared) are process-local and deliberately
     * not represented.
     */
    json::Object toJson() const;

    /**
     * Shared CLI parsing: when `arg` is an --engine-family flag,
     * consume it (reading its value via `next`, which throws or
     * exits when exhausted) into this config and return true;
     * return false for flags this family does not own.  Counts
     * must be plain decimal digits that fit the field; anything
     * else (a sign, an exponent, a suffix, an overflow) throws
     * StatusError(InvalidArgument) naming the flag, as does an
     * unknown mode.
     */
    bool parseFlag(const std::string &arg,
                   const std::function<std::string()> &next);

    /** Help text block describing the shared flags (for usage()). */
    static const char *flagHelp();
};

} // namespace lkmm

#endif // LKMM_EXEC_ENGINE_CONFIG_HH
