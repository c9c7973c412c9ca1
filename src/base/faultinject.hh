/**
 * @file
 * Deterministic fault injection: a fault-site registry plus
 * schedulable fault plans.
 *
 * The robustness layer (status taxonomy, batch failure isolation,
 * the journal, the fork sandbox, the retry policy) is only
 * trustworthy if its error paths run.  Every instrumented site has
 * a stable string id in the site registry (siteRegistry()), and a
 * fault plan (FaultPlan / setPlan) says "trip site S on its k-th hit
 * with fault F", where F ranges over FaultKind — error, torn-write,
 * crash, hang, EINTR, ENOMEM.  Plans are one-shot: a plan
 * deactivates when it fires, and planFired() reports whether it
 * did.  Plans are what tools/lkmm-chaos enumerates to systematically
 * explore the failure space (see DESIGN.md "Fault-schedule
 * exploration and retry policy").
 *
 * A crash or hang plan takes the whole process down, so it belongs
 * around sandboxed work: a forked sweep child, a serve worker or a
 * fuzz oracle side.  Each of them passes the "enumerate" site with
 * the test's name as context, so one plan plus a context filter
 * kills exactly the targeted test in any sandbox.  A forked child
 * inherits the plan with the parent's counter, which stays at zero
 * while the parent never passes a matching site.  A one-shot child
 * therefore starts every run from that count, while a persistent
 * child — a serve worker or lkmm-fuzz's side worker — keeps counting
 * across all the requests it serves: "enumerate:2:crash" filtered
 * to one fuzz candidate kills the side worker on the candidate's
 * second side, and never the one-shot child that re-runs that side
 * alone.  lkmm-fuzz counts such a death as unconfirmed instead of
 * reporting it.  A worker forked after a death starts again from
 * the parent's count.  A parallel campaign forks sandboxes from
 * pool threads, so the plan and filter locks are held across fork()
 * (pthread_atfork): a child forked from any thread finds them
 * unlocked.
 *
 * Arming is programmatic or via environment variables —
 * LKMM_FAULT_PLAN (comma-separated "site:hit:kind[:tornBytes]"
 * specs) and LKMM_FAULT_INJECT_FILTER (context filter) — useful for
 * exercising a release binary's failure handling and for planting a
 * plan in a forked child.
 *
 * The disarmed fast path of every entry point is a single relaxed
 * atomic load, so release-path overhead is negligible.
 */

#ifndef LKMM_BASE_FAULTINJECT_HH
#define LKMM_BASE_FAULTINJECT_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace lkmm::faultinject
{

/** Clear the context filter and every plan. */
void reset();

/**
 * Restrict firing to passages whose context string equals filter
 * (empty = fire anywhere).  The sandboxes pass the test name as
 * context, so a filter targets one test of a sweep, one request of
 * a serve daemon or one fuzz candidate.  A passage the filter
 * rejects neither fires nor advances any plan's hit counter.  Also
 * settable via LKMM_FAULT_INJECT_FILTER.
 */
void setFilter(const std::string &filter);

/* ------------------------------------------------------------------ */
/* Fault-site registry and fault plans                                */
/* ------------------------------------------------------------------ */

/** What a plan does when it trips. */
enum class FaultKind
{
    /** Throw StatusError(Internal) — or, at syscall-loop sites, make
     *  the wrapped call fail with the site's characteristic errno. */
    Error,
    /** Journal-write only: persist a prefix of the record, then fail
     *  — the classic crash-mid-append shape. */
    TornWrite,
    /** Die instantly (SIGKILL): nothing is flushed, the closest
     *  in-process emulation of power loss. */
    Crash,
    /** Spin until an external watchdog kills the process. */
    Hang,
    /** Syscall-loop sites: fail exactly one call with EINTR.  A
     *  correct retry loop makes this invisible. */
    Eintr,
    /** Throw std::bad_alloc (or fail a syscall with ENOMEM). */
    Enomem,
};

constexpr int kNumFaultKinds = 6;

/** Stable name: "error", "torn-write", "crash", "hang", "eintr",
 *  "enomem". */
const char *faultKindName(FaultKind k);

/** Inverse of faultKindName; nullopt for unknown names. */
std::optional<FaultKind> faultKindFromName(const std::string &name);

/** Bit for a kind in SiteInfo::kinds. */
constexpr unsigned
kindBit(FaultKind k)
{
    return 1u << static_cast<int>(k);
}

/** The stable site ids.  Every instrumented operation names one. */
namespace site
{
/* library entry points (enumerate also runs inside every sandbox) */
inline constexpr const char *kLitmusParse = "litmus-parse";
inline constexpr const char *kCatParse = "cat-parse";
inline constexpr const char *kCatEval = "cat-eval";
inline constexpr const char *kEnumerate = "enumerate";
/* batch runner */
inline constexpr const char *kBatchItem = "batch-item";
inline constexpr const char *kBatchParse = "batch-parse";
inline constexpr const char *kBatchRecord = "batch-record";
inline constexpr const char *kBatchAlloc = "batch-alloc";
inline constexpr const char *kBatchChildDecode = "batch-child-decode";
/* journal */
inline constexpr const char *kJournalCreate = "journal-create";
inline constexpr const char *kJournalReopen = "journal-reopen";
inline constexpr const char *kJournalTruncate = "journal-truncate";
inline constexpr const char *kJournalWrite = "journal-write";
inline constexpr const char *kJournalSync = "journal-sync";
inline constexpr const char *kJournalDirSync = "journal-dirsync";
inline constexpr const char *kJournalRecover = "journal-recover";
/* json */
inline constexpr const char *kJsonSerialize = "json-serialize";
inline constexpr const char *kJsonParse = "json-parse";
/* subprocess sandbox */
inline constexpr const char *kSubprocessPipe = "subprocess-pipe";
inline constexpr const char *kSubprocessFork = "subprocess-fork";
inline constexpr const char *kSubprocessChildWrite =
    "subprocess-child-write";
inline constexpr const char *kSubprocessRead = "subprocess-read";
inline constexpr const char *kSubprocessKill = "subprocess-kill";
inline constexpr const char *kSubprocessWaitpid = "subprocess-waitpid";
inline constexpr const char *kSubprocessPoll = "subprocess-poll";
/* scheduler */
inline constexpr const char *kSchedulerPost = "scheduler-post";
inline constexpr const char *kSchedulerTask = "scheduler-task";
/* sweep-journal schema */
inline constexpr const char *kSweepEncode = "sweep-encode";
inline constexpr const char *kSweepDecode = "sweep-decode";
/* fuzz campaign */
inline constexpr const char *kFuzzJournal = "fuzz-journal";
inline constexpr const char *kFuzzRepro = "fuzz-repro";
/* serve daemon */
inline constexpr const char *kServeAccept = "serve-accept";
inline constexpr const char *kServeRequestRead = "serve-request-read";
inline constexpr const char *kServeResponseWrite =
    "serve-response-write";
inline constexpr const char *kServeCacheWrite = "serve-cache-write";
/* serve worker tier (process-isolated execution) */
inline constexpr const char *kServeWorkerSpawn = "serve-worker-spawn";
inline constexpr const char *kServeWorkerDispatch =
    "serve-worker-dispatch";
inline constexpr const char *kServeWorkerResult =
    "serve-worker-result";
inline constexpr const char *kServeWorkerRecycle =
    "serve-worker-recycle";
} // namespace site

/** One entry of the fault-site registry. */
struct SiteInfo
{
    /** Stable id ("journal-write"). */
    const char *id;
    /** What the site instruments, for --list-sites. */
    const char *description;
    /** Bitmask of the FaultKinds this site can exhibit. */
    unsigned kinds;

    bool
    supports(FaultKind k) const
    {
        return (kinds & kindBit(k)) != 0;
    }
};

/** Every registered fault site, in stable order. */
const std::vector<SiteInfo> &siteRegistry();

/** Registry lookup by id; null for unknown ids. */
const SiteInfo *findSite(const std::string &id);

/** Trip site `site` on its hit-th passage with fault `kind`. */
struct FaultPlan
{
    /** A site id from the registry. */
    std::string site;
    /** 1-based passage count: trip on the hit-th hit. */
    std::uint64_t hit = 1;
    FaultKind kind = FaultKind::Error;
    /**
     * TornWrite only: how many bytes of the record to persist
     * before failing.
     */
    std::uint32_t tornBytes = 0;

    /** "journal-write:2:torn-write:7" — the LKMM_FAULT_PLAN syntax. */
    std::string toString() const;

    /**
     * Parse the toString() form.  Throws
     * StatusError(InvalidArgument) on unknown sites/kinds or a kind
     * the site does not support.
     */
    static FaultPlan parse(const std::string &spec);

    /**
     * Parse a comma-separated list of specs (the LKMM_FAULT_PLAN
     * syntax); empty elements are skipped.
     */
    static std::vector<FaultPlan> parseList(const std::string &spec);
};

/**
 * Activate a plan (replacing any previous ones) and clear the fired
 * flag.  The plan is checked — and its hit counter advanced — on
 * every passage of its site that matches the context filter; it
 * deactivates when it fires.
 */
void setPlan(const FaultPlan &plan);

/**
 * Activate several concurrent plans (replacing any previous ones)
 * and clear the fired flag.  Each plan counts passages of its own
 * site independently and deactivates alone when it fires; the
 * others stay armed.  planFired() reports whether *any* plan fired.
 */
void setPlans(const std::vector<FaultPlan> &plans);

/** Deactivate the plan without clearing the fired flag. */
void clearPlan();

/** Did the active-or-last plan trip?  Cleared by setPlan/reset. */
bool planFired();

/** Passages of the planned site seen so far (diagnostic). */
std::uint64_t planHits();

/**
 * A generic instrumented site: no-op unless the active plan targets
 * `id` and this is the hit-th passage, in which case the plan
 * deactivates and the fault fires: Error throws
 * StatusError(Internal), Enomem throws std::bad_alloc, Crash raises
 * SIGKILL, Hang spins until killed.  Eintr/TornWrite plans do not
 * fire here (they need the specialized entry points below).
 */
void checkSite(const char *id, const char *what = nullptr);

/**
 * A syscall-loop site: returns 0 normally, or the errno the wrapped
 * call should pretend to fail with — EINTR for an Eintr plan,
 * ENOMEM for Enomem, `errnoForError` (the site's characteristic
 * failure, e.g. EAGAIN for fork) for Error.  Crash/Hang plans fire
 * directly as in checkSite().
 */
int checkSiteErrno(const char *id, int errnoForError,
                   const char *what = nullptr);

/**
 * The journal-write site: nullopt normally; for a TornWrite plan on
 * its tripping hit, the number of record bytes to persist before
 * failing.  Other kinds fire as in checkSite()/checkSiteErrno().
 */
std::optional<std::uint32_t> checkTornWrite(const char *id,
                                            const char *what = nullptr);

} // namespace lkmm::faultinject

#endif // LKMM_BASE_FAULTINJECT_HH
