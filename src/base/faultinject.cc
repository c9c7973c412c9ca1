#include "base/faultinject.hh"

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <ctime>
#include <mutex>
#include <new>

#include <pthread.h>

#include "base/status.hh"
#include "base/strutil.hh"

namespace lkmm::faultinject
{

namespace
{

/**
 * Context filter (empty = match everything).  Guarded by a mutex;
 * the common disarmed path never takes it.
 */
std::mutex g_filter_mutex;
std::string g_filter;

/**
 * The active fault plans.  g_plan_active is the lock-free fast-path
 * gate: instrumented sites pay one relaxed load when no plan is
 * set.  The plan bodies and their hit counters live behind the
 * mutex; g_plan_fired survives clearPlan() so a caller can ask
 * whether the schedule tripped after the fact.  Each plan counts
 * passages of its own site and is removed when it fires, leaving
 * any others armed.
 */
struct ActivePlan
{
    FaultPlan plan;
    std::uint64_t hits = 0;
};

std::atomic<bool> g_plan_active{false};
std::atomic<bool> g_plan_fired{false};
std::mutex g_plan_mutex;
std::vector<ActivePlan> g_plans;
/** Passages of any planned site (the planHits() diagnostic). */
std::uint64_t g_plan_hits = 0;

/** Parse the LKMM_FAULT_* variables once, on first use of any site. */
std::once_flag g_env_once;

/*
 * A parallel fuzz campaign forks sandboxes from pool threads while
 * other threads pass armed sites, and a child forked while another
 * thread held one of the two mutexes would deadlock at its first
 * site.  Holding both across fork() hands the child unlocked
 * copies.  The two are never nested anywhere else, so taking filter
 * then plan cannot invert a lock order.
 */
void
lockForFork()
{
    g_filter_mutex.lock();
    g_plan_mutex.lock();
}

void
unlockAfterFork()
{
    g_plan_mutex.unlock();
    g_filter_mutex.unlock();
}

[[maybe_unused]] const int g_fork_handlers =
    ::pthread_atfork(lockForFork, unlockAfterFork, unlockAfterFork);

void
armFromEnv()
{
    const char *filter = std::getenv("LKMM_FAULT_INJECT_FILTER");
    if (filter && *filter)
        setFilter(filter);
    const char *plan = std::getenv("LKMM_FAULT_PLAN");
    if (plan && *plan)
        setPlans(FaultPlan::parseList(plan));
}

bool
filterMatches(const char *what)
{
    std::lock_guard<std::mutex> lock(g_filter_mutex);
    return g_filter.empty() || (what && g_filter == what);
}

[[noreturn]] void
spinForever()
{
    // Spin until a watchdog SIGKILL arrives; nanosleep keeps the
    // loop cheap without consuming the CPU rlimit.
    for (;;) {
        struct timespec ts = {0, 50 * 1000 * 1000};
        nanosleep(&ts, nullptr);
    }
}

/** What an instrumented site should do right now. */
struct PlanAction
{
    bool fire = false;
    FaultKind kind = FaultKind::Error;
    std::uint32_t tornBytes = 0;
};

/**
 * Advance the matching plans' hit counters for a passage of site
 * `id` and decide whether this passage trips.  Plans are one-shot:
 * a tripping plan is removed, and the active gate clears when the
 * last plan is gone.
 */
PlanAction
planCheck(const char *id, const char *what)
{
    std::call_once(g_env_once, armFromEnv);
    PlanAction action;
    if (!g_plan_active.load(std::memory_order_relaxed))
        return action;
    if (!filterMatches(what))
        return action;
    std::lock_guard<std::mutex> lock(g_plan_mutex);
    if (!g_plan_active.load(std::memory_order_relaxed))
        return action;
    for (std::size_t i = 0; i < g_plans.size(); ++i) {
        ActivePlan &ap = g_plans[i];
        if (ap.plan.site != id)
            continue;
        ++g_plan_hits;
        if (++ap.hits < ap.plan.hit)
            continue;
        g_plan_fired.store(true, std::memory_order_relaxed);
        action.fire = true;
        action.kind = ap.plan.kind;
        action.tornBytes = ap.plan.tornBytes;
        g_plans.erase(g_plans.begin() +
                      static_cast<std::ptrdiff_t>(i));
        if (g_plans.empty())
            g_plan_active.store(false, std::memory_order_relaxed);
        return action;
    }
    return action;
}

[[noreturn]] void
throwInjected(const char *id, const char *what)
{
    throw StatusError(Status(
        StatusCode::Internal,
        std::string("injected fault (error) at ") + id +
            (what ? std::string(": ") + what : std::string())));
}

/** Perform the kinds every entry point handles the same way. */
[[noreturn]] void
fireCommon(const PlanAction &action, const char *id, const char *what)
{
    switch (action.kind) {
      case FaultKind::Crash:
        // SIGKILL: die without flushing anything, the closest
        // emulation of power loss / OOM-kill available in-process.
        std::raise(SIGKILL);
        spinForever(); // unreachable (raise cannot return unkilled)
      case FaultKind::Hang:
        spinForever();
      case FaultKind::Enomem:
        throw std::bad_alloc();
      default:
        break;
    }
    throwInjected(id, what);
}

} // namespace

void
reset()
{
    setFilter("");
    {
        std::lock_guard<std::mutex> lock(g_plan_mutex);
        g_plans.clear();
        g_plan_active.store(false, std::memory_order_relaxed);
        g_plan_fired.store(false, std::memory_order_relaxed);
        g_plan_hits = 0;
    }
}

void
setFilter(const std::string &filter)
{
    std::lock_guard<std::mutex> lock(g_filter_mutex);
    g_filter = filter;
}

/* ------------------------------------------------------------------ */
/* Fault-site registry and fault plans                                */
/* ------------------------------------------------------------------ */

const char *
faultKindName(FaultKind k)
{
    switch (k) {
      case FaultKind::Error: return "error";
      case FaultKind::TornWrite: return "torn-write";
      case FaultKind::Crash: return "crash";
      case FaultKind::Hang: return "hang";
      case FaultKind::Eintr: return "eintr";
      case FaultKind::Enomem: return "enomem";
    }
    return "unknown";
}

std::optional<FaultKind>
faultKindFromName(const std::string &name)
{
    for (int i = 0; i < kNumFaultKinds; ++i) {
        const FaultKind k = static_cast<FaultKind>(i);
        if (name == faultKindName(k))
            return k;
    }
    return std::nullopt;
}

const std::vector<SiteInfo> &
siteRegistry()
{
    static const unsigned kErr = kindBit(FaultKind::Error);
    static const unsigned kTorn = kindBit(FaultKind::TornWrite);
    static const unsigned kCrash = kindBit(FaultKind::Crash);
    static const unsigned kHang = kindBit(FaultKind::Hang);
    static const unsigned kEintr = kindBit(FaultKind::Eintr);
    static const unsigned kMem = kindBit(FaultKind::Enomem);
    static const std::vector<SiteInfo> registry = {
        {site::kLitmusParse, "litmus parser entry", kErr | kMem},
        {site::kCatParse, "cat parser entry", kErr | kMem},
        {site::kCatEval, "cat evaluator entry", kErr | kMem},
        {site::kEnumerate, "candidate enumerator entry",
         kErr | kCrash | kHang | kMem},
        {site::kBatchItem, "batch runner, start of one test",
         kErr | kMem | kCrash | kHang},
        {site::kBatchParse, "batch runner, lazy litmus parse",
         kErr | kMem},
        {site::kBatchRecord, "batch runner, outcome recording",
         kErr | kMem},
        {site::kBatchAlloc,
         "batch runner, result allocation in the hot path", kMem},
        {site::kBatchChildDecode,
         "batch runner, forked-child payload decode", kErr},
        {site::kJournalCreate, "journal open(O_TRUNC) on create", kErr},
        {site::kJournalReopen, "journal open on resume", kErr},
        {site::kJournalTruncate, "journal torn-tail truncate", kErr},
        {site::kJournalWrite, "journal record append",
         kErr | kTorn | kCrash | kHang | kMem},
        {site::kJournalSync, "journal fdatasync", kErr},
        {site::kJournalDirSync, "journal parent-directory fsync", kErr},
        {site::kJournalRecover, "journal recovery scan", kErr},
        {site::kJsonSerialize, "canonical JSON serialization",
         kErr | kMem},
        {site::kJsonParse, "JSON parsing", kErr},
        {site::kSubprocessPipe, "sandbox socketpair()", kErr | kMem},
        {site::kSubprocessFork, "sandbox fork()", kErr | kMem},
        {site::kSubprocessChildWrite, "sandboxed child result write",
         kErr | kEintr},
        {site::kSubprocessRead, "parent channel read",
         kErr | kEintr},
        {site::kSubprocessKill, "watchdog SIGKILL", kErr},
        {site::kSubprocessWaitpid, "child reaping waitpid",
         kErr | kEintr},
        {site::kSubprocessPoll, "watchdog channel poll", kErr | kEintr},
        {site::kSchedulerPost, "thread-pool task post", kErr | kMem},
        {site::kSchedulerTask, "thread-pool task dispatch", kErr},
        {site::kSweepEncode, "sweep-journal record encode",
         kErr | kMem},
        {site::kSweepDecode, "sweep-journal record decode", kErr},
        {site::kFuzzJournal, "fuzz-campaign journal append",
         kErr | kMem},
        {site::kFuzzRepro, "fuzz repro corpus write", kErr},
        {site::kServeAccept, "serve daemon accept()", kErr | kEintr},
        {site::kServeRequestRead, "serve request-frame read",
         kErr | kEintr},
        {site::kServeResponseWrite, "serve response-frame write",
         kErr | kEintr},
        {site::kServeCacheWrite, "serve verdict-cache append",
         kErr | kCrash | kHang | kMem},
        {site::kServeWorkerSpawn,
         "serve worker-process spawn, before the sandbox spawn",
         kErr | kMem},
        {site::kServeWorkerDispatch,
         "serve worker dispatch round-trip framing (parent side)",
         kErr | kEintr},
        {site::kServeWorkerResult,
         "serve worker result write (worker side; crash/hang kill "
         "the worker, not the daemon)",
         kErr | kEintr | kCrash | kHang | kMem},
        {site::kServeWorkerRecycle,
         "serve worker retirement (recycle after N requests or RSS "
         "high-water)",
         kErr},
    };
    return registry;
}

const SiteInfo *
findSite(const std::string &id)
{
    for (const SiteInfo &info : siteRegistry()) {
        if (id == info.id)
            return &info;
    }
    return nullptr;
}

std::string
FaultPlan::toString() const
{
    std::string s =
        site + ":" + std::to_string(hit) + ":" + faultKindName(kind);
    if (kind == FaultKind::TornWrite)
        s += ":" + std::to_string(tornBytes);
    return s;
}

FaultPlan
FaultPlan::parse(const std::string &spec)
{
    const std::vector<std::string> parts = split(spec, ':');
    if (parts.size() < 3 || parts.size() > 4) {
        throw StatusError(Status(
            StatusCode::InvalidArgument,
            "bad fault plan '" + spec +
                "' (want site:hit:kind[:tornBytes])"));
    }
    FaultPlan plan;
    plan.site = trim(parts[0]);
    const SiteInfo *info = findSite(plan.site);
    if (!info) {
        throw StatusError(Status(StatusCode::InvalidArgument,
                                 "unknown fault site '" + plan.site +
                                     "' in plan '" + spec + "'"));
    }
    try {
        plan.hit = std::stoull(trim(parts[1]));
    } catch (const std::exception &) {
        plan.hit = 0;
    }
    if (plan.hit == 0) {
        throw StatusError(Status(
            StatusCode::InvalidArgument,
            "bad hit count in fault plan '" + spec + "' (1-based)"));
    }
    const std::optional<FaultKind> kind =
        faultKindFromName(trim(parts[2]));
    if (!kind) {
        throw StatusError(Status(StatusCode::InvalidArgument,
                                 "unknown fault kind in plan '" + spec +
                                     "'"));
    }
    plan.kind = *kind;
    if (!info->supports(plan.kind)) {
        throw StatusError(Status(
            StatusCode::InvalidArgument,
            "site '" + plan.site + "' does not support fault kind '" +
                faultKindName(plan.kind) + "'"));
    }
    if (parts.size() == 4) {
        try {
            plan.tornBytes = static_cast<std::uint32_t>(
                std::stoul(trim(parts[3])));
        } catch (const std::exception &) {
            throw StatusError(Status(
                StatusCode::InvalidArgument,
                "bad tornBytes in fault plan '" + spec + "'"));
        }
    }
    return plan;
}

std::vector<FaultPlan>
FaultPlan::parseList(const std::string &spec)
{
    std::vector<FaultPlan> plans;
    for (const std::string &piece : split(spec, ',')) {
        if (!trim(piece).empty())
            plans.push_back(parse(piece));
    }
    return plans;
}

void
setPlan(const FaultPlan &plan)
{
    setPlans({plan});
}

void
setPlans(const std::vector<FaultPlan> &plans)
{
    std::lock_guard<std::mutex> lock(g_plan_mutex);
    g_plans.clear();
    g_plans.reserve(plans.size());
    for (const FaultPlan &p : plans)
        g_plans.push_back(ActivePlan{p, 0});
    g_plan_hits = 0;
    g_plan_fired.store(false, std::memory_order_relaxed);
    g_plan_active.store(!g_plans.empty(),
                        std::memory_order_relaxed);
}

void
clearPlan()
{
    std::lock_guard<std::mutex> lock(g_plan_mutex);
    g_plans.clear();
    g_plan_active.store(false, std::memory_order_relaxed);
}

bool
planFired()
{
    return g_plan_fired.load(std::memory_order_relaxed);
}

std::uint64_t
planHits()
{
    std::lock_guard<std::mutex> lock(g_plan_mutex);
    return g_plan_hits;
}

void
checkSite(const char *id, const char *what)
{
    const PlanAction action = planCheck(id, what);
    if (!action.fire)
        return;
    // Eintr/TornWrite only make sense at their specialized entry
    // points; at a generic site they degrade to a plain error.
    fireCommon(action, id, what);
}

int
checkSiteErrno(const char *id, int errnoForError, const char *what)
{
    const PlanAction action = planCheck(id, what);
    if (!action.fire)
        return 0;
    switch (action.kind) {
      case FaultKind::Eintr:
        return EINTR;
      case FaultKind::Enomem:
        return ENOMEM;
      case FaultKind::Error:
        return errnoForError;
      default:
        fireCommon(action, id, what); // crash/hang act directly
    }
}

std::optional<std::uint32_t>
checkTornWrite(const char *id, const char *what)
{
    const PlanAction action = planCheck(id, what);
    if (!action.fire)
        return std::nullopt;
    if (action.kind == FaultKind::TornWrite)
        return action.tornBytes;
    fireCommon(action, id, what);
}

} // namespace lkmm::faultinject
