#include "chaos/chaos.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <thread>

#include <dirent.h>
#include <signal.h>
#include <sys/un.h>

#include "base/journal.hh"
#include "base/status.hh"
#include "base/subprocess.hh"
#include "fuzz/campaign.hh"
#include "litmus/printer.hh"
#include "lkmm/batch.hh"
#include "lkmm/catalog.hh"
#include "lkmm/sweep_journal.hh"
#include "model/lkmm_model.hh"
#include "serve/server.hh"

namespace lkmm::chaos
{

namespace fs = std::filesystem;
namespace site = faultinject::site;

const char *
scheduleStatusName(ScheduleStatus s)
{
    switch (s) {
    case ScheduleStatus::Passed:
        return "passed";
    case ScheduleStatus::NotReached:
        return "not-reached";
    case ScheduleStatus::Violation:
        return "violation";
    }
    return "?";
}

namespace
{

// Workloads (run inside the chaos child) -----------------------------

/**
 * Canonical serialization of a sweep report: everything a resumed
 * run must reproduce byte-for-byte.  Provenance that legitimately
 * differs between a fresh and a resumed run — resumedCount,
 * cancelled, transientRetries — is deliberately excluded.
 */
std::string
canonicalSweepContent(const BatchReport &report)
{
    std::vector<json::Value> results;
    for (const BatchItemResult &r : report.results)
        results.push_back(toJson(r));
    std::vector<json::Value> failures;
    for (const TestFailure &f : report.failures)
        failures.push_back(toJson(f));
    std::vector<json::Value> divergences;
    for (const Divergence &d : report.divergences)
        divergences.push_back(toJson(d));
    auto byTest = [](const json::Value &a, const json::Value &b) {
        if (a.getString("test") != b.getString("test"))
            return a.getString("test") < b.getString("test");
        return a.serialize() < b.serialize();
    };
    std::sort(results.begin(), results.end(), byTest);
    std::sort(failures.begin(), failures.end(), byTest);
    std::sort(divergences.begin(), divergences.end(), byTest);

    json::Object o;
    o["results"] =
        json::Value(json::Array(results.begin(), results.end()));
    o["failures"] =
        json::Value(json::Array(failures.begin(), failures.end()));
    o["divergences"] =
        json::Value(json::Array(divergences.begin(), divergences.end()));
    o["sweepBound"] = json::Value(boundKindName(report.sweepBound));
    o["seed"] = json::Value(report.seed);
    return json::Value(std::move(o)).serialize();
}

/** The catalog slice the sweep workloads run (stable order). */
std::vector<CatalogEntry>
sweepCorpus(const ChaosOptions &opts)
{
    std::vector<CatalogEntry> entries = table5();
    const std::size_t n =
        std::min(entries.size(), std::max<std::size_t>(opts.sweepTests, 2));
    entries.resize(n);
    return entries;
}

/**
 * The two-stage sweep: stage A writes a fresh journal covering the
 * first half of the corpus; stage B resumes the journal and runs the
 * full corpus.  A single child therefore exercises journal-create
 * AND the resume-only sites (journal-reopen/truncate/recover,
 * sweep-decode).  `resumeOnly` is the third chaos child, which must
 * finish whatever journal the faulted child left behind without
 * truncating it.
 */
std::string
runSweepWorkload(const ChaosOptions &opts, const std::string &journalPath,
                 bool forked, bool resumeOnly)
{
    const std::vector<CatalogEntry> corpus = sweepCorpus(opts);
    LkmmModel model;

    auto makeOpts = [&](bool resume) {
        BatchOptions bo;
        bo.engine = opts.engine;
        bo.journalPath = journalPath;
        bo.resume = resume;
        bo.seed = 1;
        if (forked) {
            bo.isolation = IsolationMode::Forked;
            bo.workers = 2;
            bo.taskDeadline = opts.taskDeadline;
        }
        return bo;
    };
    auto stage = [&](bool resume, std::size_t tests) {
        BatchRunner runner(model, makeOpts(resume));
        for (std::size_t i = 0; i < tests; ++i) {
            runner.add(corpus[i].prog.name, corpus[i].prog);
        }
        return runner.run();
    };

    if (!resumeOnly)
        stage(/*resume=*/false, corpus.size() / 2);
    const BatchReport full = stage(/*resume=*/true, corpus.size());
    return canonicalSweepContent(full);
}

/** Canonical fuzz content: seed, iteration watermark, buckets. */
std::string
canonicalFuzzContent(const fuzz::FuzzReport &report)
{
    json::Array buckets;
    for (const auto &entry : report.triage.buckets()) {
        json::Object b;
        b["signature"] = json::Value(entry.second.signature);
        b["count"] = json::Value(
            static_cast<std::int64_t>(entry.second.count));
        buckets.push_back(json::Value(std::move(b)));
    }
    json::Object o;
    o["seed"] = json::Value(report.seed);
    o["iters"] = json::Value(static_cast<std::int64_t>(report.iters));
    o["buckets"] = json::Value(std::move(buckets));
    return json::Value(std::move(o)).serialize();
}

/** Two-stage fuzz campaign: 4 fresh iterations, then resume to 8. */
std::string
runFuzzWorkload(const ChaosOptions &opts, const std::string &journalPath,
                const std::string &corpusDir, bool resumeOnly)
{
    fs::create_directories(corpusDir);
    auto makeOpts = [&](bool resume, std::uint64_t iters) {
        fuzz::FuzzOptions fo;
        fo.seed = 7;
        fo.maxIters = iters;
        fo.oracles = "mono-sc-lkmm";
        fo.journalPath = journalPath;
        fo.corpusDir = corpusDir;
        fo.resume = resume;
        fo.minimize = false;
        fo.jobs = 1;
        fo.oracle.isolate = false;
        fo.oracle.engine = opts.engine;
        return fo;
    };
    if (!resumeOnly)
        fuzz::runFuzz(makeOpts(/*resume=*/false, 4));
    const fuzz::FuzzReport full =
        fuzz::runFuzz(makeOpts(/*resume=*/true, 8));
    return canonicalFuzzContent(full);
}

/**
 * Where the serve workload's listening socket lives.  sun_path is
 * only ~108 bytes, so a deeply nested --workdir can overflow it; in
 * that case fall back to a short mkdtemp under /tmp (the journal —
 * the thing the chaos invariants inspect — stays in scheduleDir
 * regardless).
 */
std::string
serveSocketPath(const std::string &scheduleDir)
{
    const std::string preferred = scheduleDir + "/serve.sock";
    if (preferred.size() < sizeof(sockaddr_un::sun_path))
        return preferred;
    char tmpl[] = "/tmp/lkmm-chaos-serve-XXXXXX";
    if (mkdtemp(tmpl) == nullptr) {
        throw StatusError(Status(StatusCode::IoError,
                                 std::string("mkdtemp: ") +
                                     std::strerror(errno)));
    }
    return std::string(tmpl) + "/serve.sock";
}

/**
 * One verify request against a live daemon, with bounded retries.
 *
 * Fault plans are one-shot, so any transport failure or error
 * response (a torn accept, a dropped connection, a shed) must
 * succeed on a fresh connection; if it still fails after the retry
 * budget the schedule found a real stuck-client bug and we throw.
 * The 2 s receive timeout is what turns a wedged server into an
 * IoError instead of a hung child — hang-kind schedules then run
 * the retries dry and die by watchdog, which the exit taxonomy
 * expects.
 */
json::Value
serveRequest(const std::string &socketPath, const json::Value &req)
{
    std::string lastError;
    long sleepMs = 50;
    for (int attempt = 0; attempt < 6; ++attempt) {
        if (attempt > 0) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(sleepMs));
            sleepMs = 50;
        }
        try {
            serve::Client client = serve::Client::connect(socketPath);
            client.setTimeout(std::chrono::milliseconds(2000));
            json::Value resp = client.request(req);
            if (resp.getString("status") == "ok")
                return resp;
            lastError = resp.serialize();
            // The daemon's machine-readable retry hint (satellite of
            // the worker tier): retryable=false means retrying can
            // only reproduce the refusal — a quarantined poison pill
            // — so fail fast instead of burning the retry budget.
            if (!resp.getBool("retryable", true))
                break;
            if (const json::Value *after = resp.get("retry_after_ms");
                after && after->isInt() && after->asInt() > 0) {
                sleepMs = std::min<long>(
                    static_cast<long>(after->asInt()), 200);
            }
        } catch (const std::exception &e) {
            lastError = e.what();
        }
    }
    throw StatusError(Status(StatusCode::Internal,
                             "serve request did not succeed after "
                             "retries: " +
                                 lastError));
}

/**
 * Two-stage serve workload: stage A starts a daemon with its verdict
 * cache journaled at journalPath and verifies the first half of the
 * corpus (populating the cache); stage B restarts the daemon on the
 * same journal — the warm-recovery path — and verifies the full
 * corpus.  A crash-kind schedule at serve-cache-write is therefore
 * exactly the advertised kill -9 mid-append, and the resume child
 * proves the surviving journal prefix still yields byte-identical
 * verdicts.
 *
 * Canonical content is the sorted array of "result" objects only:
 * those are deterministic (no deadlines, so every run completes)
 * whether a given reply came from the cache or a fresh computation.
 */
std::string
runServeWorkload(const ChaosOptions &opts, const std::string &journalPath,
                 const std::string &scheduleDir, bool resumeOnly)
{
    std::vector<std::pair<std::string, std::string>> tests;
    for (const CatalogEntry &entry : sweepCorpus(opts)) {
        if (auto printed = tryPrintLitmus(entry.prog))
            tests.emplace_back(entry.prog.name, *printed);
    }
    if (tests.size() < 2) {
        throw StatusError(Status(StatusCode::Internal,
                                 "serve workload needs >=2 printable "
                                 "catalog tests"));
    }

    serve::ServeOptions so;
    so.engine = opts.engine;
    so.socketPath = serveSocketPath(scheduleDir);
    so.workers = 2;
    so.maxPending = 16;
    so.cache.path = journalPath;
    // Worker-tier knobs chosen so every serve-worker-* site is
    // reachable: recycling after every request drives the retirement
    // path, and the 3 s watchdog turns a worker-side injected hang
    // into a decoded Unknown{worker-timeout} instead of a wedged
    // daemon.  Forked workers inherit the armed plan, so a worker
    // kind (crash/hang at serve-worker-result) re-fires in every
    // fresh worker — the quarantine is what bounds that to a fast
    // retryable=false refusal.
    so.workerRecycleRequests = 1;
    so.workerDeadline = std::chrono::milliseconds(3000);

    auto stage = [&](std::size_t count, json::Array *out) {
        serve::Server server(so);
        server.start();
        for (std::size_t i = 0; i < count; ++i) {
            json::Object req;
            req["op"] = json::Value(std::string("verify"));
            req["litmus"] = json::Value(tests[i].second);
            const json::Value resp =
                serveRequest(so.socketPath, json::Value(std::move(req)));
            if (out != nullptr) {
                const json::Value *result = resp.get("result");
                if (result == nullptr) {
                    throw StatusError(Status(StatusCode::Internal,
                                             "ok response without result"));
                }
                out->push_back(*result);
            }
        }
        server.stop();
    };

    if (!resumeOnly)
        stage(tests.size() / 2, nullptr);
    json::Array results;
    stage(tests.size(), &results);

    std::sort(results.begin(), results.end(),
              [](const json::Value &a, const json::Value &b) {
                  return a.getString("test") < b.getString("test");
              });
    json::Object o;
    o["results"] = json::Value(std::move(results));
    return json::Value(std::move(o)).serialize();
}

std::string
runWorkload(const ChaosOptions &opts, const std::string &scheduleDir,
            bool resumeOnly)
{
    const std::string journalPath = scheduleDir + "/journal.jsonl";
    if (opts.workload == "sweep") {
        return runSweepWorkload(opts, journalPath, /*forked=*/false,
                                resumeOnly);
    }
    if (opts.workload == "sweep-forked") {
        return runSweepWorkload(opts, journalPath, /*forked=*/true,
                                resumeOnly);
    }
    if (opts.workload == "fuzz") {
        return runFuzzWorkload(opts, journalPath,
                               scheduleDir + "/corpus",
                               resumeOnly);
    }
    if (opts.workload == "serve") {
        return runServeWorkload(opts, journalPath, scheduleDir,
                                resumeOnly);
    }
    throw StatusError(Status(StatusCode::InvalidArgument,
                             "unknown chaos workload '" + opts.workload +
                                 "' (sweep, sweep-forked, fuzz, serve)"));
}

// Child protocol -----------------------------------------------------

/** What a chaos child ships back over its channel. */
struct ChildPayload
{
    std::string content; ///< canonical workload report ("" on error)
    std::string error;   ///< what() of the escaped exception ("" = none)
    bool fired = false;  ///< did the plan trip in this process?
};

/**
 * The child side: arm the plan, run the workload, and report what
 * happened as a JSON payload.  The plan is cleared (fired flag
 * preserved) BEFORE the payload is built, so a schedule targeting
 * e.g. json-serialize faults the workload, never the reporting.
 */
std::string
childPayload(const std::optional<faultinject::FaultPlan> &plan,
             const ChaosOptions &opts, const std::string &scheduleDir,
             bool resumeOnly)
{
    if (plan)
        faultinject::setPlan(*plan);
    std::string content;
    std::string error;
    try {
        content = runWorkload(opts, scheduleDir, resumeOnly);
    } catch (const std::exception &e) {
        error = e.what();
        if (error.empty())
            error = "exception with empty message";
    } catch (...) {
        error = "non-std exception";
    }
    const bool fired = faultinject::planFired();
    faultinject::clearPlan();
    try {
        json::Object o;
        o["content"] = json::Value(content);
        o["error"] = json::Value(error);
        o["fired"] = json::Value(fired);
        return json::Value(std::move(o)).serialize();
    } catch (...) {
        return std::string("{\"content\":\"\",\"error\":"
                           "\"payload serialization failed\",\"fired\":") +
               (fired ? "true}" : "false}");
    }
}

std::optional<ChildPayload>
parsePayload(const std::string &output)
{
    try {
        const json::Value v = json::Value::parse(output);
        ChildPayload p;
        p.content = v.getString("content");
        p.error = v.getString("error");
        p.fired = v.getBool("fired");
        return p;
    } catch (...) {
        return std::nullopt;
    }
}

// Parent-side supervision --------------------------------------------

/** Pids currently in process group `pgid` (scanned from /proc). */
std::vector<pid_t>
groupMembers(pid_t pgid)
{
    std::vector<pid_t> members;
    DIR *proc = ::opendir("/proc");
    if (!proc)
        return members;
    while (struct dirent *entry = ::readdir(proc)) {
        const char *name = entry->d_name;
        if (!std::isdigit(static_cast<unsigned char>(name[0])))
            continue;
        std::ifstream stat(std::string("/proc/") + name + "/stat");
        std::string line;
        if (!std::getline(stat, line))
            continue;
        // Field 2 (comm) may contain spaces; fields resume after the
        // last ')'.  Field 5 of the stat format — the 3rd token after
        // comm — is the process group id.
        const std::size_t close = line.rfind(')');
        if (close == std::string::npos)
            continue;
        long ppid = 0, pgrp = 0;
        char stateCh = 0;
        if (std::sscanf(line.c_str() + close + 1, " %c %ld %ld", &stateCh,
                        &ppid, &pgrp) != 3)
            continue;
        if (pgrp == static_cast<long>(pgid))
            members.push_back(static_cast<pid_t>(std::atoi(name)));
    }
    ::closedir(proc);
    return members;
}

/**
 * The no-leak invariant: shortly after the chaos child is reaped, no
 * process may remain in its group.  A short grace period absorbs the
 * window where a group-SIGKILLed grandchild is still a zombie being
 * reparented; anything that survives it is a leak (reported AND
 * cleaned up so one violation cannot poison later schedules).
 */
std::vector<pid_t>
scanForLeaks(pid_t pgid)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    for (;;) {
        std::vector<pid_t> members = groupMembers(pgid);
        if (members.empty())
            return members;
        if (std::chrono::steady_clock::now() >= deadline) {
            ::kill(-pgid, SIGKILL);
            return members;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
}

// Baseline-journal property checks -----------------------------------

std::optional<std::string>
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    return bytes;
}

/**
 * Crash-consistency property, proven exhaustively: the journal
 * truncated at EVERY byte offset recovers exactly the records whose
 * lines are intact within the prefix, and reports exactly their
 * total length as the trustworthy byte count.  Each prefix is
 * recovered from memory (journal::recoverBytes, the same decoder
 * journal::recover runs on a file's bytes), so the proof costs no
 * disk writes.
 */
void
checkTruncationAtEveryOffset(const std::string &journalBytes,
                             std::vector<std::string> &problems)
{
    std::vector<std::size_t> lineEnds;
    for (std::size_t i = 0; i < journalBytes.size(); ++i) {
        if (journalBytes[i] == '\n')
            lineEnds.push_back(i + 1);
    }
    for (std::size_t offset = 0; offset <= journalBytes.size(); ++offset) {
        std::size_t wantRecords = 0;
        std::size_t wantValid = 0;
        for (std::size_t end : lineEnds) {
            if (end > offset)
                break;
            ++wantRecords;
            wantValid = end;
        }
        try {
            const journal::RecoverResult rec =
                journal::recoverBytes(journalBytes.substr(0, offset));
            if (rec.records.size() != wantRecords ||
                rec.validBytes != wantValid) {
                problems.push_back(
                    "truncation at byte " + std::to_string(offset) +
                    ": recovered " + std::to_string(rec.records.size()) +
                    " records / " + std::to_string(rec.validBytes) +
                    " valid bytes, expected " +
                    std::to_string(wantRecords) + " / " +
                    std::to_string(wantValid));
                return; // one detailed report beats thousands
            }
        } catch (const std::exception &e) {
            problems.push_back("truncation at byte " +
                               std::to_string(offset) +
                               ": recover threw: " + e.what());
            return;
        }
    }
}

/**
 * Corruption-detection property: flip one digit inside a middle
 * record's data — the JSON stays well-formed, so only the CRC can
 * notice — and recovery must refuse that record and everything after
 * it.  Under --ablate-crc this check FAILS, which is the point: it
 * proves the suite would catch a silent CRC regression.
 */
void
checkCorruptionRejected(const std::string &journalBytes,
                        std::vector<std::string> &problems)
{
    std::vector<std::pair<std::size_t, std::size_t>> lines; // begin, end
    std::size_t begin = 0;
    for (std::size_t i = 0; i < journalBytes.size(); ++i) {
        if (journalBytes[i] == '\n') {
            lines.push_back({begin, i});
            begin = i + 1;
        }
    }
    if (lines.size() < 2) {
        problems.push_back("baseline journal has fewer than 2 records; "
                           "corruption check impossible");
        return;
    }
    // Corrupt the middle line: first digit after its "data" key.
    for (std::size_t victim = lines.size() / 2; victim < lines.size();
         ++victim) {
        const auto [b, e] = lines[victim];
        const std::size_t dataPos = journalBytes.find("\"data\"", b);
        if (dataPos == std::string::npos || dataPos >= e)
            continue;
        std::size_t flip = std::string::npos;
        for (std::size_t i = dataPos; i < e; ++i) {
            if (std::isdigit(
                    static_cast<unsigned char>(journalBytes[i]))) {
                flip = i;
                break;
            }
        }
        if (flip == std::string::npos)
            continue;
        std::string corrupted = journalBytes;
        corrupted[flip] =
            static_cast<char>('0' + (corrupted[flip] - '0' + 1) % 10);
        try {
            const journal::RecoverResult rec =
                journal::recoverBytes(corrupted);
            if (rec.records.size() != victim || !rec.droppedTail) {
                problems.push_back(
                    "corrupted record " + std::to_string(victim) +
                    " (digit flipped at byte " + std::to_string(flip) +
                    ") was not rejected: recovered " +
                    std::to_string(rec.records.size()) +
                    " records, expected " + std::to_string(victim) +
                    " — the CRC check is not protecting record data");
            }
        } catch (const std::exception &e) {
            problems.push_back("corrupted journal made recover throw "
                               "(should drop the tail): " +
                               std::string(e.what()));
        }
        return;
    }
    problems.push_back("no digit found inside any record data; "
                       "corruption check impossible");
}

/** Truncated results must degrade to Unknown, never a verdict. */
void
checkSoundDegradation(const std::string &content,
                      std::vector<std::string> &problems)
{
    json::Value v;
    try {
        v = json::Value::parse(content);
    } catch (...) {
        problems.push_back("baseline content is not valid JSON");
        return;
    }
    const json::Value *results = v.get("results");
    if (!results || !results->isArray())
        return; // fuzz workload: no per-test verdicts
    for (const json::Value &r : results->asArray()) {
        if (r.getString("completeness") == "truncated" &&
            r.getString("verdict") != "Unknown") {
            problems.push_back(
                "truncated result for '" + r.getString("test") +
                "' reports definite verdict '" + r.getString("verdict") +
                "' — truncation must degrade to Unknown");
        }
    }
}

// Report plumbing ----------------------------------------------------

void
writeRepro(const std::string &reproDir, const ScheduleResult &res)
{
    std::string name = res.plan.toString();
    for (char &c : name) {
        if (c == ':' || c == '/')
            c = '_';
    }
    std::ofstream out(reproDir + "/" + name + ".txt", std::ios::trunc);
    out << "plan: " << res.plan.toString() << "\n";
    out << "child: " << res.childOutcome << "\n";
    out << "repro: lkmm-chaos --plan " << res.plan.toString() << "\n";
    for (const std::string &p : res.problems)
        out << "violation: " << p << "\n";
}

} // namespace

std::vector<faultinject::FaultPlan>
enumerateSchedules(const ChaosOptions &opts)
{
    if (!opts.explicitPlans.empty())
        return opts.explicitPlans;
    const std::set<std::string> siteFilter(opts.sites.begin(),
                                           opts.sites.end());
    std::set<faultinject::FaultKind> kindFilter(opts.kinds.begin(),
                                                opts.kinds.end());
    std::vector<faultinject::FaultPlan> plans;
    for (const faultinject::SiteInfo &info : faultinject::siteRegistry()) {
        if (!siteFilter.empty() && !siteFilter.count(info.id))
            continue;
        for (int k = 0; k < faultinject::kNumFaultKinds; ++k) {
            const auto kind = static_cast<faultinject::FaultKind>(k);
            if (!info.supports(kind))
                continue;
            if (!kindFilter.empty() && !kindFilter.count(kind))
                continue;
            for (int hit = 1; hit <= std::max(1, opts.maxHits); ++hit) {
                faultinject::FaultPlan plan;
                plan.site = info.id;
                plan.hit = static_cast<std::uint64_t>(hit);
                plan.kind = kind;
                if (kind == faultinject::FaultKind::TornWrite) {
                    for (std::uint32_t torn : opts.tornOffsets) {
                        plan.tornBytes = torn;
                        plans.push_back(plan);
                    }
                } else {
                    plans.push_back(plan);
                }
            }
        }
    }
    if (opts.maxSchedules > 0 && plans.size() > opts.maxSchedules)
        plans.resize(opts.maxSchedules);
    return plans;
}

std::size_t
ChaosReport::passedCount() const
{
    return static_cast<std::size_t>(std::count_if(
        schedules.begin(), schedules.end(), [](const ScheduleResult &s) {
            return s.status == ScheduleStatus::Passed;
        }));
}

std::size_t
ChaosReport::notReachedCount() const
{
    return static_cast<std::size_t>(std::count_if(
        schedules.begin(), schedules.end(), [](const ScheduleResult &s) {
            return s.status == ScheduleStatus::NotReached;
        }));
}

std::size_t
ChaosReport::violationCount() const
{
    return static_cast<std::size_t>(std::count_if(
        schedules.begin(), schedules.end(), [](const ScheduleResult &s) {
            return s.status == ScheduleStatus::Violation;
        }));
}

bool
ChaosReport::ok() const
{
    return fatal.empty() && journalCheckProblems.empty() &&
           violationCount() == 0;
}

std::string
ChaosReport::summary() const
{
    std::string out = "chaos: " + std::to_string(schedules.size()) +
                      " schedules, " + std::to_string(passedCount()) +
                      " passed, " + std::to_string(notReachedCount()) +
                      " not reached, " +
                      std::to_string(violationCount()) + " violations, " +
                      std::to_string(journalCheckProblems.size()) +
                      " journal-check failures";
    if (!fatal.empty())
        out += ", FATAL: " + fatal;
    return out;
}

json::Value
ChaosReport::toJson() const
{
    json::Array sched;
    for (const ScheduleResult &s : schedules) {
        json::Object o;
        o["plan"] = json::Value(s.plan.toString());
        o["status"] = json::Value(scheduleStatusName(s.status));
        o["child"] = json::Value(s.childOutcome);
        json::Array problems;
        for (const std::string &p : s.problems)
            problems.push_back(json::Value(p));
        o["problems"] = json::Value(std::move(problems));
        sched.push_back(json::Value(std::move(o)));
    }
    json::Array journalProblems;
    for (const std::string &p : journalCheckProblems)
        journalProblems.push_back(json::Value(p));
    json::Object o;
    o["schedules"] = json::Value(std::move(sched));
    o["journalChecks"] = json::Value(std::move(journalProblems));
    o["passed"] = json::Value(passedCount());
    o["notReached"] = json::Value(notReachedCount());
    o["violations"] = json::Value(violationCount());
    o["ok"] = json::Value(ok());
    if (!fatal.empty())
        o["fatal"] = json::Value(fatal);
    return json::Value(std::move(o));
}

ChaosReport
runChaos(const ChaosOptions &opts)
{
    ChaosReport report;
    if (opts.workdir.empty()) {
        throw StatusError(Status(StatusCode::InvalidArgument,
                                 "chaos: workdir is required"));
    }
    fs::create_directories(opts.workdir);
    if (!opts.reproDir.empty())
        fs::create_directories(opts.reproDir);
    if (opts.ablateCrc)
        journal::testing::setCrcChecksDisabled(true);

    subprocess::Limits limits;
    limits.deadline = opts.childDeadline;
    limits.newProcessGroup = true;

    // Baseline: the fault-free reference run, itself sandboxed so
    // its environment matches the faulted runs exactly.
    const std::string baselineDir = opts.workdir + "/baseline";
    fs::create_directories(baselineDir);
    const subprocess::Outcome baselineOutcome = subprocess::runIsolated(
        [&] {
            return childPayload(std::nullopt, opts, baselineDir,
                                /*resumeOnly=*/false);
        },
        limits);
    scanForLeaks(baselineOutcome.pid);
    const std::optional<ChildPayload> baseline =
        baselineOutcome.ok() ? parsePayload(baselineOutcome.output)
                             : std::nullopt;
    if (!baseline || !baseline->error.empty() ||
        baseline->content.empty()) {
        report.fatal =
            "baseline run failed: " + baselineOutcome.describe() +
            (baseline && !baseline->error.empty()
                 ? " (" + baseline->error + ")"
                 : "");
        if (opts.ablateCrc)
            journal::testing::setCrcChecksDisabled(false);
        return report;
    }

    // Once-per-workload journal properties, proven on the baseline
    // journal: every-offset truncation and corruption rejection.
    const std::string baselineJournal = baselineDir + "/journal.jsonl";
    if (const std::optional<std::string> bytes =
            readFileBytes(baselineJournal)) {
        checkTruncationAtEveryOffset(*bytes, report.journalCheckProblems);
        checkCorruptionRejected(*bytes, report.journalCheckProblems);
    } else {
        report.journalCheckProblems.push_back(
            "baseline journal missing at " + baselineJournal);
    }
    checkSoundDegradation(baseline->content,
                          report.journalCheckProblems);

    // The schedule loop: one faulted child + one resume child per
    // plan, with the full invariant battery in between.
    const std::vector<faultinject::FaultPlan> plans =
        enumerateSchedules(opts);
    std::size_t index = 0;
    for (const faultinject::FaultPlan &plan : plans) {
        ScheduleResult res;
        res.plan = plan;

        const std::string dir =
            opts.workdir + "/s" + std::to_string(index++);
        fs::remove_all(dir);
        fs::create_directories(dir);

        const subprocess::Outcome faulted = subprocess::runIsolated(
            [&] {
                return childPayload(plan, opts, dir,
                                    /*resumeOnly=*/false);
            },
            limits);
        res.childOutcome = faulted.describe();
        const std::optional<ChildPayload> payload =
            faulted.kind == subprocess::ExitKind::Exited &&
                    faulted.exitCode == 0
                ? parsePayload(faulted.output)
                : std::nullopt;

        // Invariant: exit taxonomy.  Each fault kind has a closed
        // set of acceptable endings; Exited(0) is always acceptable
        // because a fault absorbed by a retry, recorded as a
        // failure, or contained by the sweep's own sandbox is a
        // success of the robustness layer, not a violation.
        using subprocess::ExitKind;
        const bool exitedClean =
            faulted.kind == ExitKind::Exited && faulted.exitCode == 0;
        switch (plan.kind) {
        case faultinject::FaultKind::Crash:
            if (!exitedClean &&
                !(faulted.kind == ExitKind::Signaled &&
                  faulted.signal == SIGKILL)) {
                res.problems.push_back(
                    "crash fault must die by SIGKILL or be contained "
                    "(got " +
                    faulted.describe() + ")");
            }
            break;
        case faultinject::FaultKind::Hang:
            if (!exitedClean && faulted.kind != ExitKind::TimedOut) {
                res.problems.push_back(
                    "hang fault must be reaped by a watchdog or "
                    "contained (got " +
                    faulted.describe() + ")");
            }
            break;
        default:
            // Soft faults must never kill the process: either the
            // workload absorbs/records them (exit 0) or the sandbox
            // callback-error path reports them (kCallbackError).
            if (!exitedClean &&
                !(faulted.kind == ExitKind::Exited &&
                  faulted.exitCode ==
                      subprocess::Child::kCallbackError)) {
                res.problems.push_back(
                    "soft fault escaped the robustness layer (got " +
                    faulted.describe() + ")");
            }
            break;
        }
        if (exitedClean && !payload) {
            res.problems.push_back(
                "child exited 0 without a parseable payload");
        }

        // Invariant: no process leaked.  The child led its own
        // process group; after the reap the group must be empty.
        const std::vector<pid_t> leaked = scanForLeaks(faulted.pid);
        if (!leaked.empty()) {
            res.problems.push_back(
                std::to_string(leaked.size()) +
                " process(es) leaked in group " +
                std::to_string(faulted.pid));
        }

        // Invariant: whatever the fault left on disk, recovery
        // succeeds (a missing journal is an empty one).
        const std::string journalPath = dir + "/journal.jsonl";
        try {
            journal::recover(journalPath);
        } catch (const std::exception &e) {
            res.problems.push_back(
                "journal unrecoverable after fault: " +
                std::string(e.what()));
        }

        // Invariant: a resumed run reproduces the reference report
        // byte-for-byte.  The reference is the faulted run's own
        // report when it completed one (the fault was absorbed or
        // recorded in-band); the baseline report when the fault
        // killed the run mid-flight (the journal must carry the
        // resume back to exactly the fault-free result).
        const bool faultedCompleted = payload &&
                                      payload->error.empty() &&
                                      !payload->content.empty();
        const std::string &reference = faultedCompleted
                                           ? payload->content
                                           : baseline->content;
        const subprocess::Outcome resumed = subprocess::runIsolated(
            [&] {
                return childPayload(std::nullopt, opts, dir,
                                    /*resumeOnly=*/true);
            },
            limits);
        scanForLeaks(resumed.pid);
        const std::optional<ChildPayload> resumePayload =
            resumed.ok() ? parsePayload(resumed.output) : std::nullopt;
        if (!resumePayload || !resumePayload->error.empty() ||
            resumePayload->content.empty()) {
            res.problems.push_back(
                "resume after fault failed: " + resumed.describe() +
                (resumePayload && !resumePayload->error.empty()
                     ? " (" + resumePayload->error + ")"
                     : ""));
        } else if (resumePayload->content != reference) {
            res.problems.push_back(
                "resume report differs from the " +
                std::string(faultedCompleted ? "faulted" : "baseline") +
                " report — crash consistency violated");
        }

        // Classification.  "fired" only reflects this child's own
        // process: a plan that tripped in a sweep grandchild shows
        // fired=false here but a content difference proves it had an
        // effect, so NotReached additionally requires the faulted
        // report to be byte-identical to the baseline.
        const bool fired =
            (payload && payload->fired) || !exitedClean;
        if (!res.problems.empty()) {
            res.status = ScheduleStatus::Violation;
        } else if (!fired && faultedCompleted &&
                   payload->content == baseline->content) {
            res.status = ScheduleStatus::NotReached;
        } else {
            res.status = ScheduleStatus::Passed;
        }
        if (res.status == ScheduleStatus::Violation &&
            !opts.reproDir.empty()) {
            writeRepro(opts.reproDir, res);
        }
        report.schedules.push_back(std::move(res));
    }

    if (opts.ablateCrc)
        journal::testing::setCrcChecksDisabled(false);
    return report;
}

} // namespace lkmm::chaos
