#include "lkmm/batch.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <thread>

#include "base/faultinject.hh"
#include "base/rng.hh"
#include "base/scheduler.hh"
#include "base/strutil.hh"
#include "base/subprocess.hh"
#include "litmus/parser.hh"
#include "lkmm/sweep_journal.hh"

namespace lkmm
{

std::string
TestFailure::toString() const
{
    return test + " [" + phase + "]: " + status.toString();
}

std::string
Divergence::toString() const
{
    return test + ": primary=" + verdictName(primary) +
        " reference=" + verdictName(reference);
}

std::size_t
BatchReport::completeCount() const
{
    std::size_t n = 0;
    for (const BatchItemResult &r : results) {
        if (!r.result.truncated())
            ++n;
    }
    return n;
}

std::size_t
BatchReport::truncatedCount() const
{
    return results.size() - completeCount();
}

std::string
BatchReport::summary() const
{
    std::string s = format("%zu tests: %zu complete, %zu truncated, "
                           "%zu failed, %zu divergences",
                           results.size() + failures.size(),
                           completeCount(), truncatedCount(),
                           failures.size(), divergences.size());
    if (resumedCount)
        s += format(" (%zu resumed from journal)", resumedCount);
    if (cancelled)
        s += " [cancelled]";
    if (sweepBound != BoundKind::None)
        s += format(" [sweep budget: %s]", boundKindName(sweepBound));
    return s;
}

const BatchItemResult *
BatchReport::find(const std::string &name) const
{
    for (const BatchItemResult &r : results) {
        if (r.name == name)
            return &r;
    }
    return nullptr;
}

BatchRunner::BatchRunner(const Model &model, BatchOptions opts)
    : model_(model), opts_(std::move(opts)),
      quarantine_(opts_.retry.quarantineDistinctSignatures)
{
}

void
BatchRunner::checkDuplicate(const std::string &name) const
{
    if (names_.count(name)) {
        throw StatusError(Status(
            StatusCode::InvalidArgument,
            "duplicate test name '" + name +
                "': journal resume is keyed by name"));
    }
}

void
BatchRunner::add(std::string name, Program prog)
{
    checkDuplicate(name);
    Item item;
    item.name = std::move(name);
    item.prog = std::move(prog);
    names_.insert(item.name);
    items_.push_back(std::move(item));
}

void
BatchRunner::addLitmusSource(std::string name, std::string source)
{
    checkDuplicate(name);
    Item item;
    item.name = std::move(name);
    item.source = std::move(source);
    names_.insert(item.name);
    items_.push_back(std::move(item));
}

bool
BatchRunner::cancelled() const
{
    return opts_.engine.budget.cancel && opts_.engine.budget.cancel->cancelled();
}

std::optional<Status>
BatchRunner::runWithRetry(const std::string &test, const char *phase,
                          int &transientRetries,
                          const std::function<void()> &fn) const
{
    const retry::RetryPolicy &policy = opts_.retry;
    // Jitter is deterministic per (seed, test, phase) so a replayed
    // schedule backs off identically.
    Rng rng(opts_.seed ^ std::hash<std::string>{}(test) ^
            std::hash<std::string>{}(phase));
    for (int attempt = 1;; ++attempt) {
        try {
            fn();
            return std::nullopt;
        } catch (const std::exception &e) {
            const Status status = statusOf(e);
            const bool transient = retry::classifyException(e) ==
                                   retry::FailureClass::Transient;
            if (transient && attempt < policy.maxAttempts &&
                !quarantine_.quarantined(test)) {
                const auto delay = policy.delayBefore(attempt, rng);
                if (delay.count() > 0)
                    std::this_thread::sleep_for(delay);
                ++transientRetries;
                continue;
            }
            // Definitive: remember the signature so a task failing
            // in ever-new ways eventually stops earning retries.
            quarantine_.record(test,
                               retry::failureSignature(phase, status));
            if (quarantine_.quarantined(test)) {
                return Status(
                    status.code(),
                    status.message() +
                        format(" [quarantined after %zu distinct "
                               "failures]",
                               quarantine_.distinctFailures(test)));
            }
            return status;
        }
    }
}

std::optional<ItemOutcome>
BatchRunner::runItem(Item &item, const Model &model,
                     const Model *crossCheck,
                     BudgetTracker *sweepTracker) const
{
    ItemOutcome outcome;

    // Parse stage (failure-isolated; transient faults retried).
    if (!item.prog) {
        int parseRetries = 0;
        std::optional<Status> failed =
            runWithRetry(item.name, "parse", parseRetries, [&] {
                faultinject::checkSite(faultinject::site::kBatchParse,
                                       item.name.c_str());
                item.prog = parseLitmus(item.source);
            });
        if (failed) {
            outcome.failures.push_back(
                TestFailure{item.name, "parse", std::move(*failed)});
            return outcome;
        }
    }

    // Run stage: transient failures heal via runWithRetry's backoff;
    // truncation follows the deterministic escalating-budget
    // schedule, whose attempt count is journaled.
    BatchItemResult res;
    res.name = item.name;
    RunBudget budget = opts_.engine.budget;
    budget.shared = sweepTracker;
    for (;;) {
        std::optional<Status> failed =
            runWithRetry(item.name, "run", res.transientRetries, [&] {
                faultinject::checkSite(faultinject::site::kBatchItem,
                                       item.name.c_str());
                res.result = runTest(*item.prog, model, budget,
                                     opts_.engine.enumerate);
                // The allocation-failure hook in the hot path: an
                // injected ENOMEM here models the result-copy
                // allocation failing after a completed search.
                faultinject::checkSite(faultinject::site::kBatchAlloc,
                                       item.name.c_str());
            });
        if (failed) {
            outcome.failures.push_back(
                TestFailure{item.name, "run", std::move(*failed)});
            return outcome;
        }
        if (res.result.truncated() &&
            (res.result.trippedBound == BoundKind::Cancelled ||
             res.result.trippedBound == BoundKind::SweepBudget)) {
            // Cancellation and sweep-budget exhaustion are not
            // per-test properties; the caller drops the item so
            // a resume reruns it.
            return std::nullopt;
        }
        if (!res.result.truncated() ||
            res.attempts > opts_.retry.budgetRetries) {
            break;
        }
        budget = budget.scaled(opts_.retry.budgetEscalation);
        budget.shared = sweepTracker;
        ++res.attempts;
    }

    // Cross-check stage: divergences are recorded, not thrown; an
    // error in the reference model is a TestFailure for this test
    // but the primary result stands.
    if (crossCheck && !res.result.truncated()) {
        try {
            RunBudget refBudget = opts_.engine.budget;
            refBudget.shared = sweepTracker;
            RunResult ref = runTest(*item.prog, *crossCheck, refBudget,
                                    opts_.engine.enumerate);
            if (ref.truncated() &&
                (ref.trippedBound == BoundKind::Cancelled ||
                 ref.trippedBound == BoundKind::SweepBudget)) {
                return std::nullopt;
            }
            if (!ref.truncated() && ref.verdict != res.result.verdict) {
                outcome.divergences.push_back(Divergence{
                    item.name, res.result.verdict, ref.verdict});
            }
        } catch (const std::exception &e) {
            outcome.failures.push_back(
                TestFailure{item.name, "cross-check", statusOf(e)});
        }
    }

    outcome.result = std::move(res);
    return outcome;
}

void
BatchRunner::record(const std::string &name, ItemOutcome outcome,
                    std::map<std::string, ItemOutcome> &outcomes,
                    journal::Writer *writer)
{
    faultinject::checkSite(faultinject::site::kBatchRecord,
                           name.c_str());
    if (writer) {
        for (const json::Value &rec : toRecords(outcome))
            writer->append(rec);
    }
    outcomes[name] = std::move(outcome);
}

void
BatchRunner::runParallel(std::vector<Item *> &pending,
                         std::map<std::string, ItemOutcome> &outcomes,
                         journal::Writer *writer, BatchReport &report,
                         BudgetTracker *sweepTracker)
{
    const std::size_t jobs =
        static_cast<std::size_t>(std::max(1, opts_.workers));

    // One model instance per pool thread, picked by the thread index
    // parallelIndexed passes each task: a running task has its
    // thread's primary (and reference) instance to itself.
    std::vector<std::unique_ptr<Model>> primaries;
    std::vector<std::unique_ptr<Model>> references;
    for (std::size_t i = 0; i < jobs; ++i) {
        primaries.push_back(opts_.modelFactory ? opts_.modelFactory()
                                               : nullptr);
        references.push_back(opts_.crossCheckFactory
                                 ? opts_.crossCheckFactory()
                                 : nullptr);
    }

    // Serializes the journal writer and the outcome map.  Writes
    // land in completion order, which resume tolerates (recovery is
    // keyed by test name); report order is fixed by run()'s
    // queue-order assembly, so the report is verdict-identical
    // whatever the thread count.
    std::mutex recordMu;
    // Set when a failure escapes a test (a journal append that
    // throws, say): no later test starts, and parallelIndexed
    // rethrows the failure out of run().
    std::atomic<bool> failed{false};

    ThreadPool pool(jobs);
    parallelIndexed(pool, pending.size(),
                    [&](std::size_t i, std::size_t thread) {
        // Polled before every test, so a sweep deadline or Ctrl-C
        // between tests stops dispatch before the next one starts.
        if (failed.load() || cancelled() ||
            (sweepTracker && !sweepTracker->checkNow()))
            return false;
        try {
            const Model &model =
                primaries[thread] ? *primaries[thread] : model_;
            const Model *cross = references[thread]
                ? references[thread].get()
                : opts_.crossCheck;
            std::optional<ItemOutcome> outcome =
                runItem(*pending[i], model, cross, sweepTracker);
            if (!outcome)
                return false;
            std::lock_guard<std::mutex> lock(recordMu);
            record(pending[i]->name, std::move(*outcome), outcomes,
                   writer);
            return true;
        } catch (...) {
            failed.store(true);
            throw;
        }
    });
    report.cancelled = cancelled();
}

namespace
{

/**
 * The longest the forked dispatch loop waits on its children before
 * it checks the sweep's stop condition again: a cancel token set by
 * another thread, or a sweep deadline, stops a hung child within
 * this.
 */
constexpr std::chrono::milliseconds kStopPoll{50};

/** Map a child's exit protocol onto an outcome for its test. */
ItemOutcome
decodeChildOutcome(const std::string &name,
                   const subprocess::Outcome &child)
{
    faultinject::checkSite(faultinject::site::kBatchChildDecode,
                           name.c_str());
    ItemOutcome outcome;
    switch (child.kind) {
      case subprocess::ExitKind::TimedOut:
        outcome.failures.push_back(TestFailure{
            name, "timeout",
            Status(StatusCode::BudgetExceeded,
                   "task deadline exceeded; child killed by watchdog")});
        return outcome;
      case subprocess::ExitKind::Signaled:
        outcome.failures.push_back(TestFailure{
            name, "crash",
            Status(StatusCode::Internal, "child " + child.describe())});
        return outcome;
      case subprocess::ExitKind::Exited:
        break;
    }
    if (child.exitCode == 0) {
        // Decode the {"records":[...]} payload the child's
        // serializer produced — the same schema the journal uses.
        try {
            json::Value payload = json::Value::parse(child.output);
            const json::Value *records = payload.get("records");
            if (records) {
                std::map<std::string, ItemOutcome> decoded;
                for (const json::Value &rec : records->asArray())
                    decodeRecord(rec, decoded, nullptr);
                auto it = decoded.find(name);
                if (it != decoded.end())
                    return std::move(it->second);
                if (decoded.empty())
                    return outcome; // cancelled child: nothing to record
            }
        } catch (const std::exception &) {
            // Fall through to the crash record below.
        }
    }
    // A nonzero exit, a payload that doesn't parse, or records for
    // the wrong test all mean the child died between doing the work
    // and reporting it: record a crash so the sweep stays honest.
    outcome.failures.push_back(TestFailure{
        name, "crash",
        Status(StatusCode::Internal,
               "child " + child.describe() + " without a usable result")});
    return outcome;
}

} // namespace

void
BatchRunner::runForked(std::vector<Item *> &pending,
                       std::map<std::string, ItemOutcome> &outcomes,
                       journal::Writer *writer, BatchReport &report,
                       BudgetTracker *sweepTracker)
{
    struct Live
    {
        subprocess::Child child;
        Item *item;
    };

    const std::size_t workers =
        static_cast<std::size_t>(std::max(1, opts_.workers));
    subprocess::Limits limits;
    limits.deadline = opts_.taskDeadline;
    limits.cpuSeconds = opts_.taskCpuSeconds;
    limits.memoryBytes = opts_.taskMemoryBytes;

    std::vector<Live> live;
    std::size_t next = 0;

    while (next < pending.size() || !live.empty()) {
        const bool sweepExhausted =
            sweepTracker && !sweepTracker->checkNow();
        if (cancelled() || sweepExhausted) {
            // Kill in-flight children without recording them: their
            // tests rerun on resume.  The journal already has every
            // finished test.
            for (Live &l : live) {
                l.child.kill();
                l.child.finish();
            }
            live.clear();
            report.cancelled = cancelled();
            return;
        }

        while (live.size() < workers && next < pending.size()) {
            Item *item = pending[next++];
            auto work = [this, item]() {
                json::Object payload;
                json::Array records;
                // The child cannot share the parent's sweep tracker
                // (separate address space); the parent bulk-charges
                // the child's reported work after decoding.
                std::optional<ItemOutcome> outcome =
                    runItem(*item, model_, opts_.crossCheck, nullptr);
                if (outcome) {
                    for (json::Value &rec : toRecords(*outcome))
                        records.push_back(std::move(rec));
                }
                payload["records"] = json::Value(std::move(records));
                return json::Value(std::move(payload)).serialize();
            };
            // fork/socketpair failures under load (EAGAIN, EMFILE)
            // are the canonical transient fault: retry with backoff,
            // and only record a failure once the policy gives up.
            std::optional<subprocess::Child> spawned;
            int spawnRetries = 0;
            std::optional<Status> failed =
                runWithRetry(item->name, "spawn", spawnRetries, [&] {
                    spawned.emplace(
                        subprocess::Child::spawn(work, limits));
                });
            if (failed) {
                ItemOutcome outcome;
                outcome.failures.push_back(TestFailure{
                    item->name, "spawn", std::move(*failed)});
                record(item->name, std::move(outcome), outcomes,
                       writer);
                continue;
            }
            live.push_back({std::move(*spawned), item});
        }

        // Wait for output, the nearest deadline or kStopPoll.  With
        // every remaining item failed to spawn the set is empty and
        // this returns at once; after the slice or an EINTR (e.g.
        // SIGINT) it returns nothing and the loop re-checks the
        // cancel token and the sweep budget.
        std::vector<subprocess::Child *> children;
        children.reserve(live.size());
        for (Live &l : live)
            children.push_back(&l.child);
        const std::vector<std::size_t> done =
            subprocess::waitAny(children, kStopPoll);

        std::vector<Live> still;
        still.reserve(live.size());
        std::size_t d = 0;
        for (std::size_t i = 0; i < live.size(); ++i) {
            Live &l = live[i];
            if (d < done.size() && done[d] == i) {
                ++d;
                subprocess::Outcome out = l.child.finish();
                ItemOutcome decoded =
                    decodeChildOutcome(l.item->name, out);
                if (sweepTracker && decoded.result) {
                    // Settle the child's work against the sweep
                    // budget; a trip here stops dispatch on the next
                    // loop iteration, after this result is recorded.
                    sweepTracker->chargeBulk(
                        decoded.result->result.candidates,
                        decoded.result->result.stats.rfAssignments);
                }
                record(l.item->name, std::move(decoded), outcomes,
                       writer);
            } else {
                still.push_back(std::move(l));
            }
        }
        live = std::move(still);
    }
}

BatchReport
BatchRunner::run()
{
    BatchReport report;
    report.seed = opts_.seed;
    std::map<std::string, ItemOutcome> outcomes;
    std::set<std::string> resumedNames;
    std::optional<journal::Writer> writer;

    if (!opts_.journalPath.empty()) {
        bool needMeta = true;
        if (opts_.resume) {
            journal::RecoverResult recovered =
                journal::recover(opts_.journalPath);
            SweepJournalContents contents =
                decodeSweepJournal(recovered.records);
            if (!contents.model.empty() &&
                contents.model != model_.name()) {
                throw StatusError(Status(
                    StatusCode::InvalidArgument,
                    "journal '" + opts_.journalPath +
                        "' was written for model '" + contents.model +
                        "', not '" + model_.name() + "'"));
            }
            needMeta = contents.model.empty();
            for (auto &[name, outcome] : contents.outcomes) {
                if (outcome.done()) {
                    resumedNames.insert(name);
                    outcomes[name] = std::move(outcome);
                }
            }
            writer = journal::Writer::append(opts_.journalPath,
                                             recovered.validBytes);
        } else {
            writer = journal::Writer::create(opts_.journalPath);
        }
        if (needMeta)
            writer->append(sweepMetaRecord(model_.name(), opts_.seed));
    }

    std::vector<Item *> pending;
    for (Item &item : items_) {
        if (!outcomes.count(item.name))
            pending.push_back(&item);
    }

    std::optional<BudgetTracker> sweepTracker;
    if (!opts_.sweepBudget.isUnlimited())
        sweepTracker.emplace(opts_.sweepBudget);
    BudgetTracker *tracker = sweepTracker ? &*sweepTracker : nullptr;

    journal::Writer *w = writer ? &*writer : nullptr;
    switch (opts_.isolation) {
      case IsolationMode::Forked:
        runForked(pending, outcomes, w, report, tracker);
        break;
      case IsolationMode::InProcessParallel:
        runParallel(pending, outcomes, w, report, tracker);
        break;
    }
    if (tracker)
        report.sweepBound = tracker->bound();

    if (writer)
        writer->sync();

    // Assemble the report in queue order, merging journal-recovered
    // and freshly-run outcomes: a resumed sweep reports exactly what
    // the uninterrupted sweep would have.
    for (const Item &item : items_) {
        auto it = outcomes.find(item.name);
        if (it == outcomes.end())
            continue; // cancelled before this test ran
        ItemOutcome &outcome = it->second;
        if (resumedNames.count(item.name))
            ++report.resumedCount;
        if (outcome.result) {
            const Enumerator::Stats &s = outcome.result->result.stats;
            report.stats.pathCombos += s.pathCombos;
            report.stats.rfSpace += s.rfSpace;
            report.stats.rfAssignments += s.rfAssignments;
            report.stats.valuationRejects += s.valuationRejects;
            report.stats.rfConsistent += s.rfConsistent;
            report.stats.rfPruned += s.rfPruned;
            report.stats.coPruned += s.coPruned;
            report.stats.partialValuationRejects +=
                s.partialValuationRejects;
            report.stats.rfSatRejects += s.rfSatRejects;
            report.stats.coSatForced += s.coSatForced;
            report.stats.coFallbacks += s.coFallbacks;
            report.stats.candidates += s.candidates;
            report.results.push_back(std::move(*outcome.result));
        }
        for (TestFailure &f : outcome.failures)
            report.failures.push_back(std::move(f));
        for (Divergence &d : outcome.divergences)
            report.divergences.push_back(std::move(d));
    }
    return report;
}

} // namespace lkmm
