#include "fuzz/campaign.hh"

#include <algorithm>
#include <fstream>
#include <memory>
#include <optional>
#include <utility>

#include "base/faultinject.hh"
#include "base/scheduler.hh"
#include "base/status.hh"
#include "diy/generator.hh"
#include "fuzz/mutator.hh"
#include "fuzz/shrink.hh"
#include "litmus/printer.hh"

namespace lkmm::fuzz
{

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t iter)
{
    // SplitMix64 finalizer over (seed, iter): adjacent iterations
    // get statistically independent streams.
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (iter + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::optional<Program>
candidateFor(std::uint64_t seed, std::uint64_t iter,
             const std::vector<Program> &pool)
{
    Rng rng(mixSeed(seed, iter));
    std::optional<Program> cand;
    if (pool.empty() || rng.chance(1, 4)) {
        cand = randomCycle(rng, defaultAlphabet());
        // Half of the diy draws get mutated on top: the generator
        // only emits well-formed critical cycles, and the oracles'
        // interesting disagreements live just outside that set.
        if (cand && rng.chance(1, 2)) {
            if (auto mutated = mutate(*cand, rng))
                cand = std::move(mutated);
        }
    } else {
        cand = mutate(pool[rng.below(pool.size())], rng);
    }
    if (!cand)
        return std::nullopt;
    cand->name = "fuzz-" + std::to_string(iter);
    return cand;
}

namespace
{

std::string
sanitizeForFilename(const std::string &s)
{
    std::string out;
    for (char c : s) {
        const bool keep = (c >= 'a' && c <= 'z') ||
                          (c >= 'A' && c <= 'Z') ||
                          (c >= '0' && c <= '9') || c == '-' ||
                          c == '.';
        out.push_back(keep ? c : '-');
    }
    return out;
}

void
writeRepro(const std::string &dir, const std::string &signature,
           const std::string &text)
{
    faultinject::checkSite(faultinject::site::kFuzzRepro,
                           signature.c_str());
    const std::string path =
        dir + "/" + sanitizeForFilename(signature) + ".litmus";
    std::ofstream out(path, std::ios::trunc);
    out << text;
    out.close();
    if (!out) {
        throw StatusError(Status(StatusCode::IoError,
                                 "cannot write repro " + path));
    }
}

/** Minimize one finding: same oracle, same signature must persist. */
Program
minimizeFinding(const Program &prog, const Oracle &oracle,
                const Finding &finding,
                const OracleOptions &oracleOpts,
                std::size_t maxShrinkTests)
{
    const std::string wantSig = finding.signature();
    ShrinkPredicate pred = [&](const Program &cand) {
        const auto f = runOracle(oracle, cand, oracleOpts);
        return f && f->signature() == wantSig;
    };
    ShrinkOptions sopts;
    sopts.maxTests = maxShrinkTests;
    return shrinkProgram(prog, pred, sopts);
}

} // namespace

FuzzReport
runFuzz(const FuzzOptions &opts)
{
    FuzzReport report;
    report.seed = opts.seed;

    std::uint64_t seed = opts.seed;
    std::string oracleSpec = opts.oracles;
    std::uint64_t maxIters = opts.maxIters;
    std::optional<journal::Writer> writer;

    if (!opts.journalPath.empty() && opts.resume) {
        const RecoveredCampaign rec =
            recoverCampaign(opts.journalPath);
        if (rec.hasMeta) {
            // The journal is authoritative for everything that
            // shapes the candidate stream (seed, oracles); the
            // iteration budget may only grow, so a resume both
            // finishes an interrupted campaign and extends a
            // completed one.
            seed = rec.seed;
            oracleSpec = rec.oracles;
            maxIters = std::max(rec.maxIters, opts.maxIters);
            report.startIter = rec.nextIter;
            for (const FuzzFinding &f : rec.findings)
                report.triage.add(f);
            writer = journal::Writer::append(opts.journalPath,
                                             rec.validBytes);
            if (maxIters != rec.maxIters) {
                writer->append(
                    encodeFuzzMeta(seed, oracleSpec, maxIters));
            }
        }
    }
    if (!opts.journalPath.empty() && !writer) {
        writer = journal::Writer::create(opts.journalPath);
        writer->append(encodeFuzzMeta(seed, oracleSpec, maxIters));
    }
    report.seed = seed;
    report.iters = report.startIter;

    const std::size_t jobs =
        static_cast<std::size_t>(std::max(1, opts.jobs));
    const std::vector<Program> pool = builtinSeedPrograms();

    // One oracle set per pool thread: the model sides are stateless,
    // but independent instances keep threads fully decoupled (and
    // match the batch engine's per-thread models).
    std::vector<std::vector<Oracle>> oracleSets;
    for (std::size_t i = 0; i < jobs; ++i)
        oracleSets.push_back(makeOracles(oracleSpec, opts.catModelDir));

    // An isolated campaign runs each oracle set's sides in a
    // persistent sandbox of its own, retired when runFuzz returns.
    std::vector<std::unique_ptr<SideWorker>> sandboxes;
    if (opts.oracle.isolate) {
        for (const std::vector<Oracle> &oracleSet : oracleSets) {
            sandboxes.push_back(
                std::make_unique<SideWorker>(oracleSet, opts.oracle));
        }
    }

    /** Evaluate one iteration on the oracle set and sandbox of pool
     *  thread `thread` (0 for a sequential campaign). */
    auto evalIter = [&](std::uint64_t iter, std::size_t thread) {
        std::vector<FuzzFinding> found;
        const std::optional<Program> cand =
            candidateFor(seed, iter, pool);
        if (!cand)
            return found;
        // The candidate passed mutate()'s printability gate (or
        // came straight from diy), so printLitmus cannot throw.
        const std::string source = printLitmus(*cand);
        OracleOptions oracleOpts = opts.oracle;
        oracleOpts.seed = mixSeed(seed, iter);
        SideWorker *sandbox =
            sandboxes.empty() ? nullptr : sandboxes[thread].get();
        auto inSandbox = [&](const OracleSide &side) {
            return sandbox->run(side, *cand, source, oracleOpts.seed);
        };
        for (const Oracle &oracle : oracleSets[thread]) {
            const std::optional<Finding> finding =
                sandbox ? runOracle(oracle, *cand, inSandbox)
                        : runOracle(oracle, *cand, oracleOpts);
            if (!finding)
                continue;
            FuzzFinding f;
            f.iter = iter;
            f.test = cand->name;
            f.finding = *finding;
            f.source = source;
            f.minimized = source;
            if (opts.minimize) {
                const Program small = minimizeFinding(
                    *cand, oracle, *finding, oracleOpts,
                    opts.maxShrinkTests);
                f.minimized = printLitmus(small);
            }
            found.push_back(std::move(f));
        }
        return found;
    };

    /**
     * Record one completed iteration (campaign thread only): triage,
     * repros, journal, callback.  Called strictly in iteration
     * order, which is what makes a parallel campaign's report and
     * journal identical to the sequential one's.
     */
    auto recordIter = [&](std::uint64_t iter,
                          std::vector<FuzzFinding> found) {
        for (FuzzFinding &f : found) {
            const bool newBucket = report.triage.add(f);
            if (newBucket && !opts.corpusDir.empty()) {
                writeRepro(opts.corpusDir, f.finding.signature(),
                           f.minimized);
            }
            if (writer) {
                faultinject::checkSite(
                    faultinject::site::kFuzzJournal);
                writer->append(encodeFuzzFinding(f));
            }
            if (opts.onFinding)
                opts.onFinding(f);
        }
        if (writer) {
            faultinject::checkSite(faultinject::site::kFuzzJournal);
            writer->append(encodeFuzzIter(iter));
        }
        report.iters = iter + 1;
    };

    const auto start = std::chrono::steady_clock::now();
    auto outOfTime = [&] {
        return opts.timeBudget.count() > 0 &&
               std::chrono::steady_clock::now() - start >=
                   opts.timeBudget;
    };

    if (jobs == 1) {
        for (std::uint64_t iter = report.startIter; iter < maxIters;
             ++iter) {
            if (opts.cancel && opts.cancel->cancelled()) {
                report.cancelled = true;
                break;
            }
            if (outOfTime()) {
                report.timedOut = true;
                break;
            }
            recordIter(iter, evalIter(iter, 0));
        }
    } else {
        // Parallel campaign: evaluate a chunk of iterations on the
        // pool, then drain the chunk's results in iteration order.  A
        // worker that observes cancellation skips its iteration; the
        // drain stops at the first skipped one and discards the rest
        // of the chunk (they rerun on resume — the candidate stream
        // is a function of (seed, iter), so nothing is lost).
        ThreadPool workers(jobs);

        std::uint64_t iter = report.startIter;
        while (iter < maxIters) {
            if (opts.cancel && opts.cancel->cancelled()) {
                report.cancelled = true;
                break;
            }
            if (outOfTime()) {
                report.timedOut = true;
                break;
            }
            const std::uint64_t chunk =
                std::min<std::uint64_t>(maxIters - iter, jobs * 2);
            auto results = parallelIndexed(
                workers, static_cast<std::size_t>(chunk),
                [&](std::size_t k, std::size_t thread)
                    -> std::optional<std::vector<FuzzFinding>> {
                    if (opts.cancel && opts.cancel->cancelled())
                        return std::nullopt;
                    return evalIter(iter + k, thread);
                });
            bool stopped = false;
            for (std::uint64_t k = 0; k < chunk; ++k) {
                if (!results[k]) {
                    report.cancelled = true;
                    stopped = true;
                    break;
                }
                recordIter(iter + k, std::move(*results[k]));
            }
            if (stopped)
                break;
            iter += chunk;
        }
    }
    for (const std::unique_ptr<SideWorker> &sandbox : sandboxes)
        report.unconfirmedDeaths += sandbox->unconfirmedDeaths();
    return report;
}

} // namespace lkmm::fuzz
