/**
 * @file
 * lkmm-fuzz — the differential fuzzing, minimization and triage
 * driver (see src/fuzz/ and DESIGN.md "Differential fuzzing").
 *
 *   lkmm-fuzz --seed 1 --max-iters 200 --journal fuzz.jsonl \
 *       --corpus-dir repros
 *   # killed half-way?  same command + --resume finishes the rest
 *   lkmm-fuzz --replay repros/some-finding.litmus
 *   # CI smoke: bounded, sandboxed, deterministic
 *   lkmm-fuzz --seed 1 --max-iters 50 --time-budget-s 30
 *
 * Exit status: 0 campaign completed with no findings, 1 usage or
 * infrastructure error, 2 campaign completed with findings (triage
 * buckets are non-empty), 3 cancelled (Ctrl-C).
 */

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdio>
#include <string>

#include "base/budget.hh"
#include "base/scheduler.hh"
#include "base/status.hh"
#include "base/strutil.hh"
#include "fuzz/campaign.hh"
#include "fuzz/mutator.hh"
#include "fuzz/oracle.hh"
#include "fuzz/report.hh"
#include "fuzz/triage.hh"
#include "litmus/parser.hh"

namespace
{

int
usage()
{
    std::fprintf(
        stderr,
        "usage: lkmm-fuzz [options]\n"
        "       lkmm-fuzz --replay FILE.litmus [options]\n"
        "\n"
        "campaign:\n"
        "  --seed N            campaign seed (default 1): the whole\n"
        "                      candidate stream is a function of it,\n"
        "                      and it is printed in every report\n"
        "                      header\n"
        "  --max-iters N       iterations to run (default 1000)\n"
        "  --time-budget-s N   stop after N seconds (0 = none)\n"
        "  --oracles SPEC      comma-separated oracle list; see\n"
        "                      --list-oracles (default\n"
        "                      native-vs-cat,rf-first-vs-brute,\n"
        "                      mono-sc-lkmm)\n"
        "  --list-oracles      print known oracle names and exit\n"
        "\n"
        "findings:\n"
        "  --corpus-dir DIR    write one minimized .litmus repro per\n"
        "                      triage bucket into DIR\n"
        "  --journal FILE      crash-tolerant campaign journal\n"
        "  --resume            resume the campaign in --journal\n"
        "                      (seed/oracles come from its meta)\n"
        "  --no-minimize       record findings without shrinking\n"
        "  --replay FILE       run the oracles once on FILE and\n"
        "                      report; verifies a repro standalone\n"
        "\n"
        "sandbox/budgets:\n"
        "  By default one persistent worker process evaluates every\n"
        "  oracle side: one request per candidate, each distinct\n"
        "  side evaluation once.  When it dies or hangs, each side\n"
        "  of that candidate is re-run in a fresh child, and only a\n"
        "  failure such a child repeats is a finding; the summary\n"
        "  counts the deaths no child repeated.\n"
        "  --no-isolate        evaluate oracles in-process (a crash\n"
        "                      kills the campaign)\n"
        "  --jobs N            evaluate N candidates concurrently\n"
        "                      (0 = all hardware threads), each pool\n"
        "                      thread with a worker process of its\n"
        "                      own.  Findings and the journal stay in\n"
        "                      iteration order\n"
        "  --task-deadline-ms N  per-side watchdog deadline, the\n"
        "                      only sandbox cap (default 10000); a\n"
        "                      worker request gets N per side it\n"
        "                      carries, and a side slower than N is\n"
        "                      re-run in a fresh child\n"
        "  --engine-max-candidates (below) caps each side at 200000\n"
        "  candidates by default here.\n"
        "\n"
        "output:\n"
        "  --summary FORMAT    text (default) or json\n"
        "  --quiet             no per-finding progress lines\n"
        "\n%s",
        lkmm::EngineConfig::flagHelp());
    return 1;
}

/** --replay: run the oracles once on one litmus file. */
int
replay(const std::string &file, const std::string &oracleSpec,
       const std::string &catModelDir,
       const lkmm::fuzz::OracleOptions &oracleOpts, bool quiet)
{
    using namespace lkmm;
    const Program prog = parseLitmusFile(file);
    const std::vector<fuzz::Oracle> oracles =
        fuzz::makeOracles(oracleSpec, catModelDir);
    const std::vector<fuzz::Finding> findings =
        fuzz::runOracles(oracles, prog, oracleOpts);
    for (const fuzz::Finding &f : findings)
        std::printf("FINDING %s\n", f.signature().c_str());
    if (!quiet) {
        std::printf("replay %s: %zu finding%s\n", file.c_str(),
                    findings.size(),
                    findings.size() == 1 ? "" : "s");
    }
    return findings.empty() ? 0 : 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace lkmm;

    fuzz::FuzzOptions opts;
    opts.oracle.deadline = std::chrono::milliseconds(10000);
    opts.oracle.engine.budget.maxCandidates = 200000;
    std::string summaryFormat = "text";
    std::string replayFile;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                std::exit(usage());
            return argv[++i];
        };
        try {
            if (arg == "--seed")
                opts.seed = parseCount(arg, next());
            else if (arg == "--max-iters")
                opts.maxIters = parseCount(arg, next());
            else if (arg == "--time-budget-s")
                opts.timeBudget =
                    parseDuration<std::chrono::seconds>(arg, next());
            else if (arg == "--oracles")
                opts.oracles = next();
            else if (arg == "--list-oracles") {
                std::printf("%s\n", fuzz::knownOracleSpec().c_str());
                return 0;
            } else if (arg == "--cat-dir")
                opts.catModelDir = next();
            else if (arg == "--corpus-dir")
                opts.corpusDir = next();
            else if (arg == "--journal")
                opts.journalPath = next();
            else if (arg == "--resume")
                opts.resume = true;
            else if (arg == "--no-minimize")
                opts.minimize = false;
            else if (arg == "--no-isolate")
                opts.oracle.isolate = false;
            else if (arg == "--jobs") {
                opts.jobs =
                    static_cast<int>(parseCount(arg, next(), INT_MAX));
                if (opts.jobs == 0) {
                    opts.jobs = static_cast<int>(
                        ThreadPool::hardwareThreads());
                }
            } else if (arg == "--task-deadline-ms")
                opts.oracle.deadline =
                    parseDuration<std::chrono::milliseconds>(arg, next());
            else if (opts.oracle.engine.parseFlag(arg, next))
                ; // shared --engine-family flag
            else if (arg == "--replay")
                replayFile = next();
            else if (arg == "--summary")
                summaryFormat = next();
            else if (arg == "--quiet")
                quiet = true;
            else if (arg == "--help" || arg == "-h")
                return usage();
            else
                return usage();
        } catch (const std::exception &e) {
            std::fprintf(stderr, "lkmm-fuzz: %s: %s\n", arg.c_str(),
                         e.what());
            return 1;
        }
    }
    if (summaryFormat != "text" && summaryFormat != "json")
        return usage();
    if (opts.resume && opts.journalPath.empty()) {
        std::fprintf(stderr, "lkmm-fuzz: --resume needs --journal\n");
        return 1;
    }

    try {
        if (!replayFile.empty()) {
            return replay(replayFile, opts.oracles, opts.catModelDir,
                          opts.oracle, quiet);
        }

        opts.cancel = &cancelOnSignals();
        if (!quiet) {
            // On --resume the journal's seed/oracles override these
            // requested values; the post-run report has the truth.
            std::fprintf(
                stderr,
                "lkmm-fuzz: seed %llu, %llu iters, oracles %s, "
                "%s (%d jobs)%s\n",
                static_cast<unsigned long long>(opts.seed),
                static_cast<unsigned long long>(opts.maxIters),
                opts.oracles.c_str(),
                opts.oracle.isolate ? "sandboxed" : "in-process",
                std::max(1, opts.jobs),
                opts.resume ? " (resuming: journal settings win)"
                            : "");
            opts.onFinding = [](const fuzz::FuzzFinding &f) {
                std::fprintf(stderr, "lkmm-fuzz: finding %s at %s\n",
                             f.finding.signature().c_str(),
                             f.test.c_str());
            };
        }

        const fuzz::FuzzReport report = fuzz::runFuzz(opts);

        if (summaryFormat == "json")
            std::printf("%s\n",
                        fuzz::toJson(report).pretty().c_str());
        else
            fuzz::printText(stdout, report);

        if (report.cancelled) {
            std::fprintf(stderr,
                         "lkmm-fuzz: cancelled; rerun with --resume "
                         "to finish\n");
            return 3;
        }
        return report.triage.buckets().empty() ? 0 : 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "lkmm-fuzz: %s\n", e.what());
        return 1;
    }
}
