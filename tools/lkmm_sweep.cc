/**
 * @file
 * lkmm-sweep — the crash-isolated, resumable catalog sweep driver.
 *
 * Points the batch engine (lkmm/batch.hh) at a directory of .litmus
 * files (or the built-in Table 5 catalog), runs every test under a
 * chosen model, and leaves behind a crash-tolerant result journal
 * plus a machine-readable summary:
 *
 *   lkmm-sweep --catalog --model lkmm --journal run.jsonl
 *   lkmm-sweep litmus/tests --isolation forked --jobs 8 \
 *       --task-deadline-ms 5000 --journal run.jsonl
 *   # killed half-way?  same command + --resume finishes the rest:
 *   lkmm-sweep litmus/tests --journal run.jsonl --resume
 *
 * Ctrl-C (SIGINT/SIGTERM) trips a cancellation token: the sweep
 * stops dispatching, kills in-flight children, flushes the journal
 * and still prints a partial report — rerun with --resume to finish.
 * The sweep polls the token, also while its children run.
 *
 * Exit status: 0 all tests produced results, 1 usage or fatal
 * error, 2 sweep completed but some tests failed or diverged,
 * 3 cancelled.
 */

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "base/budget.hh"
#include "base/scheduler.hh"
#include "base/status.hh"
#include "base/strutil.hh"
#include "lkmm/batch.hh"
#include "lkmm/catalog.hh"
#include "lkmm/report.hh"
#include "model/registry.hh"

namespace
{

int
usage()
{
    std::fprintf(
        stderr,
        "usage: lkmm-sweep [options] [DIR-or-FILE.litmus ...]\n"
        "\n"
        "inputs (at least one):\n"
        "  DIR                 queue every .litmus file under DIR\n"
        "  FILE.litmus         queue one litmus file\n"
        "  --catalog           queue the built-in Table 5 catalog\n"
        "\n"
        "model:\n"
        "  --model NAME        a registry model (see --list-models;\n"
        "                      default lkmm), or cat:FILE / a path\n"
        "                      ending in .cat for a cat model file\n"
        "  --cat FILE          shorthand for --model cat:FILE\n"
        "  --cross-check NAME  re-run completed tests under a second\n"
        "                      model; disagreements become records\n"
        "  --list-models       print the model registry and exit\n"
        "\n"
        "robustness/parallelism:\n"
        "  --isolation MODE    in-process (default: checks --jobs\n"
        "                      tests concurrently on a thread pool;\n"
        "                      the report is verdict-identical at\n"
        "                      every --jobs) or forked (one sandboxed\n"
        "                      child per test)\n"
        "  --jobs N            worker threads (in-process) or\n"
        "                      concurrent children (forked); default\n"
        "                      1, 0 = all hardware threads\n"
        "  --task-deadline-ms N  per-child watchdog deadline\n"
        "  --task-cpu-s N      per-child RLIMIT_CPU seconds\n"
        "  --task-mem-mb N     per-child RLIMIT_AS megabytes\n"
        "  --journal FILE      append results to a crash-tolerant\n"
        "                      journal\n"
        "  --resume            skip tests already in --journal\n"
        "\n"
        "budgets (0 = unlimited; per-test budgets are the\n"
        "--engine-* flags below):\n"
        "  --retries N         escalating-budget retries\n"
        "  --escalation F      budget scale per retry, >= 1 (default 8)\n"
        "  --sweep-time-limit-ms N  whole-sweep wall-clock budget,\n"
        "                      shared by every worker\n"
        "  --sweep-max-candidates N  whole-sweep candidate cap\n"
        "\n"
        "reproducibility:\n"
        "  --seed N            campaign seed (default 1); recorded in\n"
        "                      the journal meta record and printed in\n"
        "                      every report header, so one seed pins a\n"
        "                      whole sweep+fuzz pipeline run\n"
        "\n"
        "output:\n"
        "  --summary FORMAT    text (default) or json\n"
        "  --out FILE          write the summary there instead of\n"
        "                      stdout\n"
        "  --quiet             no per-test progress lines\n"
        "  --stats             print the merged enumerator counters,\n"
        "                      including the per-stage prune counters\n"
        "                      (rfPruned, coPruned,\n"
        "                      partialValuationRejects); the json\n"
        "                      summary always carries them\n"
        "\n%s",
        lkmm::EngineConfig::flagHelp());
    return 1;
}

/** Collect .litmus files under a path (sorted for determinism). */
std::vector<std::filesystem::path>
collectLitmusFiles(const std::filesystem::path &root)
{
    namespace fs = std::filesystem;
    std::vector<fs::path> files;
    if (fs::is_directory(root)) {
        for (const fs::directory_entry &entry :
             fs::recursive_directory_iterator(root)) {
            if (entry.is_regular_file() &&
                entry.path().extension() == ".litmus") {
                files.push_back(entry.path());
            }
        }
        std::sort(files.begin(), files.end());
    } else {
        files.push_back(root);
    }
    return files;
}

std::string
slurp(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open()) {
        throw lkmm::StatusError(lkmm::Status(
            lkmm::StatusCode::IoError,
            "cannot read '" + path.string() + "'"));
    }
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace lkmm;
    namespace fs = std::filesystem;

    std::string modelName = "lkmm";
    std::string catFile;
    std::string crossCheckName;
    std::vector<std::string> inputs;
    bool useCatalog = false;
    bool quiet = false;
    bool showStats = false;
    std::string summaryFormat = "text";
    std::string outFile;
    BatchOptions opts;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                std::exit(usage());
            return argv[++i];
        };
        try {
            if (arg == "--model")
                modelName = next();
            else if (arg == "--cat")
                catFile = next();
            else if (arg == "--cross-check")
                crossCheckName = next();
            else if (arg == "--list-models") {
                std::printf("%s",
                            ModelRegistry::instance().helpText().c_str());
                return 0;
            } else if (arg == "--catalog")
                useCatalog = true;
            else if (arg == "--isolation") {
                const std::string mode = next();
                if (mode == "forked")
                    opts.isolation = IsolationMode::Forked;
                else if (mode == "in-process")
                    opts.isolation = IsolationMode::InProcessParallel;
                else
                    return usage();
            } else if (arg == "--jobs") {
                opts.workers =
                    static_cast<int>(parseCount(arg, next(), INT_MAX));
                if (opts.workers == 0) {
                    opts.workers = static_cast<int>(
                        ThreadPool::hardwareThreads());
                }
            } else if (arg == "--sweep-time-limit-ms")
                opts.sweepBudget.wallClock =
                    parseDuration<std::chrono::milliseconds>(arg, next());
            else if (arg == "--sweep-max-candidates")
                opts.sweepBudget.maxCandidates = parseCount(arg, next());
            else if (arg == "--task-deadline-ms")
                opts.taskDeadline =
                    parseDuration<std::chrono::milliseconds>(arg, next());
            else if (arg == "--task-cpu-s")
                opts.taskCpuSeconds =
                    static_cast<unsigned>(parseCount(arg, next(), UINT_MAX));
            else if (arg == "--task-mem-mb")
                opts.taskMemoryBytes =
                    parseCount(arg, next(), SIZE_MAX / (1024 * 1024)) *
                    1024 * 1024;
            else if (arg == "--seed")
                opts.seed = parseCount(arg, next());
            else if (arg == "--journal")
                opts.journalPath = next();
            else if (arg == "--resume")
                opts.resume = true;
            else if (arg == "--retries")
                opts.retry.budgetRetries =
                    static_cast<int>(parseCount(arg, next(), INT_MAX));
            else if (arg == "--escalation")
                opts.retry.budgetEscalation = parseFactor(arg, next());
            else if (arg == "--summary")
                summaryFormat = next();
            else if (arg == "--out")
                outFile = next();
            else if (arg == "--quiet")
                quiet = true;
            else if (arg == "--stats")
                showStats = true;
            else if (opts.engine.parseFlag(arg, next))
                ; // shared --engine-family flag
            else if (arg == "--help" || arg == "-h")
                return usage();
            else if (arg.rfind("--", 0) == 0)
                return usage();
            else
                inputs.push_back(arg);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "lkmm-sweep: %s: %s\n", arg.c_str(),
                         e.what());
            return 1;
        }
    }
    if (inputs.empty() && !useCatalog)
        return usage();
    if (summaryFormat != "text" && summaryFormat != "json")
        return usage();
    if (opts.resume && opts.journalPath.empty()) {
        std::fprintf(stderr, "lkmm-sweep: --resume needs --journal\n");
        return 1;
    }

    try {
        // One resolution path for every spelling: registry names,
        // aliases, cat:FILE and bare .cat paths.  The factory also
        // goes into the batch options so each in-process worker
        // thread constructs its own instance.
        const ModelRegistry &registry = ModelRegistry::instance();
        const std::string modelSpec =
            catFile.empty() ? modelName : "cat:" + catFile;
        opts.modelFactory = registry.factoryFor(modelSpec);
        std::unique_ptr<Model> model = opts.modelFactory();

        std::unique_ptr<Model> crossCheck;
        if (!crossCheckName.empty()) {
            opts.crossCheckFactory = registry.factoryFor(crossCheckName);
            crossCheck = opts.crossCheckFactory();
            opts.crossCheck = crossCheck.get();
        }

        opts.engine.budget.cancel = &cancelOnSignals();

        BatchRunner runner(*model, opts);
        if (useCatalog) {
            for (const CatalogEntry &entry : table5())
                runner.add(entry.prog.name, entry.prog);
        }
        for (const std::string &input : inputs) {
            for (const fs::path &file : collectLitmusFiles(input)) {
                // Journal resume is keyed by this name, so it must
                // be stable across runs: use the file stem.
                runner.addLitmusSource(file.stem().string(),
                                       slurp(file));
            }
        }
        if (runner.size() == 0) {
            std::fprintf(stderr, "lkmm-sweep: no litmus tests found\n");
            return 1;
        }
        if (!quiet) {
            const char *mode = opts.isolation == IsolationMode::Forked
                                   ? "forked"
                                   : "in-process";
            std::fprintf(stderr,
                         "lkmm-sweep: %zu tests, model %s, %s mode "
                         "(%d jobs), seed %llu%s\n",
                         runner.size(), model->name().c_str(), mode,
                         std::max(1, opts.workers),
                         static_cast<unsigned long long>(opts.seed),
                         opts.journalPath.empty()
                             ? ""
                             : (", journal " + opts.journalPath).c_str());
        }

        BatchReport report = runner.run();

        std::FILE *out = stdout;
        if (!outFile.empty()) {
            out = std::fopen(outFile.c_str(), "w");
            if (!out) {
                std::fprintf(stderr, "lkmm-sweep: cannot write '%s'\n",
                             outFile.c_str());
                return 1;
            }
        }
        if (summaryFormat == "json")
            std::fprintf(out, "%s\n", toJson(report).pretty().c_str());
        else
            printText(out, report, quiet, showStats);
        if (out != stdout)
            std::fclose(out);

        if (report.cancelled) {
            std::fprintf(stderr,
                         "lkmm-sweep: cancelled; rerun with --resume "
                         "to finish\n");
            return 3;
        }
        if (report.sweepBound != BoundKind::None) {
            std::fprintf(stderr,
                         "lkmm-sweep: sweep budget exhausted (%s); "
                         "rerun with --resume to finish\n",
                         boundKindName(report.sweepBound));
            return 3;
        }
        return report.failures.empty() && report.divergences.empty() ? 0
                                                                     : 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "lkmm-sweep: %s\n", e.what());
        return 1;
    }
}
