/**
 * @file
 * lkmm-chaos — systematic fault-schedule exploration.
 *
 * Enumerates every (site, hit, fault-kind) schedule the fault-site
 * registry admits, runs a fixed workload under each schedule in a
 * sandboxed child, and proves the robustness invariants: journal
 * recovery after any fault, byte-identical resumed reports, a closed
 * exit taxonomy, no leaked processes, and sound degradation to
 * Verdict::Unknown.  See src/chaos/chaos.hh for the invariants and
 * DESIGN.md "Fault-schedule exploration" for the architecture.
 *
 *   lkmm-chaos --workdir /tmp/chaos                 # full sweep
 *   lkmm-chaos --workdir /tmp/chaos \
 *       --sites journal-write,subprocess-read --max-hits 2
 *   lkmm-chaos --workdir /tmp/chaos \
 *       --plan journal-write:1:torn-write:9         # one repro
 *   lkmm-chaos --list-sites                         # the registry
 *
 * Exit status: 0 every schedule passed (or was not reached), 1 usage
 * or infrastructure error, 2 at least one invariant violation.
 */

#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <signal.h>

#include "base/status.hh"
#include "base/strutil.hh"
#include "chaos/chaos.hh"

namespace
{

int
usage()
{
    std::fprintf(
        stderr,
        "usage: lkmm-chaos --workdir DIR [options]\n"
        "\n"
        "schedule selection:\n"
        "  --sites A,B,...     only these fault sites (default all;\n"
        "                      see --list-sites)\n"
        "  --kinds A,B,...     only these fault kinds (error,\n"
        "                      torn-write, crash, hang, eintr, enomem)\n"
        "  --max-hits N        explore hits 1..N per site (default 2)\n"
        "  --torn-offsets A,B  persisted-byte counts for torn-write\n"
        "                      schedules (default 0,1,9,25)\n"
        "  --max-schedules N   stop after N schedules (0 = all)\n"
        "  --plan SPEC         run exactly one schedule, e.g.\n"
        "                      journal-write:2:torn-write:7\n"
        "\n"
        "workload:\n"
        "  --workload NAME     sweep (default), sweep-forked, fuzz,\n"
        "                      serve\n"
        "  --sweep-tests N     catalog tests per sweep (default 4)\n"
        "  --child-deadline-ms N   chaos-child watchdog (default 10000)\n"
        "  --task-deadline-ms N    per-test watchdog inside the\n"
        "                      sweep-forked workload (default 3000;\n"
        "                      keep well under --child-deadline-ms)\n"
        "\n"
        "output:\n"
        "  --workdir DIR       scratch directory (required)\n"
        "  --repro-dir DIR     dump failing FaultPlans here\n"
        "  --summary MODE      text (default) or json\n"
        "  --list-sites        print the fault-site registry and exit\n"
        "  --verbose           one line per schedule\n"
        "\n"
        "self-test:\n"
        "  --ablate-crc        disable the journal CRC check; the\n"
        "                      suite must then FAIL (exit 2), proving\n"
        "                      it detects a corruption-check\n"
        "                      regression\n"
        "\n%s",
        lkmm::EngineConfig::flagHelp());
    return 1;
}

std::vector<std::string>
splitList(const std::string &arg)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : arg) {
        if (c == ',') {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

int
listSites()
{
    using namespace lkmm;
    for (const faultinject::SiteInfo &info : faultinject::siteRegistry()) {
        std::string kinds;
        for (int k = 0; k < faultinject::kNumFaultKinds; ++k) {
            const auto kind = static_cast<faultinject::FaultKind>(k);
            if (!info.supports(kind))
                continue;
            if (!kinds.empty())
                kinds += ",";
            kinds += faultinject::faultKindName(kind);
        }
        std::printf("%-24s %-40s %s\n", info.id, kinds.c_str(),
                    info.description);
    }
    std::printf("%zu sites\n", lkmm::faultinject::siteRegistry().size());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace lkmm;
    // Writing a summary into a closed pipe (`lkmm-chaos | head`)
    // must surface as EPIPE, not kill the run mid-schedule.
    signal(SIGPIPE, SIG_IGN);
    chaos::ChaosOptions opts;
    std::string summaryMode = "text";
    bool verbose = false;

    auto needValue = [&](int &i) -> const char * {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "lkmm-chaos: %s needs a value\n",
                         argv[i]);
            return nullptr;
        }
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char *value = nullptr;
        try {
            if (arg == "--list-sites")
                return listSites();
            if (arg == "--help" || arg == "-h")
                return usage();
            if (arg == "--verbose") {
                verbose = true;
            } else if (arg == "--ablate-crc") {
                opts.ablateCrc = true;
            } else if (arg == "--sites") {
                if (!(value = needValue(i)))
                    return usage();
                opts.sites = splitList(value);
            } else if (arg == "--kinds") {
                if (!(value = needValue(i)))
                    return usage();
                for (const std::string &name : splitList(value)) {
                    const auto kind =
                        faultinject::faultKindFromName(name);
                    if (!kind) {
                        std::fprintf(
                            stderr,
                            "lkmm-chaos: unknown fault kind '%s'\n",
                            name.c_str());
                        return 1;
                    }
                    opts.kinds.push_back(*kind);
                }
            } else if (arg == "--max-hits") {
                if (!(value = needValue(i)))
                    return usage();
                opts.maxHits =
                    static_cast<int>(parseCount(arg, value, INT_MAX));
            } else if (arg == "--torn-offsets") {
                if (!(value = needValue(i)))
                    return usage();
                opts.tornOffsets.clear();
                for (const std::string &n : splitList(value)) {
                    opts.tornOffsets.push_back(static_cast<std::uint32_t>(
                        parseCount(arg, n, UINT32_MAX)));
                }
            } else if (arg == "--max-schedules") {
                if (!(value = needValue(i)))
                    return usage();
                opts.maxSchedules = parseCount(arg, value);
            } else if (arg == "--plan") {
                if (!(value = needValue(i)))
                    return usage();
                try {
                    opts.explicitPlans.push_back(
                        faultinject::FaultPlan::parse(value));
                } catch (const std::exception &e) {
                    std::fprintf(stderr, "lkmm-chaos: bad --plan: %s\n",
                                 e.what());
                    return 1;
                }
            } else if (arg == "--workload") {
                if (!(value = needValue(i)))
                    return usage();
                opts.workload = value;
            } else if (arg == "--sweep-tests") {
                if (!(value = needValue(i)))
                    return usage();
                opts.sweepTests = parseCount(arg, value);
            } else if (arg == "--child-deadline-ms") {
                if (!(value = needValue(i)))
                    return usage();
                opts.childDeadline =
                    parseDuration<std::chrono::milliseconds>(arg, value);
            } else if (arg == "--task-deadline-ms") {
                if (!(value = needValue(i)))
                    return usage();
                opts.taskDeadline =
                    parseDuration<std::chrono::milliseconds>(arg, value);
            } else if (arg == "--workdir") {
                if (!(value = needValue(i)))
                    return usage();
                opts.workdir = value;
            } else if (arg == "--repro-dir") {
                if (!(value = needValue(i)))
                    return usage();
                opts.reproDir = value;
            } else if (arg == "--summary") {
                if (!(value = needValue(i)))
                    return usage();
                summaryMode = value;
                if (summaryMode != "text" && summaryMode != "json") {
                    std::fprintf(
                        stderr,
                        "lkmm-chaos: --summary must be text or json\n");
                    return 1;
                }
            } else if (arg.rfind("--engine", 0) == 0) {
                auto next = [&]() -> std::string {
                    const char *v = needValue(i);
                    if (!v)
                        std::exit(usage());
                    return v;
                };
                if (!opts.engine.parseFlag(arg, next))
                    return usage();
            } else {
                std::fprintf(stderr, "lkmm-chaos: unknown option '%s'\n",
                             argv[i]);
                return usage();
            }
        } catch (const std::exception &e) {
            std::fprintf(stderr, "lkmm-chaos: %s\n", e.what());
            return 1;
        }
    }

    if (opts.workdir.empty()) {
        std::fprintf(stderr, "lkmm-chaos: --workdir is required\n");
        return usage();
    }

    chaos::ChaosReport report;
    try {
        report = chaos::runChaos(opts);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "lkmm-chaos: fatal: %s\n", e.what());
        return 1;
    }

    if (verbose) {
        for (const chaos::ScheduleResult &s : report.schedules) {
            std::printf("%-40s %-11s %s\n", s.plan.toString().c_str(),
                        chaos::scheduleStatusName(s.status),
                        s.childOutcome.c_str());
        }
    }
    if (summaryMode == "json") {
        std::printf("%s\n", report.toJson().pretty().c_str());
    } else {
        for (const chaos::ScheduleResult &s : report.schedules) {
            if (s.status != chaos::ScheduleStatus::Violation)
                continue;
            std::printf("VIOLATION %s (%s)\n", s.plan.toString().c_str(),
                        s.childOutcome.c_str());
            for (const std::string &p : s.problems)
                std::printf("  %s\n", p.c_str());
        }
        for (const std::string &p : report.journalCheckProblems)
            std::printf("JOURNAL-CHECK %s\n", p.c_str());
        std::printf("%s\n", report.summary().c_str());
    }

    if (!report.fatal.empty())
        return 1;
    return report.ok() ? 0 : 2;
}
