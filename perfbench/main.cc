/**
 * @file
 * perfbench: the lkmm-herd end-to-end benchmark driver.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --root REPO --workdir DIR
 *
 * Workloads: sweep-scale, sweep-small-cat, serve-mixed, fuzz-isolated.
 * The last line of stdout is the JSON result; see README.md.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "workloads.hh"

namespace
{

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --root REPO --workdir DIR\n"
                 "workloads: sweep-scale sweep-small-cat serve-mixed "
                 "fuzz-isolated\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Context ctx;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--workload")
            ctx.workload = value;
        else if (flag == "--seed")
            ctx.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            ctx.seconds = std::atof(value.c_str());
        else if (flag == "--trace")
            ctx.trace = value == "1";
        else if (flag == "--root")
            ctx.root = value;
        else if (flag == "--workdir")
            ctx.workdir = value;
        else
            return usage();
    }
    if (ctx.workload.empty() || ctx.root.empty() || ctx.workdir.empty() ||
        ctx.seconds <= 0) {
        return usage();
    }
    try {
        std::filesystem::create_directories(ctx.workdir);
        if (ctx.workload == "sweep-scale")
            return perfbench::runSweep(ctx, false);
        if (ctx.workload == "sweep-small-cat")
            return perfbench::runSweep(ctx, true);
        if (ctx.workload == "serve-mixed")
            return perfbench::runServe(ctx);
        if (ctx.workload == "fuzz-isolated")
            return perfbench::runFuzzCampaign(ctx);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    return usage();
}
