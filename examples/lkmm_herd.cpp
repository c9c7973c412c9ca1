/**
 * @file
 * lkmm_herd — the herd-style command-line simulator.
 *
 * Usage:
 *   lkmm_herd [options] test.litmus
 *     --model SPEC   a registry model name or alias (lkmm, the
 *                    default; sc, tso/x86, power, armv7, armv8,
 *                    alpha, c11) or cat:FILE
 *     --cat FILE     shorthand for --model cat:FILE
 *     --all          run every registry model and print a matrix
 *     --sim NAME     also run the operational machine NAME
 *                    (sc, x86, armv8, power8, armv7)
 *     --runs N       iterations for --sim (default 100000)
 *     --verbose      print allowed final states and the witness or
 *                    violated axiom
 *     --dot          print the witness (or first candidate) as dot
 *     --engine ...   the shared engine flags (EngineConfig)
 */

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "base/logging.hh"
#include "base/strutil.hh"
#include "exec/engine_config.hh"
#include "litmus/parser.hh"
#include "lkmm/dot.hh"
#include "lkmm/runner.hh"
#include "model/c11_model.hh"
#include "model/registry.hh"
#include "sim/machine.hh"

namespace
{

int
usage()
{
    std::fprintf(stderr,
                 "usage: lkmm_herd [--model SPEC | --cat FILE] "
                 "[--all] [--sim NAME --runs N] [--verbose] [--dot] "
                 "[engine flags] test.litmus\n"
                 "models:\n%s%s",
                 lkmm::ModelRegistry::instance().helpText().c_str(),
                 lkmm::EngineConfig::flagHelp());
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace lkmm;

    std::string model_spec = "lkmm";
    EngineConfig engine;
    std::string sim_name;
    std::string litmus_file;
    std::uint64_t runs = 100000;
    bool all_models = false;
    bool verbose = false;
    bool dot = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                std::exit(usage());
            return argv[++i];
        };
        if (arg == "--model")
            model_spec = next();
        else if (arg == "--cat")
            model_spec = "cat:" + next();
        else if (arg == "--sim")
            sim_name = next();
        else if (arg == "--runs")
            runs = std::stoull(next());
        else if (arg == "--all")
            all_models = true;
        else if (arg == "--verbose")
            verbose = true;
        else if (arg == "--dot")
            dot = true;
        else if (arg.rfind("--engine", 0) == 0) {
            try {
                if (!engine.parseFlag(arg, next))
                    return usage();
            } catch (const FatalError &err) {
                std::fprintf(stderr, "error: %s\n", err.what());
                return 2;
            }
        } else if (arg.rfind("--", 0) == 0)
            return usage();
        else
            litmus_file = arg;
    }
    if (litmus_file.empty())
        return usage();

    try {
        Program prog = parseLitmusFile(litmus_file);
        std::printf("Test %s: %s (%s)\n", prog.name.c_str(),
                    prog.condition.toString(prog.locNames).c_str(),
                    prog.quantifier == Quantifier::Exists ? "exists"
                                                          : "forall");

        const ModelRegistry &registry = ModelRegistry::instance();
        if (all_models) {
            for (const ModelInfo &info : registry.listModels()) {
                // C11 has no counterpart for the RCU primitives
                // (Table 5: "-").
                if (info.name == "c11" && !C11Model::supports(prog)) {
                    std::printf("  %-8s -\n", info.name.c_str());
                    continue;
                }
                const Verdict v =
                    quickVerdict(prog, *registry.make(info.name),
                                 engine.budget, engine.enumerate);
                std::printf("  %-8s %s\n", info.name.c_str(),
                            verdictName(v));
            }
            return 0;
        }

        const std::unique_ptr<Model> model =
            registry.factoryFor(model_spec)();
        RunResult res =
            runTest(prog, *model, engine.budget, engine.enumerate);
        std::printf("model %s: %s\n", model->name().c_str(),
                    verdictName(res.verdict));
        std::printf("candidates %zu, allowed %zu, witnesses %zu\n",
                    res.candidates, res.allowedCandidates,
                    res.witnesses);
        if (verbose) {
            std::printf("allowed states:\n");
            for (const std::string &s : res.allowedFinalStates)
                std::printf("  %s\n", s.c_str());
            if (res.sampleViolation) {
                std::printf("violation on condition-satisfying "
                            "candidate: %s\n",
                            res.violationText.c_str());
            }
        }

        if (dot) {
            if (res.witness) {
                std::printf("%s", toDot(*res.witness).c_str());
            } else {
                // No witness: render the first candidate instead.
                Enumerator en(prog);
                en.forEach([&](const CandidateExecution &ex) {
                    std::printf("%s", toDot(ex).c_str());
                    return false;
                });
            }
        }

        if (!sim_name.empty()) {
            MachineConfig cfg;
            if (sim_name == "sc")
                cfg = MachineConfig::sc();
            else if (sim_name == "x86" || sim_name == "tso")
                cfg = MachineConfig::tso();
            else if (sim_name == "armv8")
                cfg = MachineConfig::armv8();
            else if (sim_name == "armv7")
                cfg = MachineConfig::armv7();
            else if (sim_name == "power8" || sim_name == "power")
                cfg = MachineConfig::power();
            else
                return usage();

            HarnessResult hr = runHarness(prog, cfg, runs);
            std::printf("sim %s: observed %s/%s\n", cfg.name.c_str(),
                        humanCount(hr.observed).c_str(),
                        humanCount(hr.runs).c_str());
            if (verbose) {
                for (const auto &[state, count] : hr.histogram) {
                    std::printf("  %10s  %s\n",
                                humanCount(count).c_str(),
                                state.c_str());
                }
            }
        }
    } catch (const FatalError &err) {
        std::fprintf(stderr, "error: %s\n", err.what());
        return 1;
    }
    return 0;
}
