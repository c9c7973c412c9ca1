/**
 * @file
 * Cross-engine differential harness: three columns must be
 * observationally identical — the brute reference, rf-first with
 * saturation support withdrawn (the staged engine alone), and
 * rf-first with the model's own support (staging plus saturation).
 *
 * For every corpus entry (paper catalog, litmus tree, edge corpus,
 * 4-/5-thread scaling corpus) and every registry model, the columns
 * must agree on
 *
 *  - the RunResult: verdict, allowedCandidates, witnesses,
 *    allowedFinalStates, completeness (raw candidate counts are
 *    engine-specific by design: rf-first delivers fewer candidates
 *    when saturation rejects an rf assignment outright);
 *
 *  - the allowed-execution set: the sorted multiset of
 *    (rf, co, final-state) fingerprints of the candidates the model
 *    accepts.  This is the strongest identity we can state without
 *    fixing an enumeration order, and it subsumes every RunResult
 *    field above.
 *
 * A divergence names the test, the model, the engine pair, and the
 * first diverging fingerprint, so a broken saturation rule is
 * debuggable straight from the CI log.
 */

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "exec/engine_config.hh"
#include "exec/rf_engine.hh"
#include "litmus/parser.hh"
#include "lkmm/catalog.hh"
#include "lkmm/runner.hh"
#include "model/registry.hh"
#include "support/unsaturated_model.hh"

namespace lkmm
{
namespace
{

struct Entry
{
    std::string name;
    Program prog;
};

std::vector<Entry>
dirEntries(const std::string &dir, const std::string &prefix)
{
    namespace fs = std::filesystem;
    std::vector<Entry> out;
    for (const fs::directory_entry &de : fs::directory_iterator(dir)) {
        if (de.path().extension() != ".litmus")
            continue;
        out.push_back({prefix + de.path().stem().string(),
                       parseLitmusFile(de.path().string())});
    }
    std::sort(out.begin(), out.end(),
              [](const Entry &a, const Entry &b) {
                  return a.name < b.name;
              });
    return out;
}

std::vector<Entry>
catalogEntries()
{
    std::vector<Entry> out;
    for (const CatalogEntry &e : table5())
        out.push_back({e.prog.name, e.prog});
    return out;
}

EnumerateOptions
engineOpts(const std::string &mode)
{
    EngineConfig cfg;
    cfg.setMode(mode);
    return cfg.enumerate;
}

/**
 * One enumeration pass: the sorted (rf, co, final) fingerprints of
 * the candidates each model allows, for every registry model at
 * once.  The single pass keeps the harness affordable under
 * sanitizers: the scale corpus runs ~100k candidates through the
 * brute engine, so per-model re-enumeration would multiply that
 * by 8.
 *
 * rf-first runs under `support`: each model's own, exactly as the
 * runner passes it, or none for the support-withdrawn column.  The
 * brute engine ignores it.
 */
std::vector<std::vector<std::string>>
allowedFingerprints(const Program &prog,
                    const std::vector<const Model *> &models,
                    const EnumerateOptions &opts,
                    rel::SaturationSupport support)
{
    std::vector<std::vector<std::string>> prints(models.size());
    const auto on = [&](const CandidateExecution &ex) {
        std::string fp;
        for (std::size_t m = 0; m < models.size(); ++m) {
            if (!models[m]->allows(ex))
                continue;
            if (fp.empty()) {
                fp = "rf=" + ex.rf.toString() +
                     " co=" + ex.co.toString() +
                     " final=" + ex.finalStateString();
            }
            prints[m].push_back(fp);
        }
        return true;
    };
    if (opts.rfFirst) {
        RfFirstEngine en(prog, RunBudget::unlimited(), opts, support);
        en.forEach(on);
    } else {
        Enumerator en(prog, RunBudget::unlimited(), opts);
        en.forEach(on);
    }
    for (std::vector<std::string> &p : prints)
        std::sort(p.begin(), p.end());
    return prints;
}

/** Fail with test, model, engine pair and first diverging line. */
void
expectSameAllowedSet(const std::string &test, const std::string &model,
                     const std::string &engineA,
                     const std::vector<std::string> &a,
                     const std::string &engineB,
                     const std::vector<std::string> &b)
{
    if (a == b)
        return;
    std::size_t i = 0;
    while (i < a.size() && i < b.size() && a[i] == b[i])
        ++i;
    ADD_FAILURE() << "allowed-execution sets diverge\n"
                  << "  test:   " << test << "\n"
                  << "  model:  " << model << "\n"
                  << "  sizes:  " << engineA << "=" << a.size() << " "
                  << engineB << "=" << b.size() << "\n"
                  << "  first diverging fingerprint (index " << i
                  << "):\n"
                  << "    " << engineA << ": "
                  << (i < a.size() ? a[i] : "<absent>") << "\n"
                  << "    " << engineB << ": "
                  << (i < b.size() ? b[i] : "<absent>");
}

void
checkCorpus(const std::vector<Entry> &entries)
{
    const ModelRegistry &registry = ModelRegistry::instance();
    std::vector<std::unique_ptr<Model>> owned;
    std::vector<const Model *> models;
    std::vector<std::string> modelNames;
    for (const ModelInfo &info : registry.listModels()) {
        owned.push_back(registry.make(info.name));
        models.push_back(owned.back().get());
        modelNames.push_back(info.name);
    }

    for (const Entry &entry : entries) {
        SCOPED_TRACE(entry.name);

        // Allowed-execution identity.  brute and support-withdrawn
        // rf-first are model-independent, so one multi-model pass
        // each suffices; rf-first's stream depends on the model's
        // support, so it gets one pass per model, exactly as the
        // runner would drive it.
        const auto refPrints = allowedFingerprints(
            entry.prog, models, engineOpts("brute"), {});
        const auto unsatPrints = allowedFingerprints(
            entry.prog, models, engineOpts("rf-first"), {});
        for (std::size_t m = 0; m < models.size(); ++m) {
            expectSameAllowedSet(entry.name, modelNames[m], "brute",
                                 refPrints[m], "rf-first-unsaturated",
                                 unsatPrints[m]);
            const auto rfPrints = allowedFingerprints(
                entry.prog, {models[m]}, engineOpts("rf-first"),
                models[m]->saturationSupport());
            expectSameAllowedSet(entry.name, modelNames[m], "brute",
                                 refPrints[m], "rf-first",
                                 rfPrints[0]);
        }

        // RunResult identity through the full runner, every model
        // and column.
        for (std::size_t m = 0; m < models.size(); ++m) {
            SCOPED_TRACE(modelNames[m]);
            const RunResult ref =
                runTest(entry.prog, *models[m], RunBudget::unlimited(),
                        engineOpts("brute"));
            EXPECT_EQ(refPrints[m].size(), ref.allowedCandidates);
            const UnsaturatedModel unsaturated(*models[m]);
            const std::pair<const char *, const Model *> columns[] = {
                {"rf-first-unsaturated", &unsaturated},
                {"rf-first", models[m]},
            };
            for (const auto &[column, model] : columns) {
                SCOPED_TRACE(column);
                const RunResult res =
                    runTest(entry.prog, *model, RunBudget::unlimited(),
                            engineOpts("rf-first"));
                EXPECT_EQ(res.verdict, ref.verdict)
                    << "verdict diverges for test '" << entry.name
                    << "' under model " << modelNames[m] << " ("
                    << column << " vs brute)";
                EXPECT_EQ(res.allowedCandidates, ref.allowedCandidates);
                EXPECT_EQ(res.witnesses, ref.witnesses);
                EXPECT_EQ(res.allowedFinalStates,
                          ref.allowedFinalStates);
                EXPECT_EQ(res.completeness, ref.completeness);
                // Without saturation the staged engine delivers
                // brute's stream, candidate for candidate.
                if (model == &unsaturated) {
                    EXPECT_EQ(res.candidates, ref.candidates);
                }
            }
        }
    }
}

TEST(EngineIdentity, Catalog) { checkCorpus(catalogEntries()); }

TEST(EngineIdentity, LitmusTree)
{
    checkCorpus(dirEntries(LKMM_LITMUS_DIR, "litmus/"));
}

TEST(EngineIdentity, EdgeCorpus)
{
    checkCorpus(dirEntries(LKMM_EDGE_CORPUS_DIR, "edge/"));
}

TEST(EngineIdentity, ScaleCorpus)
{
    checkCorpus(dirEntries(LKMM_SCALE_DIR, "scale/"));
}

} // namespace
} // namespace lkmm
