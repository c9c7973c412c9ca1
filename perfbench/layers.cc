#include "layers.hh"

#include <cstdio>
#include <memory>
#include <stdexcept>

#include "exec/rf_engine.hh"
#include "litmus/parser.hh"
#include "litmus/printer.hh"
#include "model/registry.hh"

namespace perfbench
{

namespace
{

void
addStats(lkmm::Enumerator::Stats &into, const lkmm::Enumerator::Stats &s)
{
    into.pathCombos += s.pathCombos;
    into.rfSpace += s.rfSpace;
    into.rfAssignments += s.rfAssignments;
    into.valuationRejects += s.valuationRejects;
    into.rfConsistent += s.rfConsistent;
    into.rfPruned += s.rfPruned;
    into.coPruned += s.coPruned;
    into.partialValuationRejects += s.partialValuationRejects;
    into.candidates += s.candidates;
    into.rfSatRejects += s.rfSatRejects;
    into.coSatForced += s.coSatForced;
    into.coFallbacks += s.coFallbacks;
}

bool
isCat(const std::string &spec)
{
    return spec.rfind("cat:", 0) == 0;
}

/** forEach with a no-op callback on whichever engine `engine` selects. */
lkmm::Enumerator::Stats
enumerateOnly(const lkmm::Program &prog, const lkmm::Model &model,
              const lkmm::EngineConfig &engine)
{
    auto noop = [](const lkmm::CandidateExecution &) { return true; };
    if (engine.enumerate.rfFirst) {
        lkmm::RfFirstEngine en(prog, engine.budget, engine.enumerate,
                               model.saturationSupport());
        en.forEach(noop);
        return en.stats();
    }
    lkmm::Enumerator en(prog, engine.budget, engine.enumerate);
    en.forEach(noop);
    return en.stats();
}

} // namespace

LayerTotals
layerPass(const std::vector<LayerTest> &tests,
          const lkmm::EngineConfig &engine)
{
    if (!Tracer::active())
        throw std::logic_error("layerPass needs an active tracer");
    LayerTotals t;
    std::map<std::string, std::unique_ptr<TimedModel>> models;
    auto modelFor = [&](const std::string &spec) -> TimedModel & {
        auto it = models.find(spec);
        if (it == models.end()) {
            const lkmm::ModelFactory factory =
                lkmm::ModelRegistry::instance().factoryFor(spec);
            std::unique_ptr<lkmm::Model> inner;
            {
                ScopedSpan span(isCat(spec) ? "cat.load" : "model.load",
                                spec);
                inner = factory();
            }
            it = models
                     .emplace(spec,
                              std::make_unique<TimedModel>(std::move(inner)))
                     .first;
        }
        return *it->second;
    };

    for (const LayerTest &test : tests) {
        if (!test.source.empty()) {
            ScopedSpan span("litmus.parse", test.id);
            (void)lkmm::parseLitmus(test.source);
        }
        {
            ScopedSpan span("litmus.print", test.id);
            (void)lkmm::printLitmus(*test.prog);
        }
        for (const std::string &spec : test.specs) {
            TimedModel &model = modelFor(spec);
            {
                ScopedSpan span("exec.enumerate", test.id);
                addStats(t.stats, enumerateOnly(*test.prog, model, engine));
            }
            lkmm::RunResult r;
            {
                ScopedSpan span("lkmm.run_test", test.id);
                r = lkmm::runTest(*test.prog, model, engine.budget,
                                  engine.enumerate);
            }
            t.candidates += r.candidates;
            t.allowed += r.allowedCandidates;
        }
    }
    for (const auto &[spec, model] : models)
        (isCat(spec) ? t.cat : t.native).merge(model->stats());
    return t;
}

void
reportLayers(Report &report, const Tracer &tracer, const LayerTotals &t,
             double batchWallS, int workers)
{
    const std::vector<double> parseUs = tracer.durations("litmus.parse", 1e6);
    report.layer("litmus.parse_us.mean", mean(parseUs), "us");
    report.layer("litmus.parse_calls", static_cast<double>(parseUs.size()),
                 "count");
    report.layer("litmus.print_us.mean",
                 mean(tracer.durations("litmus.print", 1e6)), "us");

    const double enumerateS = sum(tracer.durations("exec.enumerate"));
    report.layer("exec.enumerate_s", enumerateS, "s");
    const lkmm::Enumerator::Stats &s = t.stats;
    report.layer("exec.candidates", static_cast<double>(s.candidates),
                 "count");
    report.layer("exec.path_combos", static_cast<double>(s.pathCombos),
                 "count");
    report.layer("exec.rf_assignments",
                 static_cast<double>(s.rfAssignments), "count");
    report.layer("exec.rf_pruned", static_cast<double>(s.rfPruned), "count");
    report.layer("exec.valuation_rejects",
                 static_cast<double>(s.valuationRejects), "count");
    report.layer("exec.rf_sat_rejects", static_cast<double>(s.rfSatRejects),
                 "count");
    report.layer("exec.co_sat_forced", static_cast<double>(s.coSatForced),
                 "count");
    report.layer("exec.co_fallbacks", static_cast<double>(s.coFallbacks),
                 "count");
    report.layer("exec.useful_frac",
                 t.candidates ? static_cast<double>(t.allowed) /
                                    static_cast<double>(t.candidates)
                              : 0.0,
                 "ratio");
    report.shape("  useful candidates: " + std::to_string(t.allowed) +
                 " model-allowed of " + std::to_string(t.candidates) +
                 " delivered");

    const struct
    {
        const char *prefix;
        const CheckStats &stats;
    } checks[] = {{"model", t.native}, {"cat", t.cat}};
    for (const auto &c : checks) {
        const std::string p = c.prefix;
        const double secs = static_cast<double>(c.stats.ns) * 1e-9;
        report.layer(p + ".check_s", secs, "s");
        report.layer(p + ".check_calls", static_cast<double>(c.stats.calls),
                     "count");
        report.layer(p + ".check_us.mean",
                     c.stats.calls ? secs * 1e6 /
                                         static_cast<double>(c.stats.calls)
                                   : 0.0,
                     "us");
        for (const auto &[axiom, n] : c.stats.rejects)
            report.layer(p + ".reject." + axiom, static_cast<double>(n),
                         "count");
    }
    report.layer("cat.load_ms", mean(tracer.durations("cat.load", 1e3)),
                 "ms");

    const std::vector<double> testMs = tracer.durations("lkmm.run_test", 1e3);
    const double runTestS = sum(testMs) * 1e-3;
    const double checkS = static_cast<double>(t.native.ns + t.cat.ns) * 1e-9;
    report.layer("lkmm.run_test_s", runTestS, "s");
    report.layer("lkmm.runner_self_s", runTestS - checkS - enumerateS, "s");
    report.layer("lkmm.test_ms.p50", quantile(testMs, 0.5), "ms");
    report.layer("lkmm.test_ms.p99", quantile(testMs, 0.99), "ms");
    if (batchWallS > 0 && workers > 0) {
        report.layer("lkmm.batch_parallel_eff",
                     runTestS / (workers * batchWallS), "ratio");
    }
}

std::string
coFallbackShape(const lkmm::Enumerator::Stats &s,
                const lkmm::EngineConfig &engine)
{
    const std::size_t delivered =
        s.rfConsistent > s.rfSatRejects ? s.rfConsistent - s.rfSatRejects : 0;
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "  co fallback rate: %.4f (%zu of %zu delivered rfs; "
                  "engine %s)",
                  delivered ? static_cast<double>(s.coFallbacks) /
                                  static_cast<double>(delivered)
                            : 0.0,
                  s.coFallbacks, delivered, engine.modeName().c_str());
    return buf;
}

} // namespace perfbench
