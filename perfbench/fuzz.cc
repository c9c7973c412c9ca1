/**
 * @file
 * fuzz-isolated: lkmm-fuzz campaigns (runFuzz) with the default
 * oracle set and fork-per-side isolation, a fixed iteration count and
 * the seed from the command line.
 */

#include "workloads.hh"

#include <cstdio>
#include <functional>
#include <map>

#include "fuzz/campaign.hh"
#include "fuzz/mutator.hh"
#include "fuzz/oracle.hh"

namespace perfbench
{

namespace
{

/** Iterations per campaign: enough that a seed's share of empty
 *  draws and skipped oracles (which fork nothing) averages out. */
constexpr std::uint64_t kIters = 500;
/** Candidates driven through the layer pieces in a traced run. */
constexpr std::uint64_t kLayerIters = 120;
/** Set-ups timed after each campaign (a few ms against its 1.5 s). */
constexpr int kSetUpsPerCampaign = 50;

/**
 * Run whole campaigns for budgetS seconds, at least minRuns times.
 * `between`, when given, runs after each campaign.
 */
Throughput
campaigns(const Context &ctx, Report &report, double budgetS, int minRuns,
          std::uint64_t &findings,
          const std::function<void()> &between = {})
{
    lkmm::fuzz::FuzzOptions opts;
    opts.seed = ctx.seed;
    opts.maxIters = kIters;
    Throughput t;
    const Clock::time_point start = Clock::now();
    while (static_cast<int>(t.rounds.size()) < minRuns ||
           secondsSince(start) < budgetS) {
        const Clock::time_point t0 = Clock::now();
        const double c0 = treeCpuSeconds();
        lkmm::fuzz::FuzzReport rep;
        {
            ScopedSpan span("fuzz.campaign");
            rep = lkmm::fuzz::runFuzz(opts);
        }
        t.add(static_cast<double>(rep.iters), secondsSince(t0),
              treeCpuSeconds() - c0);
        report.attempt(rep.iters);
        if (rep.iters != kIters)
            report.fail("campaign stopped early after " +
                        std::to_string(rep.iters) + " iterations");
        findings += rep.triage.totalFindings();
        for (const auto &entry : rep.triage.buckets())
            report.fail("fuzz finding " + entry.first);
        if (between)
            between();
    }
    return t;
}

} // namespace

int
runFuzzCampaign(const Context &ctx)
{
    Report report(ctx);
    const lkmm::fuzz::FuzzOptions defaults;

    // Set-up: oracle construction (loads lkmm.cat) and the seed pool.
    std::vector<lkmm::fuzz::Oracle> oracles;
    std::vector<lkmm::Program> pool;
    SetUpTimer setup;
    setup.time([&] {
        oracles = lkmm::fuzz::makeOracles(defaults.oracles);
        pool = lkmm::fuzz::builtinSeedPrograms();
    });
    // Later set-ups build copies that are thrown away.
    auto setUpAgain = [&] {
        setup.time(
            [&] {
                (void)lkmm::fuzz::makeOracles(defaults.oracles);
                (void)lkmm::fuzz::builtinSeedPrograms();
            },
            kSetUpsPerCampaign);
    };

    // Shape of the candidate stream.
    {
        std::vector<double> threads;
        std::size_t failedDraws = 0;
        for (std::uint64_t i = 0; i < kIters; ++i) {
            auto cand = lkmm::fuzz::candidateFor(ctx.seed, i, pool);
            if (cand)
                threads.push_back(cand->numThreads());
            else
                ++failedDraws;
        }
        char buf[200];
        std::snprintf(buf, sizeof buf,
                      "  campaign: %llu iterations, oracles %s, "
                      "isolation fork-per-side",
                      static_cast<unsigned long long>(kIters),
                      defaults.oracles.c_str());
        report.shape(buf);
        std::snprintf(buf, sizeof buf,
                      "  threads per candidate: min %g, median %g, max %g "
                      "(%zu draws without a candidate)",
                      quantile(threads, 0), median(threads),
                      quantile(threads, 1), failedDraws);
        report.shape(buf);
    }

    if (!ctx.trace) {
        std::uint64_t findings = 0;
        const Throughput t =
            campaigns(ctx, report, ctx.seconds, 3, findings, setUpAgain);
        reportSetUp(report, setup.result());
        report.endToEnd("iters_per_s", t.rate(), "iters/s");
        report.endToEnd("cpu_ms_per_op", t.cpuMsPerOp(), "ms");
        char line[200];
        std::snprintf(line, sizeof line,
                      "  timed campaigns: %zu; CPU ms per iteration of each: "
                      "min %g, q10 %g, median %g, max %g",
                      t.rounds.size(), quantile(t.cpuRounds, 0),
                      t.cpuMsPerOp(), median(t.cpuRounds),
                      quantile(t.cpuRounds, 1));
        report.shape(line);
        reportCommon(report);
        return report.finish();
    }

    const double phase = ctx.seconds / 3;
    std::uint64_t findings = 0;
    const Throughput plain =
        campaigns(ctx, report, phase, 2, findings, setUpAgain);
    reportSetUp(report, setup.result());
    Tracer tracer;
    Tracer::activate(&tracer);
    const Throughput traced = campaigns(ctx, report, phase, 2, findings);

    // The pieces runFuzz is made of, timed one by one: candidate
    // generation, each oracle side in-process, and the same side in
    // the fork sandbox.
    for (std::uint64_t iter = 0; iter < kLayerIters; ++iter) {
        std::optional<lkmm::Program> cand;
        {
            ScopedSpan span("fuzz.generate", std::to_string(iter));
            cand = lkmm::fuzz::candidateFor(ctx.seed, iter, pool);
        }
        if (!cand)
            continue;
        lkmm::fuzz::OracleOptions opts = defaults.oracle;
        opts.seed = lkmm::fuzz::mixSeed(ctx.seed, iter);
        for (const lkmm::fuzz::Oracle &o : oracles) {
            if (o.mode == lkmm::fuzz::Oracle::Mode::Subset &&
                cand->quantifier != lkmm::Quantifier::Exists) {
                continue;
            }
            if (!o.rcuSound && lkmm::fuzz::usesRcu(*cand))
                continue;
            for (const lkmm::fuzz::OracleSide *side : {&o.a, &o.b}) {
                opts.isolate = false;
                {
                    ScopedSpan span("fuzz.side", side->label);
                    lkmm::fuzz::runSide(*side, *cand, opts);
                }
                opts.isolate = true;
                {
                    ScopedSpan span("subprocess.isolated_side", side->label);
                    lkmm::fuzz::runSide(*side, *cand, opts);
                }
            }
        }
    }
    Tracer::activate(nullptr);

    // Every side ran in-process and then sandboxed, on this thread:
    // the k-th spans of the two names are the same side and program.
    const std::vector<Span> inproc = tracer.named("fuzz.side");
    const std::vector<Span> isolated =
        tracer.named("subprocess.isolated_side");
    std::map<std::string, std::vector<double>> sideMs;
    std::vector<double> isolateMs;
    double isolatedTotal = 0;
    for (std::size_t k = 0; k < inproc.size() && k < isolated.size(); ++k) {
        sideMs[inproc[k].id].push_back(inproc[k].seconds() * 1e3);
        isolateMs.push_back((isolated[k].seconds() - inproc[k].seconds()) *
                            1e3);
        isolatedTotal += isolated[k].seconds() * 1e3;
    }

    report.endToEnd("iters_per_s.untraced", plain.rate(), "iters/s");
    report.endToEnd("iters_per_s.traced", traced.rate(), "iters/s");
    report.layer("fuzz.generate_us.mean",
                 mean(tracer.durations("fuzz.generate", 1e6)), "us");
    for (const auto &[label, ms] : sideMs)
        report.layer("fuzz.side_ms." + label + ".mean", mean(ms), "ms");
    report.layer("fuzz.findings", static_cast<double>(findings), "count");
    report.layer("subprocess.isolate_ms.mean", mean(isolateMs), "ms");
    const double share = isolatedTotal > 0 ? sum(isolateMs) / isolatedTotal
                                           : 0.0;
    report.layer("subprocess.isolate_share", share, "ratio");
    report.layer("trace.overhead_frac",
                 traced.cpuMsPerOp() / plain.cpuMsPerOp() - 1.0, "ratio");
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "  sandboxed side time: isolation %.1f%%, engine %.1f%%",
                  100 * share, 100 * (1 - share));
    report.shape(buf);
    report.expect(share >= 0.5,
                  "isolation dominates fuzz-isolated (>= 50% of side time)");
    tracer.finish(report, ctx.workdir + "/trace-" + ctx.workload + ".jsonl");
    reportCommon(report);
    return report.finish();
}

} // namespace perfbench
