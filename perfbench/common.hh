/**
 * @file
 * Shared plumbing of the benchmark driver: the run context, the
 * result report (human table plus the final JSON line), timing and
 * statistics helpers, the in-memory span tracer, and the forwarding
 * Model wrapper that times every check().
 *
 * Layers are measured from outside: the driver only calls public
 * functions of the library and times those calls.
 */

#ifndef LKMM_PERFBENCH_COMMON_HH
#define LKMM_PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "lkmm/runner.hh"
#include "model/model.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since t0. */
double secondsSince(Clock::time_point t0);

/** Seconds between two time points. */
double seconds(Clock::time_point t0, Clock::time_point t1);

double median(std::vector<double> v);
/** Linear-interpolated quantile, q in [0, 1]; 0 for an empty input. */
double quantile(std::vector<double> v, double q);
double mean(const std::vector<double> &v);
double sum(const std::vector<double> &v);

/** SplitMix64 of (seed, stream): independent per-purpose seeds. */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t stream);

/** Whole file as a string; throws std::runtime_error when unreadable. */
std::string slurp(const std::string &path);

/** Sorted *.litmus paths of a directory. */
std::vector<std::string> litmusFiles(const std::string &dir);

/**
 * CPU seconds this process has run, all threads (excludes time the
 * hypervisor stole from its vCPUs, unlike wall time).
 */
double processCpuSeconds();
/** CPU seconds of reaped children (fork sandboxes). */
double childrenCpuSeconds();
/**
 * CPU seconds of this process, its reaped children and its live
 * children (serve workers); differences give a window's cost.
 */
double treeCpuSeconds();

/** Peak RSS of this process and of its largest reaped child, in MB. */
double peakRssSelfMb();
double peakRssChildMb();

/**
 * The quantile of repeated CPU-time samples that the gated metrics
 * report.  On a shared host, other tenants slow this VM's cores for
 * seconds at a time (up to 1.6x CPU time for the same work), so the
 * median of a run moves with how much of the run they overlapped.  The
 * 10th percentile of samples spread over the whole run is the cost in
 * the run's quiet stretches, which varies far less from run to run.
 */
constexpr double kQuietQuantile = 0.1;

/**
 * Repeated timed rounds of the same work.  The wall-clock rate is
 * total work over total time; the CPU cost per operation is the
 * kQuietQuantile of the rounds' CPU costs.
 */
struct Throughput
{
    double ops = 0;
    double wallS = 0;
    /** Wall-clock rate and CPU ms per op of each round (shape). */
    std::vector<double> rounds;
    std::vector<double> cpuRounds;

    /** One round: n ops in `wall` s costing `cpu` CPU s. */
    void add(double n, double wall, double cpu)
    {
        ops += n;
        wallS += wall;
        rounds.push_back(n / wall);
        cpuRounds.push_back(cpu * 1e3 / n);
    }
    double rate() const { return wallS > 0 ? ops / wallS : 0; }
    double cpuMsPerOp() const { return quantile(cpuRounds, kQuietQuantile); }
};

/** A set-up step's median wall time and quiet CPU time, in seconds. */
struct SetUpTime
{
    double wallS = 0;
    double cpuS = 0;
    /** CPU seconds of each timed set-up (shape). */
    std::vector<double> cpuReps;
};

/**
 * Times repeated set-ups.  A run times its real set-up once, then a
 * few more after each of its timed rounds, so that the samples are
 * spread over the whole run like the rounds' and not bunched into one
 * second that a neighbour's burst may cover.
 */
class SetUpTimer
{
  public:
    /** Time `times` calls of fn, one by one. */
    template <typename Fn>
    void time(Fn &&fn, int times = 1)
    {
        for (int i = 0; i < times; ++i) {
            const Clock::time_point t0 = Clock::now();
            const double c0 = processCpuSeconds();
            fn();
            record(processCpuSeconds() - c0, secondsSince(t0));
        }
    }

    /** Add a set-up timed elsewhere (another process). */
    void record(double cpuS, double wallS)
    {
        cpu_.push_back(cpuS);
        wall_.push_back(wallS);
    }

    SetUpTime result() const
    {
        return {median(wall_), quantile(cpu_, kQuietQuantile), cpu_};
    }

  private:
    std::vector<double> wall_;
    std::vector<double> cpu_;
};

class Report;
/**
 * Report a set-up time: setup_s is its CPU time (steady under vCPU
 * steal), setup_wall_s the wall time a user waits.
 */
void reportSetUp(Report &report, const SetUpTime &t);

/** What one invocation of the driver was asked to do. */
struct Context
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Repository root (sources, corpora, cat models). */
    std::string root;
    /** Scratch directory for sockets, journals and traces. */
    std::string workdir;

    std::string catModel(const std::string &name) const
    {
        return root + "/cat/models/" + name + ".cat";
    }
};

/**
 * Everything one run reports.  Metrics are kept in insertion order;
 * the ones named in the benchmark contract go to the final JSON line,
 * the rest are printed in the human table only.
 */
class Report
{
  public:
    explicit Report(const Context &ctx) : ctx_(ctx) {}

    /** An end-to-end metric (printed; exported with trace off). */
    void endToEnd(const std::string &name, double value,
                  const std::string &unit);
    /** A per-layer metric (printed; exported with trace on). */
    void layer(const std::string &name, double value,
               const std::string &unit);
    /** One human line of the workload's traffic shape. */
    void shape(const std::string &line);
    /** A layer-stress assertion of the traced run; false fails it. */
    void expect(bool ok, const std::string &what);

    void attempt(std::uint64_t n = 1) { attempted_ += n; }
    /** Count one failed operation with its reason. */
    void fail(const std::string &why);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

    /** Print everything; returns the process exit code. */
    int finish();

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };

    const Context &ctx_;
    std::vector<Entry> endToEnd_;
    std::vector<Entry> layers_;
    std::vector<std::string> shape_;
    std::vector<std::string> failures_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    bool expectationsHeld_ = true;
};

/* ------------------------------------------------------------------ */
/* Tracing                                                            */
/* ------------------------------------------------------------------ */

/** One timed call into a layer. */
struct Span
{
    const char *name = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Index of the enclosing span on the same thread, or -1. */
    std::int32_t parent = -1;
    std::uint32_t thread = 0;
    /** Test or request id. */
    std::string id;

    double seconds() const { return (endNs - startNs) * 1e-9; }
};

/**
 * In-memory span recorder.  Each thread appends to its own buffer
 * (no lock on the record path after a thread's first span); spans
 * are merged and written out only at the end of the run.
 */
class Tracer
{
  public:
    /** The active tracer, or null when tracing is off. */
    static Tracer *active();
    static void activate(Tracer *tracer);

    /** Open a span on this thread; returns its handle. */
    std::size_t open(const char *name, std::string id);
    void close(std::size_t handle);

    /** All spans, grouped per thread. */
    std::vector<Span> spans() const;
    /** The spans called `name`, in record order per thread. */
    std::vector<Span> named(const std::string &name) const;
    /** Their durations in seconds times `scale` (1e3 for ms, ...). */
    std::vector<double> durations(const std::string &name,
                                  double scale = 1) const;

    /** Calls, total and self seconds (total minus children) of one name. */
    struct Totals
    {
        std::uint64_t calls = 0;
        double totalS = 0;
        double selfS = 0;
    };
    std::map<std::string, Totals> totals() const;

    /** Add the per-name totals to the report, then write the spans. */
    void finish(Report &report, const std::string &path) const;

    /** Write one JSON object per span. */
    void write(const std::string &path) const;

  private:
    struct Buffer
    {
        std::uint32_t thread = 0;
        std::vector<Span> spans;
        std::vector<std::int32_t> open;
    };
    Buffer &local();

    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<Buffer>> buffers_;
    Clock::time_point epoch_ = Clock::now();
};

/** RAII span; a no-op when no tracer is active. */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name, std::string id = {});
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *tracer_;
    std::size_t handle_ = 0;
};

/* ------------------------------------------------------------------ */
/* The model layer, timed from outside                                */
/* ------------------------------------------------------------------ */

/** check() totals of one or more TimedModel instances. */
struct CheckStats
{
    std::int64_t ns = 0;
    std::uint64_t calls = 0;
    std::map<std::string, std::uint64_t> rejects;

    void merge(const CheckStats &other);
};

/**
 * A forwarding Model: check() and saturationSupport() go to the
 * wrapped model, and each check() is timed and its violated axiom
 * counted.  One instance per worker thread (no sharing).
 */
class TimedModel : public lkmm::Model
{
  public:
    explicit TimedModel(std::unique_ptr<lkmm::Model> inner)
        : inner_(std::move(inner))
    {}

    std::string name() const override { return inner_->name(); }
    std::optional<lkmm::Violation>
    check(const lkmm::CandidateExecution &ex) const override;
    lkmm::rel::SaturationSupport saturationSupport() const override
    {
        return inner_->saturationSupport();
    }

    const CheckStats &stats() const { return stats_; }

  private:
    std::unique_ptr<lkmm::Model> inner_;
    mutable CheckStats stats_;
};

/**
 * A factory whose models are TimedModels around the inner factory's,
 * so a traced BatchRunner sweep runs with the wrapper installed.
 */
lkmm::ModelFactory timedFactory(lkmm::ModelFactory inner);

/* ------------------------------------------------------------------ */
/* Known answers                                                      */
/* ------------------------------------------------------------------ */

/** "Allow" / "Forbid" / "Unknown" to a Verdict. */
lkmm::Verdict verdictFromName(const std::string &name);

/**
 * tests/golden/catalog.json: test name -> model name -> verdict.
 * Names are "LB", "litmus/sb+mbs", "scale/SB4", ...
 */
using Golden = std::map<std::string, std::map<std::string, lkmm::Verdict>>;
Golden loadGolden(const std::string &root);

/**
 * The verdict of an independent implementation: the reference model
 * for `spec` ("lkmm", "power", ... or "cat:<file>") run by an engine
 * other than the default one.  Native lkmm is checked against
 * lkmm.cat and lkmm.cat against native lkmm; every other model is
 * checked by the brute-force reference engine.
 */
lkmm::Verdict referenceVerdict(const Context &ctx, const lkmm::Program &prog,
                               const std::string &spec);

/**
 * Ends every workload: peak RSS metrics and the failure fraction.
 * peakSelfMb overrides this process's peak RSS (0 = read it now).
 */
void reportCommon(Report &report, double peakSelfMb = 0);

/** A metric of the benchmark contract (BENCHMARK.json). */
struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics exported with --trace 0, in contract order. */
const std::vector<MetricSpec> &endToEndMetrics();
/** Per-layer metrics exported with --trace 1, in contract order. */
const std::vector<MetricSpec> &perLayerMetrics();

} // namespace perfbench

#endif // LKMM_PERFBENCH_COMMON_HH
