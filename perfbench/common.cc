#include "common.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <ctime>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "base/json.hh"
#include "exec/engine_config.hh"
#include "model/registry.hh"

namespace perfbench
{

double
seconds(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

double
secondsSince(Clock::time_point t0)
{
    return seconds(t0, Clock::now());
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
sum(const std::vector<double> &v)
{
    return std::accumulate(v.begin(), v.end(), 0.0);
}

double
mean(const std::vector<double> &v)
{
    return v.empty() ? 0 : sum(v) / static_cast<double>(v.size());
}

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::vector<std::string>
litmusFiles(const std::string &dir)
{
    std::vector<std::string> out;
    for (const auto &e : std::filesystem::directory_iterator(dir)) {
        if (e.path().extension() == ".litmus")
            out.push_back(e.path().string());
    }
    std::sort(out.begin(), out.end());
    if (out.empty())
        throw std::runtime_error("no .litmus files in " + dir);
    return out;
}

namespace
{

double
maxRssMb(int who)
{
    struct rusage ru{};
    getrusage(who, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

} // namespace

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double
childrenCpuSeconds()
{
    struct rusage ru{};
    getrusage(RUSAGE_CHILDREN, &ru);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

namespace
{

/** Nanoseconds on a CPU, the first field of schedstat; 0 when gone. */
double
pidCpuSeconds(const std::string &pid)
{
    std::ifstream in("/proc/" + pid + "/schedstat");
    double ns = 0;
    return in >> ns ? ns * 1e-9 : 0;
}

/** Is /proc/<pid> a child of this process? */
bool
isChild(const std::string &pid)
{
    std::ifstream in("/proc/" + pid + "/stat");
    std::string stat;
    std::getline(in, stat);
    // "pid (comm) state ppid ...": comm may hold spaces and parens.
    const std::size_t close = stat.rfind(')');
    if (close == std::string::npos)
        return false;
    std::istringstream rest(stat.substr(close + 1));
    std::string state;
    long ppid = 0;
    return rest >> state >> ppid && ppid == static_cast<long>(getpid());
}

} // namespace

double
treeCpuSeconds()
{
    // Reaped children are in RUSAGE_CHILDREN; live ones (serve
    // workers) are read from /proc.  A child reaped mid-window is
    // counted once: its reaped total minus its live reading at start.
    double cpu = processCpuSeconds() + childrenCpuSeconds();
    for (const auto &e : std::filesystem::directory_iterator("/proc")) {
        const std::string pid = e.path().filename().string();
        if (pid.find_first_not_of("0123456789") == std::string::npos &&
            isChild(pid)) {
            cpu += pidCpuSeconds(pid);
        }
    }
    return cpu;
}

double
peakRssSelfMb()
{
    // VmHWM belongs to this process image.  getrusage's ru_maxrss
    // would also cover the image before exec (the python launcher).
    std::ifstream in("/proc/self/status");
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return maxRssMb(RUSAGE_SELF);
}

double
peakRssChildMb()
{
    return maxRssMb(RUSAGE_CHILDREN);
}

/* ------------------------------------------------------------------ */
/* Report                                                             */
/* ------------------------------------------------------------------ */

void
Report::endToEnd(const std::string &name, double value,
                 const std::string &unit)
{
    endToEnd_.push_back({name, value, unit});
}

void
Report::layer(const std::string &name, double value,
              const std::string &unit)
{
    layers_.push_back({name, value, unit});
}

void
Report::shape(const std::string &line)
{
    shape_.push_back(line);
}

void
Report::expect(bool ok, const std::string &what)
{
    shape_.push_back(std::string(ok ? "  ok    " : "  FAIL  ") + what);
    if (!ok)
        expectationsHeld_ = false;
}

void
Report::fail(const std::string &why)
{
    ++failed_;
    if (failures_.size() < 20)
        failures_.push_back(why);
}

namespace
{

std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

} // namespace

int
Report::finish()
{
    std::printf("== %s seed=%llu seconds=%g trace=%d\n",
                ctx_.workload.c_str(),
                static_cast<unsigned long long>(ctx_.seed), ctx_.seconds,
                ctx_.trace ? 1 : 0);
    if (!shape_.empty()) {
        std::printf("-- shape\n");
        for (const std::string &line : shape_)
            std::printf("%s\n", line.c_str());
    }
    std::printf("-- end-to-end\n");
    for (const Entry &e : endToEnd_) {
        std::printf("  %-28s %14.6g %s\n", e.name.c_str(), e.value,
                    e.unit.c_str());
    }
    if (!layers_.empty()) {
        std::printf("-- per-layer (traced run)\n");
        for (const Entry &e : layers_) {
            std::printf("  %-36s %14.6g %s\n", e.name.c_str(), e.value,
                        e.unit.c_str());
        }
    }
    for (const std::string &f : failures_)
        std::printf("FAILED %s\n", f.c_str());

    const bool correct =
        failed_ == 0 && attempted_ > 0 && expectationsHeld_;

    // The contract line: exactly the exported metric set, in order.
    const std::vector<Entry> &source = ctx_.trace ? layers_ : endToEnd_;
    const std::vector<MetricSpec> &specs =
        ctx_.trace ? perLayerMetrics() : endToEndMetrics();
    std::string metrics;
    bool complete = true;
    for (const MetricSpec &spec : specs) {
        auto it = std::find_if(source.begin(), source.end(), [&](const Entry &e) {
            return e.name == spec.name;
        });
        // A layer a workload does not exercise reads 0; an end-to-end
        // metric must always be measured.
        if (it == source.end() && !ctx_.trace)
            complete = false;
        if (!metrics.empty())
            metrics += ", ";
        metrics += std::string("\"") + spec.name + "\": {\"value\": " +
                   number(it == source.end() ? 0.0 : it->value) +
                   ", \"unit\": \"" + spec.unit + "\"}";
    }
    if (!complete) {
        std::fprintf(stderr, "perfbench: an end-to-end metric is missing\n");
        return 2;
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_), metrics.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

/* ------------------------------------------------------------------ */
/* Tracer                                                             */
/* ------------------------------------------------------------------ */

namespace
{

std::atomic<Tracer *> gTracer{nullptr};

struct LocalSlot
{
    const Tracer *owner = nullptr;
    void *buffer = nullptr;
};
thread_local LocalSlot tLocal;

} // namespace

Tracer *
Tracer::active()
{
    return gTracer.load(std::memory_order_acquire);
}

void
Tracer::activate(Tracer *tracer)
{
    gTracer.store(tracer, std::memory_order_release);
}

Tracer::Buffer &
Tracer::local()
{
    if (tLocal.owner != this) {
        std::lock_guard<std::mutex> lock(mutex_);
        buffers_.push_back(std::make_unique<Buffer>());
        buffers_.back()->thread =
            static_cast<std::uint32_t>(buffers_.size() - 1);
        tLocal.owner = this;
        tLocal.buffer = buffers_.back().get();
    }
    return *static_cast<Buffer *>(tLocal.buffer);
}

std::size_t
Tracer::open(const char *name, std::string id)
{
    Buffer &b = local();
    Span s;
    s.name = name;
    s.id = std::move(id);
    s.thread = b.thread;
    s.parent = b.open.empty() ? -1 : b.open.back();
    s.startNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - epoch_)
                    .count();
    b.spans.push_back(std::move(s));
    const auto index = static_cast<std::int32_t>(b.spans.size() - 1);
    b.open.push_back(index);
    return static_cast<std::size_t>(index);
}

void
Tracer::close(std::size_t handle)
{
    const std::int64_t now =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             epoch_)
            .count();
    Buffer &b = local();
    b.spans[handle].endNs = now;
    if (!b.open.empty())
        b.open.pop_back();
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Span> out;
    for (const auto &b : buffers_)
        out.insert(out.end(), b->spans.begin(), b->spans.end());
    return out;
}

std::vector<Span>
Tracer::named(const std::string &name) const
{
    std::vector<Span> out;
    for (Span &s : spans()) {
        if (name == s.name)
            out.push_back(std::move(s));
    }
    return out;
}

std::vector<double>
Tracer::durations(const std::string &name, double scale) const
{
    std::vector<double> out;
    for (const Span &s : named(name))
        out.push_back(s.seconds() * scale);
    return out;
}

std::map<std::string, Tracer::Totals>
Tracer::totals() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::string, Totals> out;
    for (const auto &b : buffers_) {
        // Parent indices are per thread buffer.
        std::vector<double> children(b->spans.size(), 0.0);
        for (const Span &s : b->spans) {
            if (s.parent >= 0)
                children[static_cast<std::size_t>(s.parent)] += s.seconds();
        }
        for (std::size_t i = 0; i < b->spans.size(); ++i) {
            Totals &t = out[b->spans[i].name];
            ++t.calls;
            t.totalS += b->spans[i].seconds();
            t.selfS += b->spans[i].seconds() - children[i];
        }
    }
    return out;
}

void
Tracer::finish(Report &report, const std::string &path) const
{
    for (const auto &[name, t] : totals()) {
        char line[200];
        std::snprintf(line, sizeof line,
                      "  span %-26s %8llu calls, total %.4f s, self %.4f s",
                      name.c_str(), static_cast<unsigned long long>(t.calls),
                      t.totalS, t.selfS);
        report.shape(line);
    }
    report.shape("  spans written to " + path);
    write(path);
}

void
Tracer::write(const std::string &path) const
{
    std::ofstream out(path, std::ios::trunc);
    for (const Span &s : spans()) {
        lkmm::json::Object o;
        o["name"] = s.name;
        o["start_ns"] = s.startNs;
        o["end_ns"] = s.endNs;
        o["parent"] = static_cast<std::int64_t>(s.parent);
        o["thread"] = static_cast<std::int64_t>(s.thread);
        o["id"] = s.id;
        out << lkmm::json::Value(std::move(o)).serialize() << '\n';
    }
}

ScopedSpan::ScopedSpan(const char *name, std::string id)
    : tracer_(Tracer::active())
{
    if (tracer_)
        handle_ = tracer_->open(name, std::move(id));
}

ScopedSpan::~ScopedSpan()
{
    if (tracer_)
        tracer_->close(handle_);
}

/* ------------------------------------------------------------------ */
/* TimedModel                                                         */
/* ------------------------------------------------------------------ */

void
CheckStats::merge(const CheckStats &other)
{
    ns += other.ns;
    calls += other.calls;
    for (const auto &[axiom, n] : other.rejects)
        rejects[axiom] += n;
}

std::optional<lkmm::Violation>
TimedModel::check(const lkmm::CandidateExecution &ex) const
{
    const Clock::time_point t0 = Clock::now();
    std::optional<lkmm::Violation> v = inner_->check(ex);
    stats_.ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                     Clock::now() - t0)
                     .count();
    ++stats_.calls;
    if (v)
        ++stats_.rejects[v->axiom];
    return v;
}

lkmm::ModelFactory
timedFactory(lkmm::ModelFactory inner)
{
    return [inner = std::move(inner)]() -> std::unique_ptr<lkmm::Model> {
        return std::make_unique<TimedModel>(inner());
    };
}

/* ------------------------------------------------------------------ */
/* Known answers                                                      */
/* ------------------------------------------------------------------ */

lkmm::Verdict
verdictFromName(const std::string &name)
{
    if (name == "Allow")
        return lkmm::Verdict::Allow;
    if (name == "Forbid")
        return lkmm::Verdict::Forbid;
    return lkmm::Verdict::Unknown;
}

Golden
loadGolden(const std::string &root)
{
    const lkmm::json::Value doc = lkmm::json::Value::parse(
        slurp(root + "/tests/golden/catalog.json"));
    Golden out;
    for (const lkmm::json::Value &t : doc.get("tests")->asArray()) {
        auto &models = out[t.getString("name")];
        for (const auto &[model, v] : t.get("models")->asObject())
            models[model] = verdictFromName(v.asString());
    }
    return out;
}

lkmm::Verdict
referenceVerdict(const Context &ctx, const lkmm::Program &prog,
                 const std::string &spec)
{
    // LKMM has two implementations, native and lkmm.cat: each checks
    // the other (under rf-first, which keeps the cat side affordable
    // on 4-thread tests).  Every other model is re-run by brute force.
    const std::string lkmmCat = "cat:" + ctx.catModel("lkmm");
    lkmm::EngineConfig engine;
    std::string refSpec = spec;
    if (spec == "lkmm" || spec == lkmmCat) {
        refSpec = spec == "lkmm" ? lkmmCat : "lkmm";
        engine.setMode("rf-first");
    } else {
        engine.setMode("brute");
    }
    const std::unique_ptr<lkmm::Model> model =
        lkmm::ModelRegistry::instance().factoryFor(refSpec)();
    return lkmm::runTest(prog, *model, engine.budget, engine.enumerate)
        .verdict;
}

void
reportSetUp(Report &report, const SetUpTime &t)
{
    report.endToEnd("setup_s", t.cpuS, "s");
    report.endToEnd("setup_wall_s", t.wallS, "s");
    const std::vector<double> &v = t.cpuReps;
    char line[200];
    std::snprintf(line, sizeof line,
                  "  set-up timed %zu times over the run: CPU ms min %.4g, "
                  "q10 %.4g, median %.4g",
                  v.size(), 1e3 * quantile(v, 0), 1e3 * t.cpuS,
                  1e3 * median(v));
    report.shape(line);
}

void
reportCommon(Report &report, double peakSelfMb)
{
    report.endToEnd("peak_rss_mb",
                    peakSelfMb > 0 ? peakSelfMb : peakRssSelfMb(), "MB");
    report.endToEnd("peak_child_rss_mb", peakRssChildMb(), "MB");
    const double attempted =
        static_cast<double>(std::max<std::uint64_t>(report.attempted(), 1));
    report.endToEnd("failed_frac",
                    static_cast<double>(report.failed()) / attempted,
                    "ratio");
}

const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"setup_s", "s"},
        {"cpu_ms_per_op", "ms"},
        {"peak_rss_mb", "MB"},
    };
    return specs;
}

const std::vector<MetricSpec> &
perLayerMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"litmus.parse_us.mean", "us"},
        {"litmus.parse_calls", "count"},
        {"litmus.print_us.mean", "us"},
        {"exec.enumerate_s", "s"},
        {"exec.candidates", "count"},
        {"exec.path_combos", "count"},
        {"exec.rf_assignments", "count"},
        {"exec.rf_pruned", "count"},
        {"exec.valuation_rejects", "count"},
        {"exec.rf_sat_rejects", "count"},
        {"exec.co_sat_forced", "count"},
        {"exec.co_fallbacks", "count"},
        {"exec.useful_frac", "ratio"},
        {"model.check_s", "s"},
        {"model.check_calls", "count"},
        {"model.check_us.mean", "us"},
        {"model.reject.sc-per-variable", "count"},
        {"model.reject.atomicity", "count"},
        {"model.reject.happens-before", "count"},
        {"model.reject.propagates-before", "count"},
        {"model.reject.rcu", "count"},
        {"cat.check_s", "s"},
        {"cat.check_calls", "count"},
        {"cat.check_us.mean", "us"},
        {"cat.load_ms", "ms"},
        {"cat.reject.happens-before", "count"},
        {"cat.reject.propagates-before", "count"},
        {"cat.reject.uniproc", "count"},
        {"cat.reject.tso-ghb", "count"},
        {"cat.reject.sc", "count"},
        {"lkmm.run_test_s", "s"},
        {"lkmm.runner_self_s", "s"},
        {"lkmm.test_ms.p50", "ms"},
        {"lkmm.test_ms.p99", "ms"},
        {"lkmm.batch_parallel_eff", "ratio"},
        {"serve.connect_ms", "ms"},
        {"serve.hit_ms.p50", "ms"},
        {"serve.hit_ms.p99", "ms"},
        {"serve.miss_ms.p50", "ms"},
        {"serve.miss_ms.p99", "ms"},
        {"serve.miss_engine_ms.p50", "ms"},
        {"serve.hit_frac", "ratio"},
        {"serve.shed", "count"},
        {"serve.errors", "count"},
        {"serve.worker_crashes", "count"},
        {"serve.worker_timeouts", "count"},
        {"serve.cache.insertions", "count"},
        {"serve.cache.journal_bytes", "bytes"},
        {"serve.generator_lag_ms.p99", "ms"},
        {"serve.inflight_max", "count"},
        {"fuzz.generate_us.mean", "us"},
        {"fuzz.side_ms.native-lkmm.mean", "ms"},
        {"fuzz.side_ms.cat-lkmm.mean", "ms"},
        {"fuzz.side_ms.rf-first-lkmm.mean", "ms"},
        {"fuzz.side_ms.brute-lkmm.mean", "ms"},
        {"fuzz.side_ms.native-sc.mean", "ms"},
        {"fuzz.findings", "count"},
        {"subprocess.isolate_ms.mean", "ms"},
        {"subprocess.isolate_share", "ratio"},
        {"trace.overhead_frac", "ratio"},
    };
    return specs;
}

} // namespace perfbench
