/**
 * @file
 * serve-mixed: an lkmm-serve daemon (default ServeOptions: crash-only
 * worker tier, journaled verdict cache) under open-loop Poisson load
 * over persistent connections.
 *
 * Most requests repeat tests from a popularity-skewed pool (cache
 * hits, answered on the connection thread); the rest are fresh diy
 * tests (misses: worker dispatch, the engine, a journal append).
 * Latency is timed from each request's due time, so queueing behind
 * busy connections counts.
 */

#include "workloads.hh"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <set>
#include <thread>

#include "base/rng.hh"
#include "diy/generator.hh"
#include "layers.hh"
#include "litmus/parser.hh"
#include "litmus/printer.hh"
#include "lkmm/catalog.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"

namespace perfbench
{

namespace
{

namespace json = lkmm::json;
namespace serve = lkmm::serve;

/*
 * The traffic below is assumed, not measured: the repository has no
 * record of real lkmm-serve traffic to copy.  The miss share, the
 * Zipf(1) popularity, the reference rate, the latency limit and the
 * ladder are the benchmark's own choices, stated in README.md.  So
 * that the weighting can be checked, the closed loop measures hits
 * and misses in separate chunks and prints each path's CPU per
 * request next to the blend that is gated.
 */

/** Assumed share of requests that are fresh tests (cache misses). */
constexpr double kMissFrac = 0.1;
/** The reference rate at which latency is reported. */
constexpr double kReferenceRate = 200;
/** p99 limit a ladder rate must meet to count toward max_rate_rps. */
constexpr double kLatencyLimitMs = 20;
/** A rate whose generator ran later than this (p99) is not counted. */
constexpr double kLagLimitMs = 5;
/** Offered rates of the ladder, ascending (x1.5 steps). */
constexpr double kLadder[] = {600,   900,   1350,  2025,  3040, 4560,
                              6840,  10250, 15380, 23070, 34600, 51900};
/**
 * Closed-loop rounds, each one hit-only and one miss-only chunk and
 * one timed spare daemon start, and the requests per chunk per
 * measured second.  Fixed counts, not times, so the cache grows by the
 * same number of fresh entries on every machine and peak RSS stays
 * comparable.
 */
constexpr int kClosedRounds = 36;
constexpr std::size_t kHitsPerSecond = 340;
constexpr std::size_t kMissesPerSecond = 38;

/** A popular request: a corpus or diy test under one model. */
struct PoolEntry
{
    std::string id;
    std::string payload;
    lkmm::Verdict expected = lkmm::Verdict::Unknown;
    /** Serialized result of the first (cold) response. */
    std::string cold;
    /** The whole reply frame of a verified cache hit: later hits are
     *  checked by byte comparison, off the latency path's way. */
    std::string hitReply;
};

/** A fresh test: a diy program never sent before. */
struct MissBase
{
    lkmm::Program prog;
    lkmm::Verdict expected = lkmm::Verdict::Unknown;
};

struct Request
{
    double dueS = 0;
    bool hit = true;
    /** PoolEntry index for hits, MissBase index for misses. */
    std::size_t index = 0;
    /** The fresh test's request (hits send their pool payload). */
    std::string missPayload;
};

struct Sample
{
    double latencyMs = 0;
    /** How late the sender woke for a request it was waiting on. */
    double lagMs = -1;
    /** How late a request was picked up because every connection
     *  was busy (the backlog); 0 when picked up on time. */
    double lateMs = 0;
    bool hit = true;
};

struct PhaseResult
{
    std::vector<Sample> samples;
    /**
     * Replies left for checkPhase: empty for a hit whose frame equals
     * its verified hit frame (settled on the spot), "!<error>" for a
     * failed exchange.
     */
    std::vector<std::string> replies;
    std::vector<char> settled;
    double wallS = 0;
    int inflightMax = 0;
    std::uint64_t hits = 0;

    std::vector<double> latencies(int which) const
    {
        std::vector<double> out;
        for (const Sample &s : samples) {
            if (which < 0 || s.hit == (which == 1))
                out.push_back(s.latencyMs);
        }
        return out;
    }
};

std::string
verifyPayload(const std::string &source, const std::string &model)
{
    json::Object o;
    o["op"] = "verify";
    o["litmus"] = source;
    if (model != "lkmm")
        o["model"] = model;
    return json::Value(std::move(o)).serialize();
}

struct Workload
{
    std::vector<PoolEntry> pool;
    /** Cumulative Zipf weights over pool (popularity skew). */
    std::vector<double> popularity;
    std::vector<MissBase> misses;
    /** Distinct names for fresh requests across the whole run. */
    std::uint64_t nextMiss = 0;
};

/** Build the hit pool and the fresh-test bases (known answers included). */
Workload
makeWorkload(const Context &ctx, Report &report)
{
    Workload w;
    const Golden golden = loadGolden(ctx.root);
    std::vector<std::pair<std::string, lkmm::Program>> corpus;
    for (lkmm::CatalogEntry &e : lkmm::table5())
        corpus.emplace_back(e.prog.name, std::move(e.prog));
    for (const std::string &path : litmusFiles(ctx.root + "/litmus/tests")) {
        corpus.emplace_back(
            "litmus/" + std::filesystem::path(path).stem().string(),
            lkmm::parseLitmusFile(path));
    }
    for (const auto &[name, prog] : corpus) {
        for (const char *model : {"lkmm", "sc", "tso", "power"}) {
            PoolEntry e;
            e.id = name + "@" + model;
            e.payload = verifyPayload(lkmm::printLitmus(prog), model);
            auto g = golden.find(name);
            if (g == golden.end() || !g->second.count(model)) {
                report.fail(e.id + ": no golden verdict");
                continue;
            }
            e.expected = g->second.at(model);
            w.pool.push_back(std::move(e));
        }
    }

    // Seeded diy tests: 40 join the popular pool, the rest are the
    // bases of fresh (miss) requests.
    lkmm::Rng rng(deriveSeed(ctx.seed, 3));
    const auto alphabet = lkmm::defaultAlphabet();
    std::set<std::string> seen;
    std::size_t diyPool = 0;
    for (int attempt = 0; attempt < 20000 && w.misses.size() < 120;
         ++attempt) {
        std::optional<lkmm::Program> p =
            lkmm::randomCycle(rng, alphabet, 2, 4);
        if (!p || p->numThreads() > 3 || !seen.insert(p->name).second)
            continue;
        const lkmm::Verdict v = referenceVerdict(ctx, *p, "lkmm");
        if (diyPool < 40) {
            PoolEntry e;
            e.id = "diy/" + p->name + "@lkmm";
            e.payload = verifyPayload(lkmm::printLitmus(*p), "lkmm");
            e.expected = v;
            w.pool.push_back(std::move(e));
            ++diyPool;
        } else {
            w.misses.push_back({std::move(*p), v});
        }
    }

    // Popularity: Zipf(1) over a seeded shuffle of the pool.
    std::vector<std::size_t> order(w.pool.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
    std::vector<PoolEntry> shuffled;
    for (std::size_t i : order)
        shuffled.push_back(std::move(w.pool[i]));
    w.pool = std::move(shuffled);
    double acc = 0;
    for (std::size_t i = 0; i < w.pool.size(); ++i) {
        acc += 1.0 / static_cast<double>(i + 1);
        w.popularity.push_back(acc);
    }
    return w;
}

double
uniform(lkmm::Rng &rng)
{
    return (static_cast<double>(rng.next() >> 11) + 0.5) * 0x1.0p-53;
}

/** One request: a popular hit, or a fresh test with odds missFrac. */
Request
drawRequest(Workload &w, lkmm::Rng &rng, double missFrac)
{
    Request r;
    r.hit = uniform(rng) >= missFrac;
    if (r.hit) {
        const double x = uniform(rng) * w.popularity.back();
        r.index = static_cast<std::size_t>(
            std::lower_bound(w.popularity.begin(), w.popularity.end(), x) -
            w.popularity.begin());
        r.index = std::min(r.index, w.pool.size() - 1);
    } else {
        r.index = rng.below(w.misses.size());
        lkmm::Program p = w.misses[r.index].prog;
        p.name += "-fresh" + std::to_string(w.nextMiss++);
        r.missPayload = verifyPayload(lkmm::printLitmus(p), "lkmm");
    }
    return r;
}

/** Open-loop Poisson arrivals at `rate` for `durationS` seconds. */
std::vector<Request>
arrivals(Workload &w, std::uint64_t seed, double rate, double durationS)
{
    lkmm::Rng rng(seed);
    std::vector<Request> out;
    for (double t = -std::log(uniform(rng)) / rate; t < durationS;
         t += -std::log(uniform(rng)) / rate) {
        out.push_back(drawRequest(w, rng, kMissFrac));
        out.back().dueS = t;
    }
    return out;
}

/** `n` requests all due at once (closed loop): hits or fresh tests. */
std::vector<Request>
backToBack(Workload &w, std::uint64_t seed, std::size_t n, bool hits)
{
    lkmm::Rng rng(seed);
    std::vector<Request> out;
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(drawRequest(w, rng, hits ? 0.0 : 1.0));
    return out;
}

/** Check one response against the known answer. */
void
verifyResponse(const Workload &w, const Request &req,
               const std::string &reply, Report &report, bool &cached)
{
    report.attempt();
    const json::Value v = json::Value::parse(reply);
    const std::string status = v.getString("status");
    if (status != "ok") {
        report.fail("serve response " + status + ": " +
                    v.getString("reason", v.getString("message")));
        return;
    }
    cached = v.getBool("cached");
    const json::Value *result = v.get("result");
    const lkmm::Verdict expected = req.hit ? w.pool[req.index].expected
                                           : w.misses[req.index].expected;
    const lkmm::Verdict got =
        verdictFromName(result ? result->getString("verdict") : "");
    if (got != expected) {
        report.fail("serve verdict " + std::string(lkmm::verdictName(got)) +
                    " for " +
                    (req.hit ? w.pool[req.index].id
                             : w.misses[req.index].prog.name));
    } else if (req.hit && cached &&
               result->serialize() != w.pool[req.index].cold) {
        report.fail("cache hit not byte-identical to cold response: " +
                    w.pool[req.index].id);
    }
}

/**
 * Drive one phase over the persistent connections.  The replies are
 * kept for checkPhase, so that a caller timing the phase leaves the
 * known-answer check out.
 */
PhaseResult
sendPhase(const Workload &w, std::vector<serve::Client> &conns,
          const std::vector<Request> &reqs)
{
    PhaseResult res;
    res.samples.resize(reqs.size());
    res.replies.resize(reqs.size());
    res.settled.resize(reqs.size(), 0);
    std::vector<std::string> &replies = res.replies;
    std::vector<char> &settled = res.settled;
    std::atomic<std::size_t> next{0};
    std::atomic<int> inflight{0};
    std::atomic<int> inflightMax{0};
    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(5);
    auto due = [&](std::size_t i) {
        return start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(reqs[i].dueS));
    };

    auto sender = [&](serve::Client &client) {
        while (true) {
            const std::size_t i = next.fetch_add(1);
            if (i >= reqs.size())
                return;
            Sample &s = res.samples[i];
            s.hit = reqs[i].hit;
            const Clock::time_point d = due(i);
            const Clock::time_point pick = Clock::now();
            if (pick < d) {
                std::this_thread::sleep_until(d);
                s.lagMs = seconds(d, Clock::now()) * 1e3;
            } else {
                s.lateMs = seconds(d, pick) * 1e3;
            }
            const int now = inflight.fetch_add(1) + 1;
            int seen = inflightMax.load();
            while (now > seen && !inflightMax.compare_exchange_weak(seen, now))
                ;
            std::optional<std::string> reply;
            try {
                ScopedSpan span(reqs[i].hit ? "serve.hit" : "serve.miss",
                                std::to_string(i));
                client.sendRaw(reqs[i].hit ? w.pool[reqs[i].index].payload
                                           : reqs[i].missPayload);
                reply = client.receiveRaw();
            } catch (const std::exception &e) {
                replies[i] = std::string("!") + e.what();
            }
            s.latencyMs = seconds(d, Clock::now()) * 1e3;
            inflight.fetch_sub(1);
            if (reply && reqs[i].hit &&
                *reply == w.pool[reqs[i].index].hitReply) {
                settled[i] = 1;
            } else if (reply) {
                replies[i] = std::move(*reply);
            } else if (replies[i].empty()) {
                replies[i] = "!connection closed";
            }
        }
    };
    std::vector<std::thread> threads;
    for (serve::Client &c : conns)
        threads.emplace_back(sender, std::ref(c));
    for (std::thread &t : threads)
        t.join();
    res.wallS = secondsSince(start);
    res.inflightMax = inflightMax.load();
    return res;
}

/** Check every reply of a sent phase against its known answer. */
void
checkPhase(const Workload &w, const std::vector<Request> &reqs,
           PhaseResult &res, Report &report)
{
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const std::string &reply = res.replies[i];
        if (res.settled[i]) {
            report.attempt();
            ++res.hits;
            res.samples[i].hit = true;
            continue;
        }
        if (!reply.empty() && reply[0] == '!') {
            report.attempt();
            report.fail("serve request failed: " + reply.substr(1));
            continue;
        }
        bool cached = false;
        verifyResponse(w, reqs[i], reply, report, cached);
        if (cached)
            ++res.hits;
        res.samples[i].hit = cached;
    }
    res.replies.clear();
    res.settled.clear();
}

PhaseResult
runPhase(const Workload &w, std::vector<serve::Client> &conns,
         const std::vector<Request> &reqs, Report &report)
{
    PhaseResult res = sendPhase(w, conns, reqs);
    checkPhase(w, reqs, res, report);
    return res;
}

/** Did a ladder phase keep up?  Fills `why` when it did not. */
bool
keptUp(const PhaseResult &r, std::string &why)
{
    std::vector<double> lag;
    std::vector<double> late;
    for (const Sample &s : r.samples) {
        if (s.lagMs >= 0)
            lag.push_back(s.lagMs);
        late.push_back(s.lateMs);
    }
    const std::size_t fifth = std::max<std::size_t>(late.size() / 5, 1);
    const double first =
        mean(std::vector<double>(late.begin(), late.begin() + fifth));
    const double last =
        mean(std::vector<double>(late.end() - fifth, late.end()));
    const double p99 = quantile(r.latencies(-1), 0.99);
    char buf[200];
    if (p99 > kLatencyLimitMs) {
        std::snprintf(buf, sizeof buf, "p99 %.2f ms > %.0f ms", p99,
                      kLatencyLimitMs);
    } else if (last > first + 5.0) {
        std::snprintf(buf, sizeof buf,
                      "backlog grows (late %.2f -> %.2f ms)", first, last);
    } else if (quantile(lag, 0.99) > kLagLimitMs) {
        std::snprintf(buf, sizeof buf, "generator lag p99 %.2f ms",
                      quantile(lag, 0.99));
    } else {
        return true;
    }
    why = buf;
    return false;
}

serve::ServeOptions
daemonOptions(const std::string &dir)
{
    serve::ServeOptions opts;
    opts.socketPath = dir + "/serve.sock";
    opts.cache.path = dir + "/cache.jsonl";
    return opts;
}

/** Start a daemon and wait until it answers a ping. */
std::unique_ptr<serve::Server>
startDaemon(const std::string &dir)
{
    auto server = std::make_unique<serve::Server>(daemonOptions(dir));
    server->start();
    serve::Client c = serve::Client::connect(server->socketPath());
    json::Object ping;
    ping["op"] = "ping";
    if (c.request(json::Value(std::move(ping))).getString("status") != "ok")
        throw std::runtime_error("daemon did not answer ping");
    return server;
}

/**
 * Times spare daemon starts in a helper process, forked while this
 * process is still small and single-threaded.  A start forks the
 * daemon's workers, and a fork copies the page tables of the process
 * that forks: started from this process, a start grew 50% dearer over
 * a run as the measured daemon's cache grew.  A freshly launched
 * lkmm-serve is small, like the helper.  Each start is a spare daemon
 * in its own directory replaying a copy of the primed journal; the
 * copy and the spare's stop are not timed.
 */
class SpareStarter
{
  public:
    struct Times
    {
        double cpuS = 0;
        double wallS = 0;
    };

    SpareStarter(const std::string &primed, const std::string &dir)
    {
        int toHelper[2];
        int fromHelper[2];
        if (::pipe2(toHelper, O_CLOEXEC) != 0)
            throw std::runtime_error("pipe failed");
        if (::pipe2(fromHelper, O_CLOEXEC) != 0) {
            ::close(toHelper[0]);
            ::close(toHelper[1]);
            throw std::runtime_error("pipe failed");
        }
        std::fflush(stdout);
        pid_ = ::fork();
        if (pid_ == 0) {
            ::close(toHelper[1]);
            ::close(fromHelper[0]);
            serveStarts(toHelper[0], fromHelper[1], primed, dir);
        }
        ::close(toHelper[0]);
        ::close(fromHelper[1]);
        toHelper_ = toHelper[1];
        fromHelper_ = fromHelper[0];
        if (pid_ < 0) {
            close();
            throw std::runtime_error("fork failed");
        }
    }

    ~SpareStarter() { close(); }
    SpareStarter(const SpareStarter &) = delete;
    SpareStarter &operator=(const SpareStarter &) = delete;

    /** Start and stop one spare daemon in the helper. */
    Times startOne()
    {
        Times t;
        const char go = 'g';
        if (::write(toHelper_, &go, 1) != 1 ||
            !readAll(fromHelper_, &t, sizeof t) || t.cpuS < 0) {
            throw std::runtime_error("spare daemon start failed");
        }
        return t;
    }

  private:
    /** The helper: one timed start per byte read, until EOF. */
    [[noreturn]] static void serveStarts(int in, int out,
                                         const std::string &primed,
                                         const std::string &dir)
    {
        char go;
        while (::read(in, &go, 1) == 1) {
            Times t;
            try {
                std::filesystem::remove_all(dir);
                std::filesystem::create_directories(dir);
                std::filesystem::copy_file(primed, dir + "/cache.jsonl");
                const Clock::time_point t0 = Clock::now();
                const double c0 = processCpuSeconds();
                std::unique_ptr<serve::Server> spare = startDaemon(dir);
                t.cpuS = processCpuSeconds() - c0;
                t.wallS = secondsSince(t0);
                spare->stop();
            } catch (const std::exception &) {
                t.cpuS = -1;
            }
            if (::write(out, &t, sizeof t) != sizeof t)
                break;
        }
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
        ::_exit(0);
    }

    static bool readAll(int fd, void *buf, std::size_t n)
    {
        char *p = static_cast<char *>(buf);
        while (n > 0) {
            const ssize_t got = ::read(fd, p, n);
            if (got <= 0)
                return false;
            p += got;
            n -= static_cast<std::size_t>(got);
        }
        return true;
    }

    /** Close the pipes; the helper sees EOF and exits.  Reap it. */
    void close()
    {
        if (toHelper_ >= 0)
            ::close(toHelper_);
        if (fromHelper_ >= 0)
            ::close(fromHelper_);
        toHelper_ = fromHelper_ = -1;
        if (pid_ > 0) {
            int status = 0;
            while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR)
                ;
            pid_ = -1;
        }
    }

    pid_t pid_ = -1;
    int toHelper_ = -1;
    int fromHelper_ = -1;
};

} // namespace

int
runServe(const Context &ctx)
{
    Report report(ctx);
    const std::string dir = ctx.workdir + "/serve";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    Workload w = makeWorkload(ctx, report);

    // Prime the cache with one cold request per pool entry, recording
    // the cold responses that every later hit must reproduce.
    {
        std::unique_ptr<serve::Server> server = startDaemon(dir);
        serve::Client c = serve::Client::connect(server->socketPath());
        for (PoolEntry &e : w.pool) {
            report.attempt();
            c.sendRaw(e.payload);
            const json::Value v = json::Value::parse(*c.receiveRaw());
            const json::Value *result = v.get("result");
            if (v.getString("status") != "ok" || !result ||
                verdictFromName(result->getString("verdict")) != e.expected) {
                report.fail("cold response for " + e.id + ": " +
                            v.serialize());
                continue;
            }
            e.cold = result->serialize();
        }
        server->stop();
    }

    // Set-up: daemon start with cache replay and worker fork.  The
    // daemon that serves the load is started once; more starts are
    // timed between closed-loop chunks by the spare starter.
    const std::string primed = ctx.workdir + "/serve-primed.jsonl";
    const std::string spareDir = ctx.workdir + "/serve-spare";
    std::filesystem::copy_file(dir + "/cache.jsonl", primed,
                               std::filesystem::copy_options::overwrite_existing);
    SetUpTimer setup;
    SpareStarter spares(primed, spareDir);
    std::unique_ptr<serve::Server> server;
    setup.time([&] { server = startDaemon(dir); });
    auto startSpare = [&] {
        const SpareStarter::Times t = spares.startOne();
        setup.record(t.cpuS, t.wallS);
    };

    // Every pool entry must now be a replayed hit, byte-identical to
    // its cold response; its reply frame becomes the reference.
    {
        serve::Client c = serve::Client::connect(server->socketPath());
        for (PoolEntry &e : w.pool) {
            Request r;
            r.index = static_cast<std::size_t>(&e - w.pool.data());
            c.sendRaw(e.payload);
            std::string reply = *c.receiveRaw();
            bool cached = false;
            verifyResponse(w, r, reply, report, cached);
            if (!cached)
                report.fail("not replayed from the cache journal: " + e.id);
            else
                e.hitReply = std::move(reply);
        }
    }

    const int nconn = static_cast<int>(std::min<unsigned>(
        4, std::max(1u, std::thread::hardware_concurrency())));
    std::vector<double> connectMs;
    for (int i = 0; i < 20; ++i) {
        const Clock::time_point t0 = Clock::now();
        serve::Client c = serve::Client::connect(server->socketPath());
        connectMs.push_back(secondsSince(t0) * 1e3);
    }
    std::vector<serve::Client> conns;
    for (int i = 0; i < nconn; ++i)
        conns.push_back(serve::Client::connect(server->socketPath()));

    const double refS = ctx.seconds * (ctx.trace ? 0.4 : 0.25);
    std::vector<Request> ref =
        arrivals(w, deriveSeed(ctx.seed, 10), kReferenceRate, refS);
    const PhaseResult plain = runPhase(w, conns, ref, report);

    Tracer tracer;
    PhaseResult traced;
    LayerTotals engine;
    if (ctx.trace) {
        Tracer::activate(&tracer);
        std::vector<Request> ref2 =
            arrivals(w, deriveSeed(ctx.seed, 11), kReferenceRate, refS);
        traced = runPhase(w, conns, ref2, report);
        // The engine share of a miss: the same tests through runTest
        // in this process.
        std::vector<LayerTest> tests;
        std::vector<std::string> sources;
        sources.reserve(w.misses.size());
        for (const MissBase &m : w.misses)
            sources.push_back(lkmm::printLitmus(m.prog));
        for (std::size_t i = 0; i < w.misses.size(); ++i)
            tests.push_back({w.misses[i].prog.name, &w.misses[i].prog,
                             sources[i], {"lkmm"}});
        engine = layerPass(tests, lkmm::EngineConfig{});
        Tracer::activate(nullptr);
    }

    // Untraced run only: the closed loop, then the ladder's highest
    // offered rate that keeps up.
    double sustained = 0;
    double cpuMsPerRequest = 0;
    double peakRss = 0;
    double maxRate = 0;
    std::string stopReason = "ladder exhausted";
    if (!ctx.trace) {
        // Hits and misses in separate chunks, each path's CPU per
        // request measured on its own, then blended at the assumed
        // miss share.
        Throughput hits;
        Throughput misses;
        for (int k = 0; k < kClosedRounds; ++k) {
            for (Throughput *t : {&hits, &misses}) {
                const bool hit = t == &hits;
                const std::vector<Request> reqs = backToBack(
                    w, deriveSeed(ctx.seed, 20 + 2 * k + (hit ? 0 : 1)),
                    static_cast<std::size_t>(
                        (hit ? kHitsPerSecond : kMissesPerSecond) *
                        ctx.seconds),
                    hit);
                const double c0 = treeCpuSeconds();
                PhaseResult r = sendPhase(w, conns, reqs);
                t->add(static_cast<double>(reqs.size()), r.wallS,
                       treeCpuSeconds() - c0);
                checkPhase(w, reqs, r, report);
            }
            startSpare();
        }
        auto blend = [](double hit, double miss) {
            return (1 - kMissFrac) * hit + kMissFrac * miss;
        };
        cpuMsPerRequest = blend(hits.cpuMsPerOp(), misses.cpuMsPerOp());
        // Requests/s of the mix: the time per request blends too.
        sustained = 1.0 / blend(1.0 / hits.rate(), 1.0 / misses.rate());
        char line[240];
        for (const Throughput *t : {&hits, &misses}) {
            const bool hit = t == &hits;
            const double share = (hit ? 1 - kMissFrac : kMissFrac) *
                                 t->cpuMsPerOp() / cpuMsPerRequest;
            std::snprintf(line, sizeof line,
                          "  closed loop, %s: CPU ms per request %.4g "
                          "(chunks min %.4g, median %.4g, max %.4g), "
                          "%.0f req/s; %.1f%% of the gated blend",
                          hit ? "hits  " : "misses", t->cpuMsPerOp(),
                          quantile(t->cpuRounds, 0), median(t->cpuRounds),
                          quantile(t->cpuRounds, 1), t->rate(), 100 * share);
            report.shape(line);
        }
        // The ladder's length depends on where it stops, and every
        // fresh request grows the cache: read the peak before it.
        peakRss = peakRssSelfMb();
        const double rungS = ctx.seconds * 0.03;
        for (std::size_t k = 0; k < std::size(kLadder); ++k) {
            std::vector<Request> reqs = arrivals(
                w, deriveSeed(ctx.seed, 100 + k), kLadder[k], rungS);
            const PhaseResult r = runPhase(w, conns, reqs, report);
            const std::vector<double> l = r.latencies(-1);
            std::snprintf(line, sizeof line,
                          "  %6.0f req/s offered: p50 %.3f ms, p99 %.3f ms "
                          "(%zu samples)",
                          kLadder[k], quantile(l, 0.5), quantile(l, 0.99),
                          l.size());
            report.shape(line);
            std::string why;
            if (!keptUp(r, why)) {
                stopReason = "stopped at " +
                             std::to_string(static_cast<int>(kLadder[k])) +
                             " req/s: " + why;
                break;
            }
            maxRate = static_cast<double>(r.samples.size()) / r.wallS;
        }
    }

    if (ctx.trace) {
        for (int i = 0; i < 5; ++i)
            startSpare();
    }
    reportSetUp(report, setup.result());

    // The daemon's own counters.
    json::Value stats;
    {
        const json::Value resp =
            conns[0].request(json::Value(json::Object{{"op", "stats"}}));
        if (const json::Value *s = resp.get("stats"))
            stats = *s;
    }
    conns.clear();
    server->stop();
    server.reset();

    const std::vector<double> lat = plain.latencies(-1);
    report.endToEnd("latency_p50_ms", quantile(lat, 0.5), "ms");
    report.endToEnd("latency_p99_ms", quantile(lat, 0.99), "ms");
    report.endToEnd("latency_samples", static_cast<double>(lat.size()),
                    "count");
    if (!ctx.trace) {
        report.endToEnd("max_rate_rps", maxRate, "req/s");
        report.endToEnd("sustained_rps", sustained, "req/s");
        report.endToEnd("cpu_ms_per_op", cpuMsPerRequest, "ms");
        report.shape("  ladder: " + stopReason);
    }
    const double hitFrac =
        static_cast<double>(plain.hits) /
        static_cast<double>(std::max<std::size_t>(plain.samples.size(), 1));
    char buf[240];
    std::snprintf(buf, sizeof buf,
                  "  pool %zu entries (Zipf), %zu fresh bases, miss share "
                  "%.2f, %d persistent connections, reference %.0f req/s",
                  w.pool.size(), w.misses.size(), kMissFrac, nconn,
                  kReferenceRate);
    report.shape(buf);
    std::snprintf(buf, sizeof buf,
                  "  achieved hit ratio %.3f (%llu hits of %zu)", hitFrac,
                  static_cast<unsigned long long>(plain.hits),
                  plain.samples.size());
    report.shape(buf);

    if (ctx.trace) {
        std::vector<double> lag;
        for (const Sample &s : traced.samples) {
            if (s.lagMs >= 0)
                lag.push_back(s.lagMs);
        }
        reportLayers(report, tracer, engine, 0, 0);
        report.layer("serve.connect_ms", median(connectMs), "ms");
        report.layer("serve.hit_ms.p50", quantile(traced.latencies(1), 0.5),
                     "ms");
        report.layer("serve.hit_ms.p99", quantile(traced.latencies(1), 0.99),
                     "ms");
        report.layer("serve.miss_ms.p50", quantile(traced.latencies(0), 0.5),
                     "ms");
        report.layer("serve.miss_ms.p99",
                     quantile(traced.latencies(0), 0.99), "ms");
        report.layer("serve.miss_engine_ms.p50",
                     median(tracer.durations("lkmm.run_test", 1e3)), "ms");
        report.layer("serve.hit_frac",
                     static_cast<double>(traced.hits) /
                         static_cast<double>(
                             std::max<std::size_t>(traced.samples.size(), 1)),
                     "ratio");
        const json::Value *cache = stats.get("cache");
        report.layer("serve.shed",
                     static_cast<double>(
                         stats.getInt("shed_queue_full") +
                         stats.getInt("shed_deadline") +
                         stats.getInt("shed_worker_unavailable")),
                     "count");
        report.layer("serve.errors",
                     static_cast<double>(stats.getInt("errors")), "count");
        report.layer("serve.worker_crashes",
                     static_cast<double>(stats.getInt("worker_crashes")),
                     "count");
        report.layer("serve.worker_timeouts",
                     static_cast<double>(stats.getInt("worker_timeouts")),
                     "count");
        report.layer("serve.cache.insertions",
                     cache ? static_cast<double>(cache->getInt("insertions"))
                           : 0.0,
                     "count");
        report.layer("serve.cache.journal_bytes",
                     cache ? static_cast<double>(
                                 cache->getInt("journal_bytes"))
                           : 0.0,
                     "bytes");
        report.layer("serve.generator_lag_ms.p99", quantile(lag, 0.99), "ms");
        report.layer("serve.inflight_max", traced.inflightMax, "count");
        const double untracedP50 = quantile(lat, 0.5);
        report.layer("trace.overhead_frac",
                     quantile(traced.latencies(-1), 0.5) / untracedP50 - 1.0,
                     "ratio");
        report.expect(traced.hits > 0 && traced.hits < traced.samples.size(),
                      "serve-mixed sees both cache hits and misses");
        tracer.finish(report, ctx.workdir + "/trace-" + ctx.workload + ".jsonl");
    }
    std::filesystem::remove_all(dir);
    std::filesystem::remove_all(spareDir);
    std::filesystem::remove(primed);
    reportCommon(report, ctx.trace ? peakRssSelfMb() : peakRss);
    return report.finish();
}

} // namespace perfbench
