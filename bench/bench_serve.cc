/**
 * @file
 * Throughput of the lkmm-serve daemon over its unix socket: verify
 * requests at 1, 4, and hardware-thread client counts, cold (cache
 * bypassed, every request runs the verification engine) versus warm
 * (journal-backed verdict cache, every request is a hit answered on
 * the connection thread).  SetItemsProcessed makes items/s a
 * requests/sec figure, so the CI harness
 * (--benchmark_out=BENCH_serve.json) captures the cache-speedup
 * curve directly; the acceptance bar is >= 5x warm over cold at 4
 * clients.
 *
 * Everything crosses the real wire — connect, frame, parse — so the
 * warm figure is an honest end-to-end number, not a map lookup in a
 * loop.  Cold requests also pay the round trip to a forked worker;
 * WorkerIsolation.WarmHitsNeverReachAWorker pins that hits do not.
 */

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "base/scheduler.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"

namespace
{

using namespace lkmm;

/**
 * Four distinct three-thread tests with a deliberately rich rf/co
 * space (~100 ms cold apiece).  Table 5 entries verify in well under
 * a millisecond — parse-and-frame overhead, which warm hits also
 * pay, would dominate and understate the cache win.  A heavy corpus
 * makes the cold number measure verification and the warm number
 * measure the cache, which is the comparison the 5x gate is about.
 */
const std::vector<std::string> &
corpus()
{
    static const std::vector<std::string> sources = [] {
        std::vector<std::string> out;
        for (int i = 0; i < 4; ++i) {
            out.push_back(
                "C HEAVY" + std::to_string(i) +
                "\n\n"
                "{ x=0; y=0; }\n\n"
                "P0(int *x, int *y) {\n"
                "  WRITE_ONCE(*x, 1);\n"
                "  int r0 = READ_ONCE(*y);\n"
                "  int r1 = READ_ONCE(*x);\n"
                "  WRITE_ONCE(*y, 1);\n"
                "}\n\n"
                "P1(int *x, int *y) {\n"
                "  WRITE_ONCE(*y, 2);\n"
                "  int r0 = READ_ONCE(*x);\n"
                "  int r1 = READ_ONCE(*y);\n"
                "  WRITE_ONCE(*x, 2);\n"
                "}\n\n"
                "P2(int *x, int *y) {\n"
                "  int r0 = READ_ONCE(*x);\n"
                "  int r1 = READ_ONCE(*y);\n"
                "  WRITE_ONCE(*x, 3);\n"
                "}\n\n"
                "exists (0:r0=2 /\\ 1:r0=3 /\\ 2:r0=1)\n");
        }
        return out;
    }();
    return sources;
}

/**
 * `clients` threads, each on its own connection, issuing `perClient`
 * verify requests round-robin over the corpus.  Throws on any
 * non-ok response, so a shed or error can never inflate the rate.
 */
void
issueRequests(const std::string &socketPath, int clients,
              int perClient, bool nocache)
{
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            try {
                serve::Client client =
                    serve::Client::connect(socketPath);
                client.setTimeout(std::chrono::milliseconds(60000));
                for (int r = 0; r < perClient; ++r) {
                    json::Object req;
                    req["op"] = "verify";
                    req["litmus"] =
                        corpus()[static_cast<std::size_t>(c + r) %
                                 corpus().size()];
                    if (nocache)
                        req["nocache"] = true;
                    const json::Value resp =
                        client.request(json::Value(std::move(req)));
                    if (resp.getString("status") != "ok")
                        ++failures;
                }
            } catch (const std::exception &) {
                ++failures;
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    if (failures.load() != 0)
        throw std::runtime_error("serve benchmark requests failed");
}

/**
 * Args: (clients, warm).  Warm runs prime the cache once outside the
 * timed region; cold runs set nocache so every request verifies.
 */
void
BM_ServeRequests(benchmark::State &state)
{
    const int clients = static_cast<int>(state.range(0));
    const bool warm = state.range(1) != 0;
    const int perClient = 4;

    serve::ServeOptions opts;
    opts.socketPath = "/tmp/bench_serve_" +
                      std::to_string(::getpid()) + ".sock";
    opts.workers = ThreadPool::hardwareThreads();
    opts.maxPending = 0; // unbounded: measure throughput, not sheds
    serve::Server server(opts);
    server.start();

    if (warm)
        issueRequests(opts.socketPath, 1,
                      static_cast<int>(corpus().size()), false);

    std::size_t requests = 0;
    for (auto _ : state) {
        issueRequests(opts.socketPath, clients, perClient, !warm);
        requests += static_cast<std::size_t>(clients * perClient);
    }
    server.stop();
    state.SetItemsProcessed(static_cast<std::int64_t>(requests));
    state.counters["clients"] = static_cast<double>(clients);
    state.counters["warm"] = warm ? 1.0 : 0.0;
}
BENCHMARK(BM_ServeRequests)
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({4, 0})
    ->Args({4, 1})
    ->Args({static_cast<long>(ThreadPool::hardwareThreads()), 0})
    ->Args({static_cast<long>(ThreadPool::hardwareThreads()), 1})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

} // namespace

BENCHMARK_MAIN();
