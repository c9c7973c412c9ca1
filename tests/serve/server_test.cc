/**
 * @file
 * End-to-end tests for the lkmm-serve daemon core (serve/server):
 * cold-vs-warm byte identity across every registry model, warm
 * restart from the journal, no worker left behind by a constructor
 * that throws, admission control and deadline sheds
 * (always the sound Unknown, never a wrong verdict), per-client
 * fault isolation, and a multi-client stress run sized for TSan.
 *
 * Everything here talks to a real Server over its unix socket —
 * the in-process equivalent of the CLI smoke test, but with the
 * knobs (workers, maxPending, deadlines, frame caps) pinned to
 * values that make each degradation path deterministic.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "model/registry.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"

namespace lkmm::serve
{
namespace
{

const char *kMp = "C MP\n\n{ x=0; y=0; }\n\n"
                  "P0(int *x, int *y) {\n"
                  "  WRITE_ONCE(*x, 1);\n"
                  "  WRITE_ONCE(*y, 1);\n}\n\n"
                  "P1(int *x, int *y) {\n"
                  "  int r0 = READ_ONCE(*y);\n"
                  "  int r1 = READ_ONCE(*x);\n}\n\n"
                  "exists (1:r0=1 /\\ 1:r1=0)\n";

const char *kSb = "C SB\n\n{ x=0; y=0; }\n\n"
                  "P0(int *x, int *y) {\n"
                  "  WRITE_ONCE(*x, 1);\n"
                  "  int r0 = READ_ONCE(*y);\n}\n\n"
                  "P1(int *x, int *y) {\n"
                  "  WRITE_ONCE(*y, 1);\n"
                  "  int r1 = READ_ONCE(*x);\n}\n\n"
                  "exists (0:r0=0 /\\ 1:r1=0)\n";

/**
 * A deliberately huge candidate space: four writers to x, eight
 * reads of x, so the rf/co enumeration runs for many seconds.  Only
 * ever issued with a deadline — its job is to pin a worker for a
 * known minimum time so queue-full and deadline sheds become
 * deterministic, not to finish.
 */
const char *kHuge = "C HUGE\n\n{ x=0; }\n\n"
                    "P0(int *x) {\n"
                    "  WRITE_ONCE(*x, 1);\n"
                    "  int r0 = READ_ONCE(*x);\n"
                    "  int r1 = READ_ONCE(*x);\n}\n\n"
                    "P1(int *x) {\n"
                    "  WRITE_ONCE(*x, 2);\n"
                    "  int r0 = READ_ONCE(*x);\n"
                    "  int r1 = READ_ONCE(*x);\n}\n\n"
                    "P2(int *x) {\n"
                    "  WRITE_ONCE(*x, 3);\n"
                    "  int r0 = READ_ONCE(*x);\n"
                    "  int r1 = READ_ONCE(*x);\n}\n\n"
                    "P3(int *x) {\n"
                    "  WRITE_ONCE(*x, 4);\n"
                    "  int r0 = READ_ONCE(*x);\n"
                    "  int r1 = READ_ONCE(*x);\n}\n\n"
                    "exists (0:r0=4 /\\ 1:r0=1 /\\ 2:r0=2 /\\ 3:r0=3)\n";

std::string
socketPath(const std::string &name)
{
    const std::string path =
        ::testing::TempDir() + "serve_test_" + name + ".sock";
    std::remove(path.c_str());
    return path;
}

std::string
cachePath(const std::string &name)
{
    const std::string path =
        ::testing::TempDir() + "serve_test_" + name + ".jsonl";
    std::remove(path.c_str());
    return path;
}

json::Object
verifyRequest(const std::string &source)
{
    json::Object req;
    req["op"] = "verify";
    req["litmus"] = source;
    return req;
}

json::Value
request(const std::string &socket, const json::Value &req)
{
    Client client = Client::connect(socket);
    client.setTimeout(std::chrono::milliseconds(60000));
    return client.request(req);
}

TEST(Server, ColdThenWarmHitIsByteIdentical)
{
    ServeOptions opts;
    opts.socketPath = socketPath("warm");
    opts.workers = 2;
    Server server(opts);
    server.start();

    const json::Value req = verifyRequest(kMp);
    const json::Value cold = request(opts.socketPath, req);
    ASSERT_EQ(cold.getString("status"), "ok") << cold.serialize();
    EXPECT_FALSE(cold.getBool("cached", true));
    EXPECT_EQ(cold.get("result")->getString("verdict"), "Allow")
        << "MP is allowed without fences";

    const json::Value warm = request(opts.socketPath, req);
    ASSERT_EQ(warm.getString("status"), "ok");
    EXPECT_TRUE(warm.getBool("cached", false));
    EXPECT_EQ(warm.get("result")->serialize(),
              cold.get("result")->serialize());
    EXPECT_EQ(server.stats().cacheHits, 1u);
    server.stop();
}

TEST(Server, EveryRegistryModelCacheHitIsByteIdentical)
{
    ServeOptions opts;
    opts.socketPath = socketPath("models");
    opts.workers = 2;
    opts.cache.path = cachePath("models");
    std::vector<std::string> coldResults;
    {
        Server server(opts);
        server.start();
        for (const ModelInfo &info :
             ModelRegistry::instance().listModels()) {
            json::Object req = verifyRequest(kMp);
            req["model"] = info.name;
            const json::Value cold =
                request(opts.socketPath, json::Value(req));
            ASSERT_EQ(cold.getString("status"), "ok")
                << info.name << ": " << cold.serialize();
            EXPECT_FALSE(cold.getBool("cached", true)) << info.name;
            coldResults.push_back(cold.get("result")->serialize());

            const json::Value warm =
                request(opts.socketPath, json::Value(req));
            EXPECT_TRUE(warm.getBool("cached", false)) << info.name;
            EXPECT_EQ(warm.get("result")->serialize(),
                      coldResults.back())
                << info.name;
        }
        server.stop();
    }

    // A restarted daemon replays the journal: every model's verdict
    // must come back cached and byte-identical to the cold run.
    Server reborn(opts);
    reborn.start();
    EXPECT_EQ(reborn.cacheStats().recoveredEntries,
              coldResults.size());
    std::size_t i = 0;
    for (const ModelInfo &info :
         ModelRegistry::instance().listModels()) {
        json::Object req = verifyRequest(kMp);
        req["model"] = info.name;
        const json::Value warm =
            request(opts.socketPath, json::Value(req));
        ASSERT_EQ(warm.getString("status"), "ok") << info.name;
        EXPECT_TRUE(warm.getBool("cached", false))
            << info.name << " after restart";
        EXPECT_EQ(warm.get("result")->serialize(), coldResults[i++])
            << info.name << " after restart";
    }
    reborn.stop();
}

TEST(Server, EscapedNameRepliesAreByteIdenticalAcrossRestartAndCompaction)
{
    // A test name the JSON layer must escape, both inside the key's
    // fingerprint and as the result's "test" field.
    const std::string name = "a\"b\\c\x01";
    const std::string source = "C " + name + std::string(kMp).substr(4);
    const std::vector<std::string> models = {"lkmm", "sc"};
    ServeOptions opts;
    opts.socketPath = socketPath("escaped");
    opts.workers = 2;
    opts.cache.path = cachePath("escaped");

    // One raw reply frame, which must be canonical JSON.
    auto verify = [&](const std::string &model) {
        json::Object req = verifyRequest(source);
        req["model"] = model;
        Client client = Client::connect(opts.socketPath);
        client.setTimeout(std::chrono::milliseconds(60000));
        client.sendRaw(json::Value(std::move(req)).serialize());
        const std::string reply = client.receiveRaw().value_or("");
        EXPECT_EQ(json::Value::parse(reply).serialize(), reply);
        return reply;
    };

    // Every later hit must be the cold reply, byte for byte, but
    // for the cached marker.
    const std::string coldMarker = "{\"cached\":false,";
    std::vector<std::string> hitReplies;
    {
        Server server(opts);
        server.start();
        for (const std::string &model : models) {
            const std::string cold = verify(model);
            const json::Value v = json::Value::parse(cold);
            ASSERT_EQ(v.getString("status"), "ok") << cold;
            EXPECT_EQ(v.get("result")->getString("test"), name);
            ASSERT_EQ(cold.compare(0, coldMarker.size(), coldMarker), 0)
                << cold;
            hitReplies.push_back("{\"cached\":true," +
                                 cold.substr(coldMarker.size()));
            EXPECT_EQ(verify(model), hitReplies.back()) << model;
        }
        server.stop();
    }

    auto expectWarmHits = [&](const char *phase) {
        Server server(opts);
        server.start();
        EXPECT_EQ(server.cacheStats().recoveredEntries, models.size())
            << phase;
        for (std::size_t i = 0; i < models.size(); ++i) {
            EXPECT_EQ(verify(models[i]), hitReplies[i])
                << models[i] << " " << phase;
        }
        server.stop();
    };
    expectWarmHits("after restart");
    {
        VerdictCache cache(opts.cache);
        cache.compactNow();
        EXPECT_EQ(cache.stats().compactions, 1u);
    }
    expectWarmHits("after compaction and restart");
}

TEST(Server, QueueFullShedsWithSoundUnknown)
{
    ServeOptions opts;
    opts.socketPath = socketPath("shed");
    opts.workers = 1;
    // The brute engine's rf x co stream keeps HUGE busy far past its
    // deadline; rf-first saturates its coherence in under a second.
    opts.engine.setMode("brute");
    opts.maxPending = 1;
    Server server(opts);
    server.start();

    // Pin the single worker: the huge test cannot finish inside its
    // 1.5 s deadline, so the worker is busy for that long.
    json::Object hugeReq = verifyRequest(kHuge);
    hugeReq["deadline_ms"] = static_cast<std::int64_t>(1500);
    json::Value hugeResp;
    std::thread pinner([&] {
        hugeResp = request(opts.socketPath, json::Value(hugeReq));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(400));

    // With the only slot taken, the next verification is shed...
    const json::Value shed =
        request(opts.socketPath, verifyRequest(kMp));
    EXPECT_EQ(shed.getString("status"), "shed") << shed.serialize();
    EXPECT_EQ(shed.getString("reason"), "queue-full");
    EXPECT_EQ(shed.getString("verdict"), "Unknown")
        << "shedding must degrade soundly, never guess";
    EXPECT_TRUE(shed.getBool("retryable", false))
        << "a full queue is transient; clients may retry";
    EXPECT_GT(shed.getInt("retry_after_ms"), 0);

    pinner.join();
    // ...and the pinned request itself degraded soundly: truncated
    // by its deadline, verdict Unknown, and (being incomplete) never
    // cached.
    ASSERT_EQ(hugeResp.getString("status"), "ok")
        << hugeResp.serialize();
    EXPECT_EQ(hugeResp.get("result")->getString("verdict"), "Unknown");
    EXPECT_NE(hugeResp.get("result")->getString("completeness"),
              "complete");
    EXPECT_EQ(server.cacheStats().insertions, 0u)
        << "truncated runs must never be cached";
    EXPECT_EQ(server.stats().shedQueueFull, 1u);
    server.stop();
}

TEST(Server, QueuedPastDeadlineShedsWithoutRunning)
{
    ServeOptions opts;
    opts.socketPath = socketPath("deadline");
    opts.workers = 1;
    // The brute engine's rf x co stream keeps HUGE busy far past its
    // deadline; rf-first saturates its coherence in under a second.
    opts.engine.setMode("brute");
    opts.maxPending = 8;
    Server server(opts);
    server.start();

    json::Object hugeReq = verifyRequest(kHuge);
    hugeReq["deadline_ms"] = static_cast<std::int64_t>(1500);
    json::Value hugeResp;
    std::atomic<bool> pinnedDone{false};
    std::thread pinner([&] {
        hugeResp = request(opts.socketPath, json::Value(hugeReq));
        pinnedDone.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(400));

    // Admitted, but its 100 ms deadline expires while it waits
    // behind the pinned worker: the job must be dropped unrun, and
    // as soon as the deadline passes, not once the worker frees up.
    json::Object lateReq = verifyRequest(kMp);
    lateReq["deadline_ms"] = static_cast<std::int64_t>(100);
    const auto sent = std::chrono::steady_clock::now();
    const json::Value late =
        request(opts.socketPath, json::Value(lateReq));
    const auto waited = std::chrono::steady_clock::now() - sent;
    const bool pinnedStillRunning = !pinnedDone.load();
    pinner.join();

    EXPECT_EQ(late.getString("status"), "shed") << late.serialize();
    EXPECT_EQ(late.getString("reason"), "deadline");
    EXPECT_EQ(late.getString("verdict"), "Unknown");
    EXPECT_TRUE(late.getBool("retryable", false));
    EXPECT_GT(late.getInt("retry_after_ms"), 0);
    EXPECT_LT(waited, std::chrono::milliseconds(100 + 500))
        << "the shed waited for the worker, not for the deadline";
    EXPECT_TRUE(pinnedStillRunning);
    EXPECT_EQ(server.stats().shedDeadline, 1u);
    EXPECT_EQ(server.workerPool()->stats().requests, 1u)
        << "only the pinned request reached a worker";
    server.stop();
}

TEST(Server, WaitForWorkerComesOutOfTheBudgetNotTheWatchdog)
{
    // A miss that waits most of its deadline for the one worker must
    // run under what is left of that deadline: the engine truncates
    // it to a sound Unknown before the watchdog's grace runs out.
    // Budgeted from admission instead, it would overrun into the
    // watchdog's SIGKILL and come back as a worker-timeout.
    ServeOptions opts;
    opts.socketPath = socketPath("waitbudget");
    opts.workers = 1;
    opts.engine.setMode("brute");
    Server server(opts);
    server.start();

    json::Object pinReq = verifyRequest(kHuge);
    pinReq["deadline_ms"] = static_cast<std::int64_t>(1200);
    std::thread pinner(
        [&] { request(opts.socketPath, json::Value(pinReq)); });
    std::this_thread::sleep_for(std::chrono::milliseconds(300));

    // Deadline at about 1700 ms; the worker frees at about 1200 ms.
    json::Object waitReq = verifyRequest(kHuge);
    waitReq["nocache"] = true;
    waitReq["deadline_ms"] = static_cast<std::int64_t>(1400);
    const json::Value waited =
        request(opts.socketPath, json::Value(waitReq));
    pinner.join();

    ASSERT_EQ(waited.getString("status"), "ok") << waited.serialize();
    EXPECT_EQ(waited.get("result")->getString("verdict"), "Unknown");
    EXPECT_EQ(waited.get("result")->getString("completeness"),
              "truncated");
    EXPECT_EQ(server.stats().workerTimeouts, 0u);
    EXPECT_EQ(server.stats().shedDeadline, 0u);
    server.stop();
}

TEST(Server, WaitForWorkerLeavesTheDefaultWatchdogWindowWhole)
{
    // A miss with no deadline of its own is watched for a whole
    // workerDeadline window once it has a worker.  The second miss
    // waits about 600 ms for the one worker, then runs 600 ms: timed
    // from its arrival, the watchdog would kill it at about 1000 ms.
    ServeOptions opts;
    opts.socketPath = socketPath("waitwatchdog");
    opts.workers = 1;
    opts.workerDeadline = std::chrono::milliseconds(1000);
    opts.engine.setMode("brute");
    opts.engine.budget.wallClock = std::chrono::milliseconds(600);
    Server server(opts);
    server.start();

    json::Object hugeReq = verifyRequest(kHuge);
    hugeReq["nocache"] = true;
    json::Value pinned;
    std::thread pinner(
        [&] { pinned = request(opts.socketPath, json::Value(hugeReq)); });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    const json::Value queued =
        request(opts.socketPath, json::Value(hugeReq));
    pinner.join();

    ASSERT_EQ(pinned.getString("status"), "ok") << pinned.serialize();
    ASSERT_EQ(queued.getString("status"), "ok") << queued.serialize();
    EXPECT_EQ(queued.get("result")->getString("completeness"),
              "truncated");
    EXPECT_EQ(server.stats().workerTimeouts, 0u);
    EXPECT_EQ(server.stats().shedWorkerUnavailable, 0u);
    EXPECT_EQ(server.workerPool()->stats().requests, 2u);
    server.stop();
}

TEST(Server, QueuedMissesAreAnsweredInArrivalOrder)
{
    // Three misses queue behind the pinned worker, 100 ms apart.
    // Each then runs for the server's 300 ms wall-clock budget, so
    // answers 300 ms apart show the order the worker took them in.
    ServeOptions opts;
    opts.socketPath = socketPath("fifo");
    opts.workers = 1;
    opts.engine.setMode("brute");
    opts.engine.budget.wallClock = std::chrono::milliseconds(300);
    Server server(opts);
    server.start();

    json::Object hugeReq = verifyRequest(kHuge);
    hugeReq["nocache"] = true;
    std::thread pinner(
        [&] { request(opts.socketPath, json::Value(hugeReq)); });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    std::mutex mu;
    std::vector<int> answered;
    std::vector<std::thread> waiters;
    for (int i = 0; i < 3; ++i) {
        waiters.emplace_back([&, i] {
            const json::Value resp =
                request(opts.socketPath, json::Value(hugeReq));
            std::lock_guard<std::mutex> lock(mu);
            EXPECT_EQ(resp.getString("status"), "ok")
                << resp.serialize();
            answered.push_back(i);
        });
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    for (std::thread &t : waiters)
        t.join();
    pinner.join();

    EXPECT_EQ(answered, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(server.workerPool()->stats().requests, 4u);
    server.stop();
}

TEST(Server, MalformedJsonAndUnknownOpKeepConnectionAlive)
{
    ServeOptions opts;
    opts.socketPath = socketPath("malformed");
    opts.workers = 1;
    Server server(opts);
    server.start();

    Client client = Client::connect(opts.socketPath);
    client.setTimeout(std::chrono::milliseconds(10000));
    client.sendRaw("{this is not json");
    auto reply = client.receiveRaw();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(json::Value::parse(*reply).getString("status"), "error");

    json::Object bogus;
    bogus["op"] = "frobnicate";
    const json::Value bad = client.request(json::Value(bogus));
    EXPECT_EQ(bad.getString("status"), "error");

    // Framing survived both: the same connection still verifies.
    const json::Value ok = client.request(
        json::Value(verifyRequest(kSb)));
    ASSERT_EQ(ok.getString("status"), "ok") << ok.serialize();
    EXPECT_EQ(ok.get("result")->getString("verdict"), "Allow")
        << "SB without fences allows the stale-stale outcome";
    server.stop();
}

TEST(Server, OversizedFrameGetsErrorThenClose)
{
    ServeOptions opts;
    opts.socketPath = socketPath("oversized");
    opts.workers = 1;
    opts.maxFrameBytes = 256;
    Server server(opts);
    server.start();

    Client client = Client::connect(opts.socketPath);
    client.setTimeout(std::chrono::milliseconds(10000));
    // The bare header declaring 1000 bytes is enough to be rejected;
    // sending no payload keeps the server's receive queue empty, so
    // its close cannot RST away the error frame below.
    const unsigned char header[4] = {0, 0, 0x03, 0xe8};
    ASSERT_EQ(::send(client.fd(), header, 4, MSG_NOSIGNAL), 4);
    auto reply = client.receiveRaw();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(json::Value::parse(*reply).getString("status"), "error");
    // The stream is desynchronized past the declared length, so the
    // server must hang up rather than misparse what follows.
    EXPECT_FALSE(client.receiveRaw().has_value());

    // Admission is per-connection: a well-behaved client is intact.
    const json::Value ok =
        request(opts.socketPath, verifyRequest(kMp));
    EXPECT_EQ(ok.getString("status"), "ok");
    server.stop();
}

TEST(Server, ClientVanishingMidFrameHurtsOnlyItself)
{
    ServeOptions opts;
    opts.socketPath = socketPath("vanish");
    opts.workers = 1;
    Server server(opts);
    server.start();

    {
        // Half a header, then gone: the classic torn client.
        Client client = Client::connect(opts.socketPath);
        const char halfHeader[2] = {0, 0};
        ASSERT_EQ(::send(client.fd(), halfHeader, 2, MSG_NOSIGNAL), 2);
    }
    {
        // A full request whose reply nobody reads.
        Client client = Client::connect(opts.socketPath);
        client.sendRaw(json::Value(verifyRequest(kMp)).serialize());
    }

    // The daemon keeps serving; the torn peer shows up in the
    // disconnect counter (reaped on some later accept iteration).
    const json::Value ok =
        request(opts.socketPath, verifyRequest(kSb));
    EXPECT_EQ(ok.getString("status"), "ok") << ok.serialize();
    server.stop();
    EXPECT_GE(server.stats().disconnects, 1u);
}

TEST(Server, CacheOpenFailureLeavesNoWorkerBehind)
{
    // The workers are forked before the cache journal is opened, so
    // a constructor that throws on the journal must retire them.  A
    // directory cannot be opened as a journal.
    ServeOptions opts;
    opts.socketPath = socketPath("badcache");
    opts.workers = 2;
    opts.cache.path = ::testing::TempDir() + "serve_test_badcache.d";
    std::filesystem::create_directories(opts.cache.path);
    try {
        Server server(opts);
        ADD_FAILURE() << "a directory was opened as the cache journal";
    } catch (const StatusError &e) {
        EXPECT_EQ(e.status().code(), StatusCode::IoError) << e.what();
    }
    errno = 0;
    EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
    EXPECT_EQ(errno, ECHILD);
    std::filesystem::remove(opts.cache.path);
}

TEST(Server, UnknownModelSpecIsAnErrorNotACrash)
{
    ServeOptions opts;
    opts.socketPath = socketPath("badmodel");
    opts.workers = 1;
    Server server(opts);
    server.start();

    json::Object req = verifyRequest(kMp);
    req["model"] = "nonesuch";
    const json::Value resp =
        request(opts.socketPath, json::Value(req));
    EXPECT_EQ(resp.getString("status"), "error");
    server.stop();
}

TEST(Server, MalformedCatSpecIsAnErrorNotACrash)
{
    // The daemon loads a named cat file on the connection thread,
    // outside any worker sandbox: each of these must come back as an
    // error, quickly, with the daemon still serving.
    ServeOptions opts;
    opts.socketPath = socketPath("badcat");
    opts.workers = 1;
    Server server(opts);
    server.start();

    for (const char *file :
         {"recursive-function.cat", "doubling-forwarders.cat",
          "forwarding-chain.cat", "long-operator-chain.cat"}) {
        json::Object req = verifyRequest(kMp);
        req["model"] = std::string("cat:") + LKMM_CAT_CORPUS_DIR + "/" + file;
        const json::Value resp = request(opts.socketPath, json::Value(req));
        EXPECT_EQ(resp.getString("status"), "error")
            << file << ": " << resp.serialize();
    }
    const json::Value ok = request(opts.socketPath, verifyRequest(kMp));
    EXPECT_EQ(ok.getString("status"), "ok") << ok.serialize();
    server.stop();
}

TEST(Server, StatsOpReportsCountersAndCache)
{
    ServeOptions opts;
    opts.socketPath = socketPath("stats");
    opts.workers = 1;
    Server server(opts);
    server.start();

    request(opts.socketPath, verifyRequest(kMp));
    request(opts.socketPath, verifyRequest(kMp));

    json::Object statsReq;
    statsReq["op"] = "stats";
    const json::Value resp =
        request(opts.socketPath, json::Value(statsReq));
    ASSERT_EQ(resp.getString("status"), "ok");
    const json::Value *stats = resp.get("stats");
    ASSERT_NE(stats, nullptr);
    EXPECT_EQ(stats->getInt("cache_hits"), 1);
    const json::Value *cache = stats->get("cache");
    ASSERT_NE(cache, nullptr);
    EXPECT_EQ(cache->getInt("entries"), 1);
    server.stop();
}

TEST(Server, MultiClientStressAllVerdictsCorrect)
{
    ServeOptions opts;
    opts.socketPath = socketPath("stress");
    opts.workers = 4;
    opts.cache.path = cachePath("stress");
    Server server(opts);
    server.start();

    // Eight concurrent clients hammering both tests, half of them
    // bypassing the cache so cold and warm paths race.  Run under
    // TSan in CI, this is the data-race detector for the whole
    // accept/connection/pool/cache surface.
    constexpr int kClients = 8;
    constexpr int kRequests = 6;
    std::vector<std::thread> clients;
    std::atomic<int> wrong{0};
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            for (int r = 0; r < kRequests; ++r) {
                json::Object req = verifyRequest(
                    (c + r) % 2 == 0 ? kMp : kSb);
                if (c % 2 == 0)
                    req["nocache"] = true;
                json::Value resp;
                try {
                    resp = request(opts.socketPath,
                                   json::Value(std::move(req)));
                } catch (const std::exception &) {
                    ++wrong;
                    continue;
                }
                if (resp.getString("status") != "ok" ||
                    resp.get("result")->getString("verdict") !=
                        "Allow") {
                    ++wrong;
                }
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
    EXPECT_EQ(wrong.load(), 0);
    // served is counted after the response write, so only stop()'s
    // join makes the tally final.
    server.stop();
    EXPECT_EQ(server.stats().served,
              static_cast<std::uint64_t>(kClients * kRequests));
}

} // namespace
} // namespace lkmm::serve
