/**
 * @file
 * End-to-end daemon tests over real sockets: remote-equals-offline
 * bit-identity for every strategy on the Eyeriss and Simba presets,
 * concurrent requests sharing the warm eval cache, per-request
 * deadlines, and the SIGTERM drain (the contract both serving tiers
 * share lives in frontend_test.cpp). All tests run the server
 * in-process so they also execute under TSan.
 */

#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ruby/common/error.hpp"
#include "ruby/io/report.hpp"
#include "ruby/search/driver.hpp"
#include "ruby/serve/client.hpp"
#include "ruby/serve/protocol.hpp"
#include "ruby/serve/router.hpp"
#include "ruby/serve/server.hpp"

namespace ruby
{
namespace serve
{
namespace
{

using std::chrono::milliseconds;

/** Two small distinct conv layers every strategy maps quickly. */
std::vector<Layer>
tinyLayers()
{
    std::vector<Layer> layers;
    for (const std::uint64_t m : {8, 12}) {
        ConvShape sh;
        sh.name = "tiny_m" + std::to_string(m);
        sh.c = 8;
        sh.m = m;
        sh.p = 5;
        sh.q = 5;
        sh.r = 3;
        sh.s = 3;
        Layer layer;
        layer.shape = sh;
        layer.group = "conv";
        layers.push_back(layer);
    }
    return layers;
}

SearchOptions
quickOptions(SearchStrategy strategy)
{
    SearchOptions o;
    o.strategy = strategy;
    o.maxEvaluations = 800;
    o.terminationStreak = 0;
    o.seed = 5;
    o.threads = 1;
    return o;
}

ServeOptions
tcpOptions()
{
    ServeOptions o;
    o.port = 0; // ephemeral
    o.logLifecycle = false;
    return o;
}

std::string
summaryText(const NetworkOutcome &net)
{
    std::ostringstream os;
    printNetworkSummary(os, net);
    return os.str();
}

/** A config whose innermost level (1 word) admits no valid mapping:
 *  with an unbounded search, only the time budget can end it. */
const char *kImpossibleConfig =
    "architecture:\n"
    "  name: impossible\n"
    "  levels:\n"
    "    - name: tiny\n"
    "      capacity_words: 1\n"
    "    - name: DRAM\n"
    "      backing_store: true\n"
    "workload:\n"
    "  type: gemm\n"
    "  name: g16\n"
    "  m: 16\n"
    "  n: 16\n"
    "  k: 16\n"
    "mapper:\n"
    "  mapspace: pfm\n";

/** A small mappable config for quick successful map requests. */
const char *kQuickConfig =
    "architecture:\n"
    "  name: quick\n"
    "  levels:\n"
    "    - name: spad\n"
    "      capacity_words: 4096\n"
    "      fanout_x: 4\n"
    "    - name: DRAM\n"
    "      backing_store: true\n"
    "workload:\n"
    "  type: conv\n"
    "  name: small\n"
    "  c: 8\n"
    "  m: 8\n"
    "  p: 5\n"
    "  q: 5\n"
    "mapper:\n"
    "  mapspace: ruby-s\n";

Request
mapRequest(const std::string &id, const char *config,
           const SearchOptions &search)
{
    Request req;
    req.type = RequestType::Map;
    req.id = id;
    req.configText = config;
    req.variant = MapspaceVariant::RubyS;
    req.preset = ConstraintPreset::None;
    req.search = search;
    return req;
}

/**
 * The headline contract: a net request against a cold daemon renders
 * byte-for-byte what the same offline sweep prints, for every
 * strategy on both preset architectures.
 */
TEST(ServeServer, RemoteNetMatchesOfflineBitForBit)
{
    const std::vector<Layer> layers = tinyLayers();
    static constexpr SearchStrategy kStrategies[] = {
        SearchStrategy::Random, SearchStrategy::Exhaustive,
        SearchStrategy::Genetic, SearchStrategy::Local,
        SearchStrategy::Optimal};
    static constexpr const char *kArchNames[] = {"eyeriss", "simba"};

    for (const char *archName : kArchNames) {
        const ArchSpec arch = archByName(archName);
        const ConstraintPreset preset =
            std::string(archName) == "simba"
                ? ConstraintPreset::Simba
                : ConstraintPreset::EyerissRS;
        for (const SearchStrategy strategy : kStrategies) {
            const SearchOptions search = quickOptions(strategy);

            // Offline reference, fresh state.
            const NetworkOutcome offline = searchNetwork(
                layers, arch, preset, MapspaceVariant::RubyS,
                search);

            // Cold daemon (fresh per combo so its shared caches
            // start exactly like the offline run's private ones).
            Server server(tcpOptions());
            server.start();
            Client client =
                Client::connectTcp("127.0.0.1", server.port());
            Request req;
            req.type = RequestType::Net;
            req.id = std::string(archName) + "-" +
                     strategyWireName(strategy);
            req.arch = archName;
            req.layers = layers;
            req.variant = MapspaceVariant::RubyS;
            req.preset = preset;
            req.search = search;

            const JsonValue response =
                client.call(encodeRequest(req));
            ASSERT_EQ(response.at("type").asString(), "result")
                << writeJson(response);
            const NetworkOutcome remote =
                networkOutcomeFromJson(response.at("net"));

            EXPECT_EQ(summaryText(remote), summaryText(offline))
                << "strategy " << strategyWireName(strategy)
                << " on " << archName;
            EXPECT_EQ(remote.totalEnergy, offline.totalEnergy);
            EXPECT_EQ(remote.totalCycles, offline.totalCycles);
            EXPECT_EQ(remote.edp, offline.edp);
            EXPECT_EQ(response.at("code").asU64(),
                      offline.allFound
                          ? 0u
                          : static_cast<std::uint64_t>(kCodePartial));

            // Repeat the identical request under a fresh id: whether
            // it replays from the response cache or re-runs the
            // deterministic search, the bytes must match the first
            // response exactly, id aside.
            Request repeat = req;
            repeat.id = req.id + "-repeat";
            const std::string rawRepeat =
                client.callRaw(writeJson(encodeRequest(repeat)));
            EXPECT_EQ(rawRepeat,
                      writeJson(restampResponseId(response,
                                                  repeat.id)))
                << "cached repeat diverged for "
                << strategyWireName(strategy) << " on " << archName;

            server.requestShutdown();
            server.waitForShutdown();
        }
    }
}

/**
 * The parity matrix through the fleet: the same net request sent to
 * a router fronting three cold backends renders byte-for-byte what
 * the offline sweep prints, for every strategy on both presets. The
 * router adds consistent hashing, forwarding and re-encoding to the
 * path — none of which may perturb a single byte.
 */
TEST(ServeServer, RoutedNetMatchesOfflineBitForBit)
{
    const std::vector<Layer> layers = tinyLayers();
    static constexpr SearchStrategy kStrategies[] = {
        SearchStrategy::Random, SearchStrategy::Exhaustive,
        SearchStrategy::Genetic, SearchStrategy::Local,
        SearchStrategy::Optimal};
    static constexpr const char *kArchNames[] = {"eyeriss", "simba"};

    for (const char *archName : kArchNames) {
        const ArchSpec arch = archByName(archName);
        const ConstraintPreset preset =
            std::string(archName) == "simba"
                ? ConstraintPreset::Simba
                : ConstraintPreset::EyerissRS;
        for (const SearchStrategy strategy : kStrategies) {
            const SearchOptions search = quickOptions(strategy);

            const NetworkOutcome offline = searchNetwork(
                layers, arch, preset, MapspaceVariant::RubyS,
                search);

            // A cold 3-backend fleet per combo, so whichever shard
            // the ring picks starts exactly like the offline run.
            std::vector<std::unique_ptr<Server>> backends;
            RouterOptions ropts;
            ropts.port = 0;
            ropts.logLifecycle = false;
            for (int b = 0; b < 3; ++b) {
                auto backend =
                    std::make_unique<Server>(tcpOptions());
                backend->start();
                Endpoint endpoint;
                endpoint.host = "127.0.0.1";
                endpoint.port = backend->port();
                ropts.backends.push_back(endpoint);
                backends.push_back(std::move(backend));
            }
            Router router(std::move(ropts));
            router.start();

            Client client =
                Client::connectTcp("127.0.0.1", router.port());
            Request req;
            req.type = RequestType::Net;
            req.id = std::string(archName) + "-" +
                     strategyWireName(strategy);
            req.arch = archName;
            req.layers = layers;
            req.variant = MapspaceVariant::RubyS;
            req.preset = preset;
            req.search = search;

            const JsonValue response =
                client.call(encodeRequest(req));
            ASSERT_EQ(response.at("type").asString(), "result")
                << writeJson(response);
            const NetworkOutcome remote =
                networkOutcomeFromJson(response.at("net"));

            EXPECT_EQ(summaryText(remote), summaryText(offline))
                << "strategy " << strategyWireName(strategy)
                << " on " << archName << " through the router";
            EXPECT_EQ(remote.totalEnergy, offline.totalEnergy);
            EXPECT_EQ(remote.totalCycles, offline.totalCycles);
            EXPECT_EQ(remote.edp, offline.edp);
            EXPECT_EQ(response.at("code").asU64(),
                      offline.allFound
                          ? 0u
                          : static_cast<std::uint64_t>(kCodePartial));

            // Repeat under a fresh id: the router's response cache
            // (or a re-forwarded deterministic search) must produce
            // the same bytes, id aside.
            Request repeat = req;
            repeat.id = req.id + "-repeat";
            const std::string rawRepeat =
                client.callRaw(writeJson(encodeRequest(repeat)));
            EXPECT_EQ(rawRepeat,
                      writeJson(restampResponseId(response,
                                                  repeat.id)))
                << "routed cached repeat diverged for "
                << strategyWireName(strategy) << " on " << archName;

            router.requestShutdown();
            router.waitForShutdown();
            for (auto &backend : backends) {
                backend->requestShutdown();
                backend->waitForShutdown();
            }
        }
    }
}

TEST(ServeServer, TcpPortRebindsImmediatelyAfterDrain)
{
    // SO_REUSEADDR on the listener: a restarted daemon must be able
    // to rebind the port its predecessor just released, even with
    // the old connections still in TIME_WAIT.
    ServeOptions options = tcpOptions();
    Server first(options);
    first.start();
    const int port = first.port();
    {
        // Leave a connection behind so the port has TIME_WAIT state.
        Client client = Client::connectTcp("127.0.0.1", port);
        EXPECT_TRUE(client.ping().ok);
    }
    first.requestShutdown();
    first.waitForShutdown();

    ServeOptions rebind = tcpOptions();
    rebind.port = port;
    Server second(rebind);
    second.start(); // would fail with EADDRINUSE without SO_REUSEADDR
    EXPECT_EQ(second.port(), port);
    Client client = Client::connectTcp("127.0.0.1", port);
    EXPECT_TRUE(client.ping().ok);
    second.requestShutdown();
    second.waitForShutdown();
}

TEST(ServeServer, ConcurrentIdenticalRequestsAgree)
{
    ServeOptions options = tcpOptions();
    options.maxInflight = 4;
    options.queueCapacity = 16;
    // Repeats must really re-run the search concurrently, not replay
    // a cached response line.
    options.responseCache = false;
    Server server(options);
    server.start();

    // One request first, so the concurrent wave meets a warm daemon.
    {
        Client primer =
            Client::connectTcp("127.0.0.1", server.port());
        const JsonValue response = primer.call(encodeRequest(
            mapRequest("prime", kQuickConfig,
                       quickOptions(SearchStrategy::Random))));
        ASSERT_EQ(response.at("code").asU64(), 0u)
            << writeJson(response);
    }

    // >= 8 concurrent identical requests, each on its own
    // connection.
    constexpr int kClients = 8;
    std::vector<std::string> bestMappings(kClients);
    std::vector<double> edps(kClients, -1.0);
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kClients; ++t)
        threads.emplace_back([&, t]() {
            try {
                Client client =
                    Client::connectTcp("127.0.0.1", server.port());
                const JsonValue response =
                    client.call(encodeRequest(mapRequest(
                        "c" + std::to_string(t), kQuickConfig,
                        quickOptions(SearchStrategy::Random))));
                if (response.at("code").asU64() != 0) {
                    ++failures;
                    return;
                }
                const LayerOutcome outcome =
                    layerOutcomeFromJson(response.at("outcome"));
                bestMappings[static_cast<std::size_t>(t)] =
                    outcome.bestMapping;
                edps[static_cast<std::size_t>(t)] =
                    outcome.result.edp;
            } catch (...) {
                ++failures;
            }
        });
    for (std::thread &th : threads)
        th.join();
    ASSERT_EQ(failures.load(), 0);

    // Identical requests, identical results — regardless of warmth
    // and scheduling.
    for (int t = 1; t < kClients; ++t) {
        EXPECT_EQ(bestMappings[static_cast<std::size_t>(t)],
                  bestMappings[0]);
        EXPECT_EQ(edps[static_cast<std::size_t>(t)], edps[0]);
    }

    const JsonValue stats = server.statsJson();
    EXPECT_EQ(stats.at("requests").at("completed").asU64(), 9u);

    server.requestShutdown();
    server.waitForShutdown();
}

/**
 * The response cache's core promise: a repeated deterministic request
 * replays the first response's bytes (only the id re-stamped) without
 * running a second search — strategy counters and the latency
 * histogram stay untouched on the cached path.
 */
TEST(ServeServer, ResponseCacheServesRepeatsWithoutSearching)
{
    Server server(tcpOptions());
    server.start();
    Client client = Client::connectTcp("127.0.0.1", server.port());

    const SearchOptions search =
        quickOptions(SearchStrategy::Random);
    const std::string rawFirst = client.callRaw(writeJson(
        encodeRequest(mapRequest("first", kQuickConfig, search))));
    const JsonValue first = parseJson(rawFirst);
    ASSERT_EQ(first.at("code").asU64(), 0u) << rawFirst;

    const std::string rawSecond = client.callRaw(writeJson(
        encodeRequest(mapRequest("second", kQuickConfig, search))));
    EXPECT_EQ(rawSecond,
              writeJson(restampResponseId(first, "second")));

    const JsonValue stats = server.statsJson();
    const JsonValue &cache = stats.at("responseCache");
    EXPECT_TRUE(cache.at("enabled").asBool());
    EXPECT_EQ(cache.at("hits").asU64(), 1u);
    EXPECT_EQ(cache.at("misses").asU64(), 1u);
    EXPECT_EQ(cache.at("entries").asU64(), 1u);
    EXPECT_DOUBLE_EQ(cache.at("hitRate").asDouble(), 0.5);
    // Exactly one search ran; the cached replay counted nowhere else.
    EXPECT_EQ(stats.at("strategies")
                  .at("random")
                  .at("requests")
                  .asU64(),
              1u);
    EXPECT_EQ(stats.at("latency").at("count").asU64(), 1u);

    server.requestShutdown();
    server.waitForShutdown();
}

/** A random map request on two threads is as reproducible as one on
 *  one thread, so its repeat is a response-cache hit too, and the
 *  mapping it replays is the one-thread answer. */
TEST(ServeServer, ResponseCacheServesTwoThreadRandomRepeats)
{
    Server server(tcpOptions());
    server.start();
    Client client = Client::connectTcp("127.0.0.1", server.port());

    SearchOptions search = quickOptions(SearchStrategy::Random);
    search.threads = 2;
    const std::string rawFirst = client.callRaw(writeJson(
        encodeRequest(mapRequest("first", kQuickConfig, search))));
    const JsonValue first = parseJson(rawFirst);
    ASSERT_EQ(first.at("code").asU64(), 0u) << rawFirst;
    const std::string rawSecond = client.callRaw(writeJson(
        encodeRequest(mapRequest("second", kQuickConfig, search))));
    EXPECT_EQ(rawSecond,
              writeJson(restampResponseId(first, "second")));
    const JsonValue stats = server.statsJson();
    EXPECT_EQ(stats.at("responseCache").at("hits").asU64(), 1u);
    EXPECT_EQ(
        stats.at("strategies").at("random").at("requests").asU64(),
        1u);

    search.threads = 1;
    const JsonValue serial = client.call(
        encodeRequest(mapRequest("serial", kQuickConfig, search)));
    ASSERT_EQ(serial.at("code").asU64(), 0u);
    const LayerOutcome one = layerOutcomeFromJson(serial.at("outcome"));
    const LayerOutcome two = layerOutcomeFromJson(first.at("outcome"));
    EXPECT_EQ(one.bestMapping, two.bestMapping);
    EXPECT_EQ(one.result.edp, two.result.edp);
    EXPECT_EQ(one.evaluated, two.evaluated);

    server.requestShutdown();
    server.waitForShutdown();
}

/** With --no-response-cache the stats block stays, zeroed/disabled,
 *  and repeats run real searches again. */
TEST(ServeServer, ResponseCacheCanBeDisabled)
{
    ServeOptions options = tcpOptions();
    options.responseCache = false;
    Server server(options);
    server.start();
    Client client = Client::connectTcp("127.0.0.1", server.port());

    const SearchOptions search =
        quickOptions(SearchStrategy::Random);
    for (const char *id : {"a", "b"}) {
        const JsonValue response = client.call(encodeRequest(
            mapRequest(id, kQuickConfig, search)));
        ASSERT_EQ(response.at("code").asU64(), 0u);
    }

    const JsonValue stats = server.statsJson();
    const JsonValue &cache = stats.at("responseCache");
    EXPECT_FALSE(cache.at("enabled").asBool());
    EXPECT_EQ(cache.at("hits").asU64(), 0u);
    EXPECT_EQ(cache.at("misses").asU64(), 0u);
    EXPECT_EQ(stats.at("strategies")
                  .at("random")
                  .at("requests")
                  .asU64(),
              2u);

    server.requestShutdown();
    server.waitForShutdown();
}

/**
 * The single-flight proof: N identical requests arriving while their
 * search is still pending produce exactly ONE search. A distinct slow
 * request pins the only admission slot, so the identical wave is
 * provably concurrent: one leader queued, the rest parked as
 * followers (visible in the coalescedWaiting gauge), every response
 * byte-identical modulo id.
 */
TEST(ServeServer, SingleFlightCoalescesConcurrentIdenticalRequests)
{
    ServeOptions options = tcpOptions();
    options.maxInflight = 1;
    options.queueCapacity = 16;
    Server server(options);
    server.start();

    // Pin the slot: impossible arch + unbounded random sampling, so
    // only the wall-clock budget ends it (which also makes it
    // uncacheable, so it cannot interfere with the flight).
    SearchOptions slow = quickOptions(SearchStrategy::Random);
    slow.maxEvaluations = 0;
    slow.timeBudget = milliseconds(3000);
    std::thread pinCall([&]() {
        Client client =
            Client::connectTcp("127.0.0.1", server.port());
        const JsonValue response = client.call(encodeRequest(
            mapRequest("pin", kImpossibleConfig, slow)));
        EXPECT_EQ(response.at("code").asU64(),
                  static_cast<std::uint64_t>(kCodeDeadline))
            << writeJson(response);
    });

    // Wait until the pin actually holds the slot.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server.statsJson()
               .at("requests")
               .at("inflight")
               .asU64() == 0) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "pin request never started";
        std::this_thread::sleep_for(milliseconds(5));
    }

    // The identical wave: all must coalesce behind one leader. A
    // different strategy than the pin, so its request counter
    // isolates the wave's single search.
    constexpr int kClients = 5;
    const SearchOptions search =
        quickOptions(SearchStrategy::Exhaustive);
    std::vector<std::string> raw(kClients);
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kClients; ++t)
        threads.emplace_back([&, t]() {
            try {
                Client client =
                    Client::connectTcp("127.0.0.1", server.port());
                raw[static_cast<std::size_t>(t)] =
                    client.callRaw(writeJson(encodeRequest(
                        mapRequest("c" + std::to_string(t),
                                   kQuickConfig, search))));
            } catch (...) {
                ++failures;
            }
        });

    // While the pin still holds the slot, the whole wave must be
    // parked: one queued leader, kClients - 1 followers.
    while (server.statsJson()
               .at("responseCache")
               .at("coalescedWaiting")
               .asU64() != kClients - 1) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "followers never coalesced; stats: "
            << writeJson(server.statsJson());
        std::this_thread::sleep_for(milliseconds(5));
    }

    for (std::thread &th : threads)
        th.join();
    pinCall.join();
    ASSERT_EQ(failures.load(), 0);

    // Every response carries its own id over identical bytes.
    const JsonValue first = parseJson(raw[0]);
    ASSERT_EQ(first.at("code").asU64(), 0u) << raw[0];
    for (int t = 1; t < kClients; ++t)
        EXPECT_EQ(raw[static_cast<std::size_t>(t)],
                  writeJson(restampResponseId(
                      first, "c" + std::to_string(t))));

    const JsonValue stats = server.statsJson();
    // ONE search for the whole wave...
    EXPECT_EQ(stats.at("strategies")
                  .at("exhaustive")
                  .at("requests")
                  .asU64(),
              1u);
    // ...with every follower accounted for, and no flight leaked.
    const JsonValue &cache = stats.at("responseCache");
    EXPECT_EQ(cache.at("coalesced").asU64(),
              static_cast<std::uint64_t>(kClients - 1));
    EXPECT_EQ(cache.at("coalescedWaiting").asU64(), 0u);
    EXPECT_EQ(cache.at("flights").asU64(), 0u);
    EXPECT_EQ(cache.at("entries").asU64(), 1u);

    server.requestShutdown();
    server.waitForShutdown();
}

TEST(ServeServer, DeadlineExpiryIsPerRequest)
{
    ServeOptions options = tcpOptions();
    options.maxInflight = 2;
    Server server(options);
    server.start();

    // Request A: guaranteed deadline failure (code 4).
    SearchOptions doomed = quickOptions(SearchStrategy::Random);
    doomed.maxEvaluations = 0;
    doomed.timeBudget = milliseconds(300);
    std::atomic<std::uint64_t> doomedCode{999};
    std::thread doomedCall([&]() {
        Client client =
            Client::connectTcp("127.0.0.1", server.port());
        const JsonValue response = client.call(encodeRequest(
            mapRequest("doomed", kImpossibleConfig, doomed)));
        doomedCode = response.at("code").asU64();
    });

    // Request B, concurrently inflight, must be untouched by A's
    // expiry.
    Client client = Client::connectTcp("127.0.0.1", server.port());
    const JsonValue good = client.call(encodeRequest(
        mapRequest("good", kQuickConfig,
                   quickOptions(SearchStrategy::Random))));
    EXPECT_EQ(good.at("code").asU64(), 0u) << writeJson(good);
    const LayerOutcome outcome =
        layerOutcomeFromJson(good.at("outcome"));
    EXPECT_TRUE(outcome.found);
    EXPECT_FALSE(outcome.timedOut);

    doomedCall.join();
    EXPECT_EQ(doomedCode.load(),
              static_cast<std::uint64_t>(kCodeDeadline));

    server.requestShutdown();
    server.waitForShutdown();
}

TEST(ServeServer, SigtermDrainCompletesInflightWork)
{
    ServeOptions options = tcpOptions();
    options.maxInflight = 1;
    options.drainBudget = milliseconds(30'000);
    Server server(options);
    server.start();
    Server::installSignalDrain(server);

    // An inflight request that takes a while (time-boxed search).
    SearchOptions slow = quickOptions(SearchStrategy::Random);
    slow.maxEvaluations = 0;
    slow.timeBudget = milliseconds(1000);
    std::atomic<std::uint64_t> code{999};
    std::thread inflight([&]() {
        try {
            Client client =
                Client::connectTcp("127.0.0.1", server.port());
            const JsonValue response = client.call(encodeRequest(
                mapRequest("inflight", kImpossibleConfig, slow)));
            code = response.at("code").asU64();
        } catch (const std::exception &e) {
            ADD_FAILURE()
                << "inflight request lost during drain: " << e.what();
        }
    });
    while (server.statsJson()
               .at("requests")
               .at("inflight")
               .asU64() == 0)
        std::this_thread::sleep_for(milliseconds(5));

    // SIGTERM: the self-pipe handler must begin the drain, and the
    // inflight request must still complete and be answered.
    ASSERT_EQ(::kill(::getpid(), SIGTERM), 0);
    server.waitForShutdown();
    inflight.join();
    EXPECT_EQ(code.load(),
              static_cast<std::uint64_t>(kCodeDeadline));
    EXPECT_TRUE(server.shutdownRequested());

    // The daemon is really gone: new connections are refused.
    EXPECT_THROW(Client::connectTcp("127.0.0.1", server.port()),
                 Error);
}

TEST(ServeServer, ShutdownRequestAcksThenDrains)
{
    Server server(tcpOptions());
    server.start();
    Client client = Client::connectTcp("127.0.0.1", server.port());

    Request req;
    req.type = RequestType::Shutdown;
    req.id = "bye";
    const JsonValue ack = client.call(encodeRequest(req));
    EXPECT_EQ(ack.at("type").asString(), "shutdown-ack");
    EXPECT_EQ(ack.at("code").asU64(), 0u);

    server.waitForShutdown();
    EXPECT_THROW(Client::connectTcp("127.0.0.1", server.port()),
                 Error);
}

TEST(ServeServer, StatsReportStrategyThroughputAndMemo)
{
    ServeOptions options = tcpOptions();
    // The repeat must reach the layer memo (and count as a second
    // strategy request), not short-circuit in the response cache.
    options.responseCache = false;
    Server server(options);
    server.start();
    Client client = Client::connectTcp("127.0.0.1", server.port());

    // A net request with a duplicated shape exercises the in-sweep
    // memo; a repeat of the same request hits the cross-request
    // layer memo.
    Request req;
    req.type = RequestType::Net;
    req.id = "n";
    req.arch = "eyeriss";
    req.layers = tinyLayers();
    req.layers.push_back(req.layers[0]);
    req.layers.back().shape.name = "tiny_dup";
    req.preset = ConstraintPreset::EyerissRS;
    req.variant = MapspaceVariant::RubyS;
    req.search = quickOptions(SearchStrategy::Random);

    const JsonValue first = client.call(encodeRequest(req));
    ASSERT_EQ(first.at("type").asString(), "result")
        << writeJson(first);
    const NetworkOutcome firstNet =
        networkOutcomeFromJson(first.at("net"));
    EXPECT_EQ(firstNet.memoizedLayers, 1); // in-sweep duplicate

    const JsonValue second = client.call(encodeRequest(req));
    const NetworkOutcome secondNet =
        networkOutcomeFromJson(second.at("net"));
    // Every unique shape replays from the cross-request memo.
    EXPECT_EQ(secondNet.memoizedLayers,
              static_cast<int>(secondNet.layers.size()));
    EXPECT_EQ(secondNet.totalEnergy, firstNet.totalEnergy);
    EXPECT_EQ(secondNet.edp, firstNet.edp);

    Request statsReq;
    statsReq.type = RequestType::Stats;
    statsReq.id = "s";
    const JsonValue stats =
        client.call(encodeRequest(statsReq)).at("stats");
    EXPECT_GT(stats.at("layerMemo").at("hits").asU64(), 0u);
    EXPECT_GT(stats.at("layerMemo").at("inserts").asU64(), 0u);
    const JsonValue &random =
        stats.at("strategies").at("random");
    EXPECT_EQ(random.at("requests").asU64(), 2u);
    EXPECT_GT(random.at("evaluations").asU64(), 0u);
    EXPECT_GE(stats.at("uptimeMs").asU64(), 0u);

    server.requestShutdown();
    server.waitForShutdown();
}

} // namespace
} // namespace serve
} // namespace ruby
