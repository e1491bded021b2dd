/**
 * @file
 * Router tests: consistent-ring determinism and coverage, routing-key
 * composition (architecture + shape, never search options), raw
 * byte-identity of routed responses, repeats replayed by the home
 * daemon (and re-run after it restarts), failover when a backend dies
 * mid-trace (in-flight requests surface their true outcome; later
 * keys re-hash onto the survivors), a backend that is dead at boot
 * never receiving a key, and the aggregated fleet stats report
 * dropping the dead backend. Everything runs in-process over
 * real sockets so it also executes under TSan.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

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

/** A small mappable conv config; vary @p m for distinct keys. */
std::string
quickConfig(std::uint64_t m)
{
    return "architecture:\n"
           "  name: quick\n"
           "  levels:\n"
           "    - name: spad\n"
           "      capacity_words: 4096\n"
           "      fanout_x: 4\n"
           "    - name: DRAM\n"
           "      backing_store: true\n"
           "workload:\n"
           "  type: conv\n"
           "  name: small_m" +
           std::to_string(m) +
           "\n"
           "  c: 8\n"
           "  m: " +
           std::to_string(m) +
           "\n"
           "  p: 5\n"
           "  q: 5\n"
           "mapper:\n"
           "  mapspace: ruby-s\n";
}

/** No valid mapping exists: only the time budget ends the search. */
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

Request
mapRequest(const std::string &id, const std::string &config)
{
    Request req;
    req.type = RequestType::Map;
    req.id = id;
    req.configText = config;
    req.variant = MapspaceVariant::RubyS;
    req.preset = ConstraintPreset::None;
    req.search.maxEvaluations = 400;
    req.search.terminationStreak = 0;
    req.search.seed = 7;
    req.search.threads = 1;
    return req;
}

/** An in-process fleet: N backends plus a router in front. */
struct Fleet
{
    std::vector<std::unique_ptr<Server>> backends;
    std::unique_ptr<Router> router;

    explicit Fleet(std::size_t n, unsigned maxInflight = 2)
    {
        RouterOptions ropts;
        ropts.port = 0;
        ropts.logLifecycle = false;
        ropts.healthInterval = milliseconds(100);
        for (std::size_t i = 0; i < n; ++i) {
            ServeOptions sopts;
            sopts.port = 0;
            sopts.maxInflight = maxInflight;
            sopts.logLifecycle = false;
            auto backend = std::make_unique<Server>(sopts);
            backend->start();
            Endpoint endpoint;
            endpoint.host = "127.0.0.1";
            endpoint.port = backend->port();
            ropts.backends.push_back(endpoint);
            backends.push_back(std::move(backend));
        }
        router = std::make_unique<Router>(std::move(ropts));
        router->start();
    }

    ~Fleet()
    {
        router->requestShutdown();
        router->waitForShutdown();
        for (auto &backend : backends) {
            backend->requestShutdown();
            backend->waitForShutdown();
        }
    }

    Client connect() const
    {
        return Client::connectTcp("127.0.0.1", router->port());
    }
};

TEST(ConsistentRing, WalkIsDeterministicAndComplete)
{
    const std::vector<std::string> nodes = {"a", "b", "c", "d"};
    const ConsistentRing ring(nodes, 64);
    const ConsistentRing twin(nodes, 64);
    for (int k = 0; k < 200; ++k) {
        const std::string key = "key-" + std::to_string(k);
        const std::vector<std::size_t> walk = ring.walk(key);
        // Every node exactly once...
        ASSERT_EQ(walk.size(), nodes.size());
        EXPECT_EQ(std::set<std::size_t>(walk.begin(), walk.end())
                      .size(),
                  nodes.size());
        // ...and the same order from an independent ring instance.
        EXPECT_EQ(walk, twin.walk(key));
    }
}

TEST(ConsistentRing, KeysSpreadAcrossNodes)
{
    const ConsistentRing ring({"a", "b", "c"}, 64);
    std::vector<int> owners(3, 0);
    for (int k = 0; k < 3000; ++k)
        ++owners[ring.walk("shape-" + std::to_string(k)).front()];
    // No statistical precision needed — just not degenerate: every
    // node owns a real share of the key space (a fair share would
    // be 1000; 64 virtual nodes leave real variance).
    for (const int count : owners)
        EXPECT_GT(count, 150);
}

TEST(ConsistentRing, PickSkipsRejectedNodes)
{
    const ConsistentRing ring({"a", "b", "c"}, 64);
    const std::vector<std::size_t> walk = ring.walk("some-key");
    const std::size_t first = walk[0];
    const std::size_t picked =
        ring.pick("some-key",
                  [&](std::size_t n) { return n != first; });
    EXPECT_EQ(picked, walk[1]);
    EXPECT_EQ(ring.pick("some-key",
                        [](std::size_t) { return false; }),
              ring.nodeCount());
}

TEST(Router, RoutingKeyIgnoresSearchOptionsButNotShape)
{
    Request a = mapRequest("a", quickConfig(8));
    Request b = mapRequest("b", quickConfig(8));
    // Different budgets, seeds, strategies: same warm shard.
    b.search.maxEvaluations = 999'999;
    b.search.seed = 12345;
    b.search.strategy = SearchStrategy::Genetic;
    b.search.timeBudget = milliseconds(5'000);
    EXPECT_EQ(Router::routingKey(a), Router::routingKey(b));

    // A different shape is a different key.
    const Request c = mapRequest("c", quickConfig(12));
    EXPECT_NE(Router::routingKey(a), Router::routingKey(c));

    // Net requests: arch and layers matter, search options do not.
    Request n1;
    n1.type = RequestType::Net;
    n1.arch = "eyeriss";
    n1.suite = "alexnet";
    Request n2 = n1;
    n2.search.maxEvaluations = 77;
    EXPECT_EQ(Router::routingKey(n1), Router::routingKey(n2));
    Request n3 = n1;
    n3.arch = "simba";
    EXPECT_NE(Router::routingKey(n1), Router::routingKey(n3));

    // Inline layers: the numeric shape decides the shard, the layer
    // name does not (the daemon's layer memo keys on numbers too, so
    // a renamed copy of a hot layer must hit the same warm shard) —
    // but any dimension change re-hashes.
    Request l1;
    l1.type = RequestType::Net;
    l1.arch = "eyeriss";
    Layer layer;
    layer.shape.name = "conv1";
    layer.shape.c = 16;
    layer.shape.m = 32;
    layer.shape.p = 14;
    layer.shape.q = 14;
    l1.layers = {layer};
    Request l2 = l1;
    l2.layers[0].shape.name = "conv1_renamed";
    EXPECT_EQ(Router::routingKey(l1), Router::routingKey(l2));
    Request l3 = l1;
    l3.layers[0].shape.c = 17;
    EXPECT_NE(Router::routingKey(l1), Router::routingKey(l3));
}

TEST(Router, RoutedResponseIsByteIdenticalToDirect)
{
    // A cold 3-backend fleet and a cold standalone daemon must emit
    // byte-for-byte the same response line for the same request.
    Fleet fleet(3);
    ServeOptions direct;
    direct.port = 0;
    direct.logLifecycle = false;
    Server reference(direct);
    reference.start();

    for (const std::uint64_t m : {8, 12, 16}) {
        const std::string line = writeJson(
            encodeRequest(mapRequest("m" + std::to_string(m),
                                     quickConfig(m))));
        Client viaRouter = fleet.connect();
        Client viaDirect =
            Client::connectTcp("127.0.0.1", reference.port());
        EXPECT_EQ(viaRouter.callRaw(line), viaDirect.callRaw(line))
            << "routed response differs for m=" << m;
    }

    reference.requestShutdown();
    reference.waitForShutdown();
}

/**
 * The router caches nothing: a repeated deterministic request travels
 * to its home backend, whose response cache replays it. The bytes
 * match the first response (id aside) and the fleet ran one search.
 */
TEST(Router, RepeatsAreReplayedByTheHomeDaemon)
{
    Fleet fleet(2);
    Client client = fleet.connect();

    const Request firstRequest = mapRequest("r1", quickConfig(8));
    const std::string rawFirst =
        client.callRaw(writeJson(encodeRequest(firstRequest)));
    const JsonValue first = parseJson(rawFirst);
    ASSERT_EQ(first.at("code").asU64(), 0u) << rawFirst;

    const std::string rawSecond = client.callRaw(
        writeJson(encodeRequest(mapRequest("r2", quickConfig(8)))));
    EXPECT_EQ(rawSecond,
              writeJson(restampResponseId(first, "r2")));

    const JsonValue stats = fleet.router->fleetStatsJson();
    EXPECT_EQ(stats.at("router").find("responseCache"), nullptr);
    const JsonValue &fleetStats = stats.at("fleet");
    // Exactly one search ran; the repeat was a daemon-cache hit.
    EXPECT_EQ(fleetStats.at("latency").at("count").asU64(), 1u);
    EXPECT_EQ(fleetStats.at("responseCache").at("hits").asU64(), 1u);
    // Both requests went to the key's home backend.
    const std::size_t home =
        fleet.router->preferredBackend(Router::routingKey(firstRequest));
    ASSERT_LT(home, fleet.backends.size());
    EXPECT_EQ(stats.at("backends").array[home].at("routed").asU64(), 2u);
}

/**
 * A backend restart cannot serve stale bytes: the cache lived in the
 * old process and went with it. A repeat after the restart reaches
 * the fresh daemon, which re-runs the deterministic search and
 * produces the same bytes.
 */
TEST(Router, RestartedBackendReRunsTheSearch)
{
    Fleet fleet(1);
    Client client = fleet.connect();

    const std::string rawFirst = client.callRaw(
        writeJson(encodeRequest(mapRequest("f1", quickConfig(8)))));
    const JsonValue first = parseJson(rawFirst);
    ASSERT_EQ(first.at("code").asU64(), 0u) << rawFirst;

    // Repeat before the restart: a hit in the backend's cache.
    const std::string rawSecond = client.callRaw(
        writeJson(encodeRequest(mapRequest("f2", quickConfig(8)))));
    EXPECT_EQ(rawSecond,
              writeJson(restampResponseId(first, "f2")));

    // Kill the backend and restart a fresh daemon on the same port.
    const int port = fleet.backends[0]->port();
    fleet.backends[0]->requestShutdown();
    fleet.backends[0]->waitForShutdown();

    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (fleet.router->fleetStatsJson()
               .at("router")
               .at("backendsHealthy")
               .asU64() != 0) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "router never noticed the dead backend";
        std::this_thread::sleep_for(milliseconds(20));
    }

    ServeOptions sopts;
    sopts.port = port;
    sopts.logLifecycle = false;
    fleet.backends[0] = std::make_unique<Server>(sopts);
    fleet.backends[0]->start();
    while (fleet.router->fleetStatsJson()
               .at("router")
               .at("backendsHealthy")
               .asU64() != 1) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "router never saw the restarted backend";
        std::this_thread::sleep_for(milliseconds(20));
    }

    const std::string rawThird = client.callRaw(
        writeJson(encodeRequest(mapRequest("f3", quickConfig(8)))));
    EXPECT_EQ(rawThird,
              writeJson(restampResponseId(first, "f3")));

    // The fleet is the fresh daemon alone: its cache missed once and
    // it really ran the search.
    const JsonValue stats = fleet.router->fleetStatsJson();
    const JsonValue &fleetStats = stats.at("fleet");
    EXPECT_EQ(fleetStats.at("responseCache").at("hits").asU64(), 0u);
    EXPECT_EQ(fleetStats.at("responseCache").at("misses").asU64(), 1u);
    EXPECT_EQ(fleetStats.at("latency").at("count").asU64(), 1u);
}

TEST(Router, FailoverWhenABackendDiesMidTrace)
{
    Fleet fleet(3, /*maxInflight=*/1);

    // Find a shape the ring assigns to backend 0... or rather, pick
    // the backend that owns our slow key, so killing it is guaranteed
    // to hit the in-flight request.
    Request slow = mapRequest("slow", kImpossibleConfig);
    slow.search.maxEvaluations = 0;
    slow.search.timeBudget = milliseconds(2'000);
    const std::size_t owner =
        fleet.router->preferredBackend(Router::routingKey(slow));
    ASSERT_LT(owner, fleet.backends.size());

    // In-flight forward to the owner while it begins draining: the
    // backend's drain cancels the search, and the router must
    // surface that true outcome (deadline, best-so-far) — not an
    // invented connection error.
    JsonValue slowResponse;
    std::thread slowCall([&]() {
        Client client = fleet.connect();
        slowResponse = client.call(encodeRequest(slow));
    });
    // Give the forward time to reach the backend before killing it.
    std::this_thread::sleep_for(milliseconds(300));
    fleet.backends[owner]->requestShutdown();
    fleet.backends[owner]->waitForShutdown();
    slowCall.join();
    EXPECT_EQ(slowResponse.at("code").asU64(),
              static_cast<std::uint64_t>(kCodeDeadline))
        << writeJson(slowResponse);

    // The dead backend's keys re-hash onto the survivors: every
    // request still succeeds, including ones the ring used to send
    // to the dead backend.
    for (const std::uint64_t m : {8, 10, 12, 14, 16, 18}) {
        Client client = fleet.connect();
        const JsonValue response = client.call(encodeRequest(
            mapRequest("after-" + std::to_string(m),
                       quickConfig(m))));
        EXPECT_EQ(response.at("code").asU64(), 0u)
            << writeJson(response);
    }

    // The fleet report drops the dead backend: it appears as
    // healthy:false with no stats payload, the healthy census says
    // two, and the aggregate only sums the survivors.
    const JsonValue stats = fleet.router->fleetStatsJson();
    EXPECT_EQ(stats.at("router").at("backendsHealthy").asU64(), 2u);
    EXPECT_EQ(stats.at("router").at("backendsTotal").asU64(), 3u);
    int dead = 0;
    for (const JsonValue &entry : stats.at("backends").array) {
        if (!entry.at("healthy").asBool()) {
            ++dead;
            EXPECT_EQ(entry.find("stats"), nullptr);
        } else {
            EXPECT_NE(entry.find("stats"), nullptr);
        }
    }
    EXPECT_EQ(dead, 1);

    // The merged fleet latency histogram saw the successful work.
    EXPECT_GT(stats.at("fleet").at("latency").at("count").asU64(),
              0u);
}

TEST(Router, StatsFanInAggregatesTheFleet)
{
    Fleet fleet(2);
    // Two distinct shapes so (very likely) both shards see work;
    // either way the fleet totals must equal the sum of the parts.
    for (const std::uint64_t m : {8, 12, 16, 20}) {
        Client client = fleet.connect();
        const JsonValue response = client.call(encodeRequest(
            mapRequest("agg-" + std::to_string(m), quickConfig(m))));
        ASSERT_EQ(response.at("code").asU64(), 0u);
    }

    const JsonValue stats = fleet.router->fleetStatsJson();
    std::uint64_t sumCompleted = 0;
    std::uint64_t sumLatencyCount = 0;
    for (const JsonValue &entry : stats.at("backends").array) {
        ASSERT_TRUE(entry.at("healthy").asBool());
        const JsonValue &backend = entry.at("stats");
        sumCompleted +=
            backend.at("requests").at("completed").asU64();
        sumLatencyCount += backend.at("latency").at("count").asU64();
    }
    const JsonValue &fleetAgg = stats.at("fleet");
    // The sweep itself sends one stats request per backend after the
    // map traffic, so "completed" includes only the maps (the sweep's
    // own stats responses are counted later, if ever re-queried).
    EXPECT_EQ(fleetAgg.at("requests").at("completed").asU64(),
              sumCompleted);
    EXPECT_EQ(fleetAgg.at("latency").at("count").asU64(),
              sumLatencyCount);
    EXPECT_EQ(sumLatencyCount, 4u);

    // Router-side histogram saw the same four forwards.
    EXPECT_EQ(stats.at("latency").at("count").asU64(), 4u);

    // Ping through the router reports the router's own health with
    // latency quantiles.
    Client client = fleet.connect();
    const Health health = client.ping();
    EXPECT_TRUE(health.ok);
    EXPECT_EQ(health.requestCount, 4u);
    EXPECT_GT(health.p99Ms, 0.0);
}

/** A loopback port with no listener: bound once, then released. */
int
closedPort()
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr *>(&addr), len), 0);
    EXPECT_EQ(
        ::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len),
        0);
    ::close(fd);
    return ntohs(addr.sin_port);
}

TEST(Router, BootSweepMarksADeadBackendUnhealthy)
{
    ServeOptions sopts;
    sopts.port = 0;
    sopts.logLifecycle = false;
    Server live(sopts);
    live.start();

    RouterOptions ropts;
    ropts.port = 0;
    ropts.logLifecycle = false;
    // Only the boot sweep may judge the backends during the test.
    ropts.healthInterval = std::chrono::hours(1);
    Endpoint endpoint;
    endpoint.host = "127.0.0.1";
    endpoint.port = live.port();
    ropts.backends.push_back(endpoint);
    endpoint.port = closedPort();
    ropts.backends.push_back(endpoint);
    Router router(std::move(ropts));
    router.start();

    // Eight keys: with a healthy-looking dead shard, about half of
    // them would be forwarded there first and then rerouted.
    constexpr std::uint64_t kKeys = 8;
    for (std::uint64_t k = 0; k < kKeys; ++k) {
        Client client = Client::connectTcp("127.0.0.1", router.port());
        const JsonValue response = client.call(encodeRequest(
            mapRequest("boot-" + std::to_string(k),
                       quickConfig(8 + 2 * k))));
        EXPECT_EQ(response.at("code").asU64(), 0u)
            << writeJson(response);
    }

    const JsonValue stats = router.fleetStatsJson();
    EXPECT_EQ(stats.at("router").at("reroutes").asU64(), 0u);
    EXPECT_EQ(stats.at("router").at("backendsHealthy").asU64(), 1u);
    const auto &entries = stats.at("backends").array;
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_TRUE(entries[0].at("healthy").asBool());
    EXPECT_EQ(entries[0].at("routed").asU64(), kKeys);
    EXPECT_FALSE(entries[1].at("healthy").asBool());

    router.requestShutdown();
    router.waitForShutdown();
    live.requestShutdown();
    live.waitForShutdown();
}

TEST(Router, ShutdownDrainsRouterButNotBackends)
{
    RouterOptions ropts;
    ropts.port = 0;
    ropts.logLifecycle = false;
    ServeOptions sopts;
    sopts.port = 0;
    sopts.logLifecycle = false;
    Server backend(sopts);
    backend.start();
    Endpoint endpoint;
    endpoint.host = "127.0.0.1";
    endpoint.port = backend.port();
    ropts.backends.push_back(endpoint);
    auto router = std::make_unique<Router>(std::move(ropts));
    router->start();

    {
        Client client =
            Client::connectTcp("127.0.0.1", router->port());
        Request req;
        req.type = RequestType::Shutdown;
        req.id = "drain";
        const JsonValue response = client.call(encodeRequest(req));
        EXPECT_EQ(response.at("type").asString(), "shutdown-ack");
    }
    router->waitForShutdown();

    // The backend is still serving: rolling restarts replace one
    // process at a time.
    Client direct = Client::connectTcp("127.0.0.1", backend.port());
    EXPECT_TRUE(direct.ping().ok);

    backend.requestShutdown();
    backend.waitForShutdown();
}

} // namespace
} // namespace serve
} // namespace ruby
