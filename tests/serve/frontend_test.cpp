/**
 * @file
 * The serving-frontend contract, checked on both tiers: a bare daemon
 * (Server) and a router in front of one daemon (Router). Each tier
 * must reject a saturated queue with code 7 in its own wording, answer
 * malformed lines with structured errors, recover a stale unix socket
 * but never steal a live one, leak no descriptor on a failed start,
 * and refuse an out-of-range TCP port. Golden key paths pin the shape
 * of the stats and pong payloads of both tiers, so a field that moves
 * or goes missing fails here.
 */

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ruby/common/error.hpp"
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
mapRequest(const std::string &id, const char *config, int budgetMs = 0)
{
    Request req;
    req.type = RequestType::Map;
    req.id = id;
    req.configText = config;
    req.variant = MapspaceVariant::RubyS;
    req.preset = ConstraintPreset::None;
    req.search.maxEvaluations = budgetMs > 0 ? 0 : 400;
    req.search.terminationStreak = 0;
    req.search.seed = 5;
    req.search.threads = 1;
    req.search.timeBudget = milliseconds(budgetMs);
    return req;
}

enum class Tier
{
    Server,
    Router,
};

std::string
tierName(const ::testing::TestParamInfo<Tier> &info)
{
    return info.param == Tier::Server ? "Server" : "Router";
}

/** Front-socket settings a test varies; unset fields keep defaults. */
struct FrontSetup
{
    std::string unixPath;
    int port = 0;
    /** Search slots (Server) or forwarding slots (Router); 0 keeps
     *  the default. */
    unsigned slots = 0;
    /** -1 keeps the default. */
    long queueCapacity = -1;
};

/**
 * One serving tier under test. A Router tier owns a started backend
 * daemon on an ephemeral TCP port; the front under test is built but
 * not started.
 */
class Front
{
  public:
    Front(Tier tier, const FrontSetup &setup) : tier_(tier)
    {
        if (tier == Tier::Server) {
            ServeOptions options;
            options.unixPath = setup.unixPath;
            options.port = setup.port;
            options.logLifecycle = false;
            if (setup.slots != 0)
                options.maxInflight = setup.slots;
            if (setup.queueCapacity >= 0)
                options.queueCapacity =
                    static_cast<std::size_t>(setup.queueCapacity);
            server_ = std::make_unique<Server>(options);
            return;
        }
        ServeOptions backendOptions;
        backendOptions.port = 0;
        backendOptions.logLifecycle = false;
        backend_ = std::make_unique<Server>(backendOptions);
        backend_->start();
        RouterOptions options;
        options.unixPath = setup.unixPath;
        options.port = setup.port;
        options.logLifecycle = false;
        if (setup.slots != 0)
            options.maxForwards = setup.slots;
        if (setup.queueCapacity >= 0)
            options.queueCapacity =
                static_cast<std::size_t>(setup.queueCapacity);
        Endpoint endpoint;
        endpoint.host = "127.0.0.1";
        endpoint.port = backend_->port();
        options.backends.push_back(endpoint);
        router_ = std::make_unique<Router>(std::move(options));
    }

    ~Front()
    {
        stop();
        if (backend_ != nullptr) {
            backend_->requestShutdown();
            backend_->waitForShutdown();
        }
    }

    void start()
    {
        if (server_ != nullptr)
            server_->start();
        else
            router_->start();
        started_ = true;
    }

    void stop()
    {
        if (!started_)
            return;
        started_ = false;
        if (server_ != nullptr) {
            server_->requestShutdown();
            server_->waitForShutdown();
        } else {
            router_->requestShutdown();
            router_->waitForShutdown();
        }
    }

    int port() const
    {
        return server_ != nullptr ? server_->port() : router_->port();
    }

    Client connect() const
    {
        return Client::connectTcp("127.0.0.1", port());
    }

    /** The tier's own stats payload. */
    JsonValue stats()
    {
        return server_ != nullptr ? server_->statsJson()
                                  : router_->fleetStatsJson();
    }

    /** Occupied slots of the tier's own admission gate. */
    std::uint64_t inflight()
    {
        const JsonValue s = stats();
        return (server_ != nullptr ? s.at("requests") : s.at("router"))
            .at("inflight")
            .asU64();
    }

    /** The rejection message for a full admission queue. */
    const char *queueFullMessage() const
    {
        return tier_ == Tier::Server ? "admission queue full; retry later"
                                     : "router queue full; retry later";
    }

  private:
    Tier tier_;
    bool started_ = false;
    std::unique_ptr<Server> backend_;
    std::unique_ptr<Server> server_;
    std::unique_ptr<Router> router_;
};

/** Descriptors open in this process right now. */
std::size_t
openFds()
{
    std::size_t count = 0;
    DIR *dir = ::opendir("/proc/self/fd");
    if (dir == nullptr)
        return 0;
    while (const dirent *entry = ::readdir(dir))
        if (entry->d_name[0] != '.')
            ++count;
    ::closedir(dir);
    return count;
}

/** Every key path of @p value in document order, one per line;
 *  array elements share the path `name[]`. */
void
collectKeyPaths(const JsonValue &value, const std::string &prefix,
                std::ostringstream &out)
{
    if (value.type == JsonType::Object) {
        for (const auto &member : value.object) {
            const std::string path = prefix.empty()
                                         ? member.first
                                         : prefix + "." + member.first;
            out << path << "\n";
            collectKeyPaths(member.second, path, out);
        }
    } else if (value.type == JsonType::Array) {
        for (const JsonValue &element : value.array)
            collectKeyPaths(element, prefix + "[]", out);
    }
}

std::string
keyPaths(const JsonValue &value)
{
    std::ostringstream out;
    collectKeyPaths(value, "", out);
    return out.str();
}

class FrontendContract : public ::testing::TestWithParam<Tier>
{
};

INSTANTIATE_TEST_SUITE_P(BothTiers, FrontendContract,
                         ::testing::Values(Tier::Server, Tier::Router),
                         tierName);

TEST_P(FrontendContract, SaturatedQueueRejectsWithCode7)
{
    FrontSetup setup;
    setup.slots = 1;
    setup.queueCapacity = 0;
    Front front(GetParam(), setup);
    front.start();

    // Occupy the only slot with a search that runs ~2s (impossible
    // arch + unbounded search: only the budget ends it).
    std::thread slowCall([&]() {
        Client client = front.connect();
        const JsonValue response = client.call(
            encodeRequest(mapRequest("slow", kImpossibleConfig, 2000)));
        EXPECT_EQ(response.at("code").asU64(),
                  static_cast<std::uint64_t>(kCodeDeadline))
            << writeJson(response);
    });

    // Wait until the slow request holds the slot.
    while (front.inflight() == 0)
        std::this_thread::sleep_for(milliseconds(5));

    Client client = front.connect();
    const JsonValue rejected =
        client.call(encodeRequest(mapRequest("over", kQuickConfig)));
    EXPECT_EQ(rejected.at("type").asString(), "error");
    EXPECT_EQ(rejected.at("code").asU64(),
              static_cast<std::uint64_t>(kCodeRejected));
    EXPECT_EQ(rejected.at("kind").asString(), "saturated");
    EXPECT_EQ(rejected.at("message").asString(),
              front.queueFullMessage());

    slowCall.join();

    // Rejections do not poison the tier: the next request runs.
    const JsonValue ok =
        client.call(encodeRequest(mapRequest("after", kQuickConfig)));
    EXPECT_EQ(ok.at("code").asU64(), 0u) << writeJson(ok);
}

TEST_P(FrontendContract, MalformedLinesGetStructuredErrors)
{
    Front front(GetParam(), FrontSetup{});
    front.start();
    Client client = front.connect();

    // Not JSON at all.
    JsonValue response = parseJson(client.callRaw("not json"));
    EXPECT_EQ(response.at("type").asString(), "error");
    EXPECT_EQ(response.at("code").asU64(),
              static_cast<std::uint64_t>(kCodeBadRequest));

    // Valid JSON, bad request shape — id still echoed back.
    response = parseJson(
        client.callRaw(R"({"v":1,"type":"map","id":"x9"})"));
    EXPECT_EQ(response.at("type").asString(), "error");
    EXPECT_EQ(response.at("id").asString(), "x9");

    // The session survives malformed lines.
    Request ping;
    ping.type = RequestType::Ping;
    ping.id = "still-alive";
    const JsonValue pong = client.call(encodeRequest(ping));
    EXPECT_EQ(pong.at("type").asString(), "pong");
}

TEST_P(FrontendContract, StaleUnixSocketIsRecoveredLiveOneIsNot)
{
    const std::string path = "/tmp/ruby-frontend-stale-" +
                             std::to_string(::getpid()) + ".sock";
    ::unlink(path.c_str());

    // Leave the socket file behind the way a SIGKILLed process does:
    // bound once, never unlinked, nobody listening.
    {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                      path.c_str());
        ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                         sizeof(addr)),
                  0);
        ::close(fd);
    }

    FrontSetup setup;
    setup.unixPath = path;
    Front front(GetParam(), setup);
    front.start(); // must recover the stale path

    // A *live* listener on the path is an operator error, not
    // something to steal: a second start must throw and must not
    // unlink the live socket.
    {
        Front thief(GetParam(), setup);
        EXPECT_THROW(thief.start(), Error);
    }
    Client client = Client::connectUnix(path);
    EXPECT_TRUE(client.ping().ok);

    front.stop();
    ::unlink(path.c_str());
}

TEST_P(FrontendContract, FailedStartsLeakNoDescriptors)
{
    // Hold a TCP port with a live daemon, then start the tier on it
    // over and over: every bind fails, and every failure must give
    // back the signal pipe and the listen socket.
    ServeOptions holderOptions;
    holderOptions.logLifecycle = false;
    Server holder(holderOptions);
    holder.start();

    FrontSetup setup;
    setup.port = holder.port();
    {
        // Warm up lazily opened fds. A router's failed start has
        // already pinged its backend, and that backend closes its end
        // of the probe connection only when its reactor reads the EOF.
        // Shutting the warm-up front down closes that descriptor
        // before the count, instead of whenever the reactor gets to it.
        Front front(GetParam(), setup);
        EXPECT_THROW(front.start(), Error);
    }
    const std::size_t before = openFds();
    for (int i = 0; i < 20; ++i) {
        Front failing(GetParam(), setup);
        EXPECT_THROW(failing.start(), Error);
    }
    EXPECT_EQ(openFds(), before);

    holder.requestShutdown();
    holder.waitForShutdown();
}

TEST_P(FrontendContract, OutOfRangeTcpPortIsRejected)
{
    for (const int port : {70000, 65536, -1}) {
        FrontSetup setup;
        setup.port = port;
        Front front(GetParam(), setup);
        EXPECT_THROW(front.start(), Error) << "port " << port;
    }
    // The top of the range is still a port.
    FrontSetup setup;
    setup.port = 65535;
    Front front(GetParam(), setup);
    try {
        front.start();
        EXPECT_EQ(front.port(), 65535);
    } catch (const Error &e) {
        // Only an occupied port may refuse it, never the range check.
        EXPECT_EQ(std::string(e.what()).find("out of range"),
                  std::string::npos)
            << e.what();
    }
}

// -- stats / pong shape ------------------------------------------------

/** Key paths of Server::statsJson() after one map request. */
const char *kServerStatsGolden =
    "uptimeMs\n"
    "requests\n"
    "requests.received\n"
    "requests.completed\n"
    "requests.errors\n"
    "requests.connectionsAccepted\n"
    "requests.inflight\n"
    "requests.queued\n"
    "requests.maxInflight\n"
    "requests.queueCapacity\n"
    "requests.draining\n"
    "requests.admitted\n"
    "requests.rejectedSaturated\n"
    "requests.rejectedDraining\n"
    "latency\n"
    "latency.count\n"
    "latency.totalMs\n"
    "latency.p50Ms\n"
    "latency.p99Ms\n"
    "latency.counts\n"
    "layerMemo\n"
    "layerMemo.hits\n"
    "layerMemo.misses\n"
    "layerMemo.inserts\n"
    "layerMemo.entries\n"
    "responseCache\n"
    "responseCache.enabled\n"
    "responseCache.hits\n"
    "responseCache.misses\n"
    "responseCache.evictions\n"
    "responseCache.entries\n"
    "responseCache.capacity\n"
    "responseCache.hitRate\n"
    "responseCache.coalesced\n"
    "responseCache.coalescedWaiting\n"
    "responseCache.flights\n"
    "strategies\n"
    "strategies.random\n"
    "strategies.random.requests\n"
    "strategies.random.evaluations\n"
    "strategies.random.millis\n"
    "strategies.random.evalsPerSec\n";

/** Key paths of a daemon's pong. */
const char *kServerPongGolden =
    "v\n"
    "type\n"
    "id\n"
    "code\n"
    "health\n"
    "health.ok\n"
    "health.draining\n"
    "health.inflight\n"
    "health.queued\n"
    "health.maxInflight\n"
    "health.queueCapacity\n"
    "health.uptimeMs\n"
    "health.layerMemoEntries\n"
    "health.requestCount\n"
    "health.p50Ms\n"
    "health.p99Ms\n"
    "health.responseCacheEntries\n"
    "health.responseCacheHitRate\n"
    "health.coalescedInflight\n";

/** Key paths of Router::fleetStatsJson() over one daemon after one
 *  routed map request. */
const char *kRouterStatsGolden =
    "uptimeMs\n"
    "router\n"
    "router.received\n"
    "router.completed\n"
    "router.errors\n"
    "router.connectionsAccepted\n"
    "router.reroutes\n"
    "router.inflight\n"
    "router.queued\n"
    "router.maxForwards\n"
    "router.queueCapacity\n"
    "router.draining\n"
    "router.rejectedSaturated\n"
    "router.rejectedDraining\n"
    "router.backendsHealthy\n"
    "router.backendsTotal\n"
    "latency\n"
    "latency.count\n"
    "latency.totalMs\n"
    "latency.p50Ms\n"
    "latency.p99Ms\n"
    "latency.counts\n"
    "backends\n"
    "backends[].endpoint\n"
    "backends[].healthy\n"
    "backends[].draining\n"
    "backends[].inflight\n"
    "backends[].routed\n"
    "backends[].stats\n"
    "backends[].stats.uptimeMs\n"
    "backends[].stats.requests\n"
    "backends[].stats.requests.received\n"
    "backends[].stats.requests.completed\n"
    "backends[].stats.requests.errors\n"
    "backends[].stats.requests.connectionsAccepted\n"
    "backends[].stats.requests.inflight\n"
    "backends[].stats.requests.queued\n"
    "backends[].stats.requests.maxInflight\n"
    "backends[].stats.requests.queueCapacity\n"
    "backends[].stats.requests.draining\n"
    "backends[].stats.requests.admitted\n"
    "backends[].stats.requests.rejectedSaturated\n"
    "backends[].stats.requests.rejectedDraining\n"
    "backends[].stats.latency\n"
    "backends[].stats.latency.count\n"
    "backends[].stats.latency.totalMs\n"
    "backends[].stats.latency.p50Ms\n"
    "backends[].stats.latency.p99Ms\n"
    "backends[].stats.latency.counts\n"
    "backends[].stats.layerMemo\n"
    "backends[].stats.layerMemo.hits\n"
    "backends[].stats.layerMemo.misses\n"
    "backends[].stats.layerMemo.inserts\n"
    "backends[].stats.layerMemo.entries\n"
    "backends[].stats.responseCache\n"
    "backends[].stats.responseCache.enabled\n"
    "backends[].stats.responseCache.hits\n"
    "backends[].stats.responseCache.misses\n"
    "backends[].stats.responseCache.evictions\n"
    "backends[].stats.responseCache.entries\n"
    "backends[].stats.responseCache.capacity\n"
    "backends[].stats.responseCache.hitRate\n"
    "backends[].stats.responseCache.coalesced\n"
    "backends[].stats.responseCache.coalescedWaiting\n"
    "backends[].stats.responseCache.flights\n"
    "backends[].stats.strategies\n"
    "backends[].stats.strategies.random\n"
    "backends[].stats.strategies.random.requests\n"
    "backends[].stats.strategies.random.evaluations\n"
    "backends[].stats.strategies.random.millis\n"
    "backends[].stats.strategies.random.evalsPerSec\n"
    "fleet\n"
    "fleet.requests\n"
    "fleet.requests.received\n"
    "fleet.requests.completed\n"
    "fleet.requests.errors\n"
    "fleet.requests.admitted\n"
    "fleet.requests.rejectedSaturated\n"
    "fleet.requests.rejectedDraining\n"
    "fleet.layerMemo\n"
    "fleet.layerMemo.hits\n"
    "fleet.layerMemo.misses\n"
    "fleet.layerMemo.inserts\n"
    "fleet.layerMemo.entries\n"
    "fleet.responseCache\n"
    "fleet.responseCache.hits\n"
    "fleet.responseCache.misses\n"
    "fleet.responseCache.evictions\n"
    "fleet.responseCache.entries\n"
    "fleet.responseCache.capacity\n"
    "fleet.responseCache.hitRate\n"
    "fleet.responseCache.coalesced\n"
    "fleet.responseCache.coalescedWaiting\n"
    "fleet.responseCache.flights\n"
    "fleet.latency\n"
    "fleet.latency.count\n"
    "fleet.latency.totalMs\n"
    "fleet.latency.p50Ms\n"
    "fleet.latency.p99Ms\n"
    "fleet.latency.counts\n"
    "fleet.strategies\n"
    "fleet.strategies.random\n"
    "fleet.strategies.random.requests\n"
    "fleet.strategies.random.evaluations\n"
    "fleet.strategies.random.millis\n"
    "fleet.strategies.random.evalsPerSec\n";

/** Key paths of a router's pong. */
const char *kRouterPongGolden =
    "v\n"
    "type\n"
    "id\n"
    "code\n"
    "health\n"
    "health.ok\n"
    "health.draining\n"
    "health.inflight\n"
    "health.queued\n"
    "health.maxInflight\n"
    "health.queueCapacity\n"
    "health.uptimeMs\n"
    "health.layerMemoEntries\n"
    "health.requestCount\n"
    "health.p50Ms\n"
    "health.p99Ms\n"
    "health.responseCacheEntries\n"
    "health.responseCacheHitRate\n"
    "health.coalescedInflight\n";

JsonValue
pong(Client &client)
{
    Request ping;
    ping.type = RequestType::Ping;
    ping.id = "p";
    return client.call(encodeRequest(ping));
}

TEST(FrontendShape, StatsAndPongKeyPathsMatchTheGoldens)
{
    for (const Tier tier : {Tier::Server, Tier::Router}) {
        Front front(tier, FrontSetup{});
        front.start();
        Client client = front.connect();
        const JsonValue result =
            client.call(encodeRequest(mapRequest("m", kQuickConfig)));
        ASSERT_EQ(result.at("code").asU64(), 0u) << writeJson(result);

        const std::string stats = keyPaths(front.stats());
        const std::string health = keyPaths(pong(client));
        if (tier == Tier::Server) {
            EXPECT_EQ(stats, kServerStatsGolden);
            EXPECT_EQ(health, kServerPongGolden);
        } else {
            EXPECT_EQ(stats, kRouterStatsGolden);
            EXPECT_EQ(health, kRouterPongGolden);
        }
    }
}

} // namespace
} // namespace serve
} // namespace ruby
