/**
 * @file
 * ruby-router: a consistent-hash front for a fleet of ruby-served
 * daemons.
 *
 * The router speaks wire protocol v1 on its own socket and forwards
 * map/net requests to N backend daemons. The routing key is the
 * request's (architecture signature, shape fingerprint) — search
 * options are deliberately excluded, so the same shape with a
 * different budget lands on the same shard and hits its warm
 * LayerMemo. Keys map to backends through a consistent-hash ring
 * with bounded loads: each backend owns `replicas` virtual nodes,
 * and the ring walk skips a backend whose share of the router's
 * inflight forwards exceeds loadFactor times its fair share, so one
 * hot shape cannot melt a shard while the rest of the fleet idles.
 *
 * Failure semantics: a health-check thread pings every backend (the
 * deep health report of protocol.hpp); a backend that refuses
 * connections or reports draining leaves the ring until it recovers,
 * and its share of the key space re-hashes onto the survivors.
 * In-flight forwards ride Client::callWithRetry — dropped
 * connections are re-dialed, "saturated" is retried with backoff,
 * "draining" triggers an immediate re-route — so the requester sees
 * the true final outcome. Responses are re-encoded through the
 * fixpoint JSON codec, so remote output through the router is
 * byte-identical to talking to the daemon directly (and to offline).
 *
 * A "stats" request fans in: the router queries every healthy
 * backend and returns one aggregated fleet report (summed counters,
 * bucket-wise merged latency histograms, fleet-wide cache hit rate)
 * plus per-backend gauges; dead backends are reported unhealthy and
 * contribute nothing. "ping" answers with the router's own health.
 * "shutdown" drains the router only — backends keep serving, which
 * is what a rolling restart wants.
 *
 * The router is the daemon's serving frontend (frontend.hpp) with a
 * forwarding handler: the same listener, pipeline, admission and
 * drain, with forwards in place of searches. It caches nothing: a
 * repeat travels to its home backend, whose response cache replays
 * it and whose single-flight coalesces identical inflight requests.
 * Its drain waits out inflight forwards instead of cancelling them.
 */

#ifndef RUBY_SERVE_ROUTER_HPP
#define RUBY_SERVE_ROUTER_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ruby/common/thread_pool.hpp"
#include "ruby/serve/client.hpp"
#include "ruby/serve/frontend.hpp"

namespace ruby
{
namespace serve
{

/**
 * A consistent-hash ring with virtual nodes. Deterministic: the same
 * (nodes, replicas, key) always yields the same walk order, on every
 * platform — the hash is FNV-1a, not std::hash.
 */
class ConsistentRing
{
  public:
    /** @p nodes must be distinct; @p replicas virtual nodes each. */
    ConsistentRing(std::vector<std::string> nodes, unsigned replicas);

    std::size_t nodeCount() const { return nodes_.size(); }

    /**
     * The ring walk for @p key: every node index exactly once, in
     * the order a bounded-load lookup probes them.
     */
    std::vector<std::size_t> walk(const std::string &key) const;

    /**
     * First node in walk(key) accepted by @p accept; nodeCount()
     * when none is.
     */
    std::size_t pick(const std::string &key,
                     const std::function<bool(std::size_t)> &accept)
        const;

    /** The stable 64-bit key hash the ring positions against. */
    static std::uint64_t hashKey(const std::string &key);

  private:
    std::vector<std::string> nodes_;
    /** (point, node index), sorted by point. */
    std::vector<std::pair<std::uint64_t, std::size_t>> ring_;
};

/** Router configuration; the front socket, queue and drain budget
 *  come from FrontendOptions. */
struct RouterOptions : FrontendOptions
{
    /** A router queues deeper than a daemon by default. */
    RouterOptions() { queueCapacity = 64; }

    /** Backend daemons (at least one). */
    std::vector<Endpoint> backends;

    /** Virtual nodes per backend on the hash ring. */
    unsigned replicas = 64;
    /** Bounded-load factor: a backend is skipped when its inflight
     *  share exceeds loadFactor times the fair share. */
    double loadFactor = 1.25;

    /** Health-check cadence. */
    std::chrono::milliseconds healthInterval{500};

    /** Concurrent forwarding threads. */
    unsigned maxForwards = 8;

    /** Forwarding retry schedule (re-dial drops, back off on
     *  "saturated"; "draining" re-routes instead). */
    RetryPolicy retry{3, std::chrono::milliseconds{10'000},
                      std::chrono::milliseconds{50},
                      std::chrono::milliseconds{2'000}, 1};
};

/**
 * The router process core. Lifecycle mirrors Server: construct ->
 * start() -> requestShutdown() (or installSignalDrain) ->
 * waitForShutdown().
 */
class Router : private Frontend::Handler
{
  public:
    explicit Router(RouterOptions options);
    ~Router() override;

    Router(const Router &) = delete;
    Router &operator=(const Router &) = delete;

    void start();

    /** Bound front TCP port (0 for unix sockets). */
    int port() const { return frontend_.port(); }

    void requestShutdown() { frontend_.requestShutdown(); }
    bool shutdownRequested() const
    {
        return frontend_.shutdownRequested();
    }
    void waitForShutdown();

    /** Route SIGTERM/SIGINT to @p router's requestShutdown(). */
    static void installSignalDrain(Router &router)
    {
        Frontend::installSignalDrain(router.frontend_);
    }

    /** The aggregated fleet report served to "stats" (thread-safe;
     *  queries every healthy backend inline). */
    JsonValue fleetStatsJson();

    /** The routing key for @p request (map/net only): architecture +
     *  shape, never search options. Exposed for tests. */
    static std::string routingKey(const Request &request);

    /** Backend index the ring prefers for @p key right now, ignoring
     *  load (health only); backends.size() when none is healthy.
     *  Exposed for tests. */
    std::size_t preferredBackend(const std::string &key) const;

  private:
    struct BackendState
    {
        Endpoint endpoint;
        std::atomic<bool> healthy{true};
        std::atomic<bool> draining{false};
        std::atomic<unsigned> inflight{0};
        std::atomic<std::uint64_t> routed{0};
        // Idle pooled connections (guarded by poolMutex).
        std::mutex poolMutex;
        std::vector<Client> pool;
    };

    // Frontend::Handler: forward to the fleet.
    JsonValue handle(const Request &request,
                     const std::string &line) override;
    JsonValue stats() override { return fleetStatsJson(); }
    void drainBudgetExpired() override;

    /** Forward @p line for @p key, failing over across backends. */
    JsonValue forwardToFleet(const std::string &key,
                             const std::string &requestId,
                             const std::string &line);

    /** Pick a backend for @p key: healthy, not excluded, within the
     *  load bound (any healthy non-excluded one when all are over).
     *  Returns backends.size() when nothing qualifies. */
    std::size_t pickBackend(const std::string &key,
                            const std::vector<bool> &excluded) const;

    // Pooled backend connections.
    Client takeConnection(std::size_t backend);
    void storeConnection(std::size_t backend, Client &&client);
    void dropConnections(std::size_t backend);

    void healthLoop();
    void checkBackend(std::size_t index);

    RouterOptions options_;
    std::unique_ptr<ConsistentRing> ring_;
    std::vector<std::unique_ptr<BackendState>> backends_;
    std::atomic<std::uint64_t> reroutes_{0};

    /** After the state above: its threads stop before that goes. */
    Frontend frontend_;
    /** Runs healthLoop() on one parked thread. */
    std::unique_ptr<ThreadPool> healthThread_;
};

} // namespace serve
} // namespace ruby

#endif // RUBY_SERVE_ROUTER_HPP
