/**
 * @file
 * ruby-served: a persistent mapping-as-a-service daemon.
 *
 * One process owns the expensive warm state — a cross-request
 * LayerMemo — and serves mapping searches over a
 * Unix-domain or TCP socket speaking the NDJSON protocol of
 * protocol.hpp. Per-request SearchOptions arrive on the wire and are
 * enforced with the library's existing deadline/cancellation
 * machinery; admission control (admission.hpp) bounds concurrency and
 * queueing; SIGTERM or a "shutdown" request begins a graceful drain
 * (stop accepting, finish or cancel inflight work under a drain
 * budget, flush a final stats line).
 *
 * I/O, ordering, caching, admission and drain are the shared serving
 * frontend's (frontend.hpp); the daemon plugs in "search locally",
 * owns the serving stack's one response cache, and cancels inflight
 * searches once the drain budget expires.
 *
 * Determinism contract: a request against a cold daemon produces
 * results bit-identical to the same offline run — the cross-request
 * memo replays only deterministic configurations (see
 * SearchOptions::sharedLayerMemo and docs/SERVING.md).
 */

#ifndef RUBY_SERVE_SERVER_HPP
#define RUBY_SERVE_SERVER_HPP

#include <array>
#include <chrono>
#include <cstdint>
#include <mutex>

#include "ruby/common/cancel.hpp"
#include "ruby/search/driver.hpp"
#include "ruby/serve/frontend.hpp"

namespace ruby
{
namespace serve
{

/** Daemon configuration; the front socket, queue and drain budget
 *  come from FrontendOptions. Past the drain budget the drain
 *  CancelToken fires and searches return best-so-far. */
struct ServeOptions : FrontendOptions
{
    /** Concurrent search slots. */
    unsigned maxInflight = 2;

    /** Serve repeats of deterministic requests from a cache of raw
     *  response lines, and coalesce identical inflight requests onto
     *  one leader (single-flight). Replayed bytes are identical to a
     *  fresh response's — only stats/ping gauges reveal the cache. */
    bool responseCache = true;
    /** Response-cache capacity (entries). */
    std::size_t responseCacheCapacity = 1024;
};

/**
 * The daemon. Lifecycle: construct -> start() -> (requests served on
 * internal threads) -> requestShutdown() from any thread or signal
 * via installSignalDrain() -> waitForShutdown() performs the drain
 * and stops every thread. The destructor drains if the caller did
 * not.
 */
class Server : private Frontend::Handler
{
  public:
    explicit Server(ServeOptions options);
    ~Server() override;

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind, listen and start accepting. Throws ruby::Error when the
     *  socket cannot be set up — including when the unix socket path
     *  is owned by a *live* daemon; a stale path left by a crash is
     *  unlinked and rebound automatically. */
    void start() { frontend_.start(); }

    /** Bound TCP port (after start(); 0 for Unix-domain sockets). */
    int port() const { return frontend_.port(); }

    /** Begin graceful drain from any thread (idempotent). */
    void requestShutdown() { frontend_.requestShutdown(); }

    /** True once requestShutdown() has been called. */
    bool shutdownRequested() const
    {
        return frontend_.shutdownRequested();
    }

    /**
     * Block until shutdown is requested, then drain: stop accepting,
     * reject queued work, give inflight requests drainBudget to
     * finish, cancel whatever remains, close sessions, stop all
     * threads and emit the final stats line.
     */
    void waitForShutdown() { frontend_.waitForShutdown(); }

    /**
     * Route SIGTERM/SIGINT to @p server's requestShutdown() via a
     * self-pipe (async-signal-safe). One server per process; call
     * after start().
     */
    static void installSignalDrain(Server &server)
    {
        Frontend::installSignalDrain(server.frontend_);
    }

    /** The stats payload served to "stats" requests (thread-safe). */
    JsonValue statsJson() const;

    /** Open client connections right now (thread-safe; testing). */
    std::size_t connectionCount() const
    {
        return frontend_.connectionCount();
    }

  private:
    struct StrategyStats
    {
        std::uint64_t requests = 0;
        std::uint64_t evaluations = 0;
        std::uint64_t millis = 0;
    };

    // Frontend::Handler: search locally.
    JsonValue handle(const Request &request,
                     const std::string &line) override;
    void addHealth(Health &health) const override;
    JsonValue stats() override { return statsJson(); }
    void drainBudgetExpired() override;

    JsonValue runMap(const Request &request);
    JsonValue runNet(const Request &request);
    /** Stamp shared state + drain cancel into request options. */
    void prepareSearchOptions(SearchOptions &search);
    void recordStrategy(SearchStrategy strategy,
                        std::uint64_t evaluations,
                        std::chrono::microseconds elapsed);

    ServeOptions options_;

    // Process-lifetime warm state shared by every request.
    LayerMemo layerMemo_;
    CancelToken drainCancel_;

    mutable std::mutex strategyMutex_;
    std::array<StrategyStats, 5> strategyStats_{};

    /** Last member: its threads stop before the state above goes. */
    Frontend frontend_;
};

} // namespace serve
} // namespace ruby

#endif // RUBY_SERVE_SERVER_HPP
