/**
 * @file
 * The serving frontend shared by ruby-served (Server) and ruby-router
 * (Router).
 *
 * Both tiers accept the same NDJSON protocol on the same kind of
 * socket and differ only in what they do with an admitted map/net
 * request: the daemon searches locally, the router forwards to its
 * fleet. Everything else lives here, once:
 *
 *  - the listener (unix socket with stale-path recovery, or TCP);
 *  - a single epoll reactor thread (event_loop.hpp) that owns every
 *    socket, so idle connections cost zero threads;
 *  - a one-thread parse pipeline between the reactor and the slots;
 *  - strict per-connection ordering (one request inflight per
 *    connection, the rest queued, reads paused past a backlog);
 *  - the response cache and single-flight coalescing
 *    (response_cache.hpp), for a tier that hands it a cache;
 *  - async admission (admission.hpp) onto a fixed pool of slot
 *    threads;
 *  - ping, stats and shutdown;
 *  - the SIGTERM/SIGINT self-pipe and the four-step graceful drain.
 *
 * A tier plugs in a Handler and its Tier wording, and builds its own
 * stats payload from the gauges exposed here.
 */

#ifndef RUBY_SERVE_FRONTEND_HPP
#define RUBY_SERVE_FRONTEND_HPP

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "ruby/common/thread_pool.hpp"
#include "ruby/serve/admission.hpp"
#include "ruby/serve/event_loop.hpp"
#include "ruby/serve/json.hpp"
#include "ruby/serve/latency_histogram.hpp"
#include "ruby/serve/protocol.hpp"
#include "ruby/serve/response_cache.hpp"

namespace ruby
{
namespace serve
{

/** hits / (hits + misses), or 0 before the first probe. */
double hitRate(std::uint64_t hits, std::uint64_t misses);

/** Front-socket, queueing and drain settings of a tier. */
struct FrontendOptions
{
    /** Unix-domain socket path; preferred when non-empty. */
    std::string unixPath;

    /** TCP bind address (used when unixPath is empty). */
    std::string host = "127.0.0.1";
    /** TCP port, 0-65535; 0 binds an ephemeral port (see port()). */
    int port = 0;

    /** Requests allowed to wait for a slot before rejection. */
    std::size_t queueCapacity = 8;

    /** Grace period for inflight work on drain; what happens past it
     *  is the tier's choice (Frontend::Handler::drainBudgetExpired). */
    std::chrono::milliseconds drainBudget{10'000};

    /** Maximum accepted request-line length in bytes. */
    std::size_t maxLineBytes = 4u << 20;

    /** Lifecycle log lines on stderr (listening/drain/final stats). */
    bool logLifecycle = true;
};

/**
 * One serving frontend. Lifecycle: construct -> start() -> requests
 * served on internal threads -> requestShutdown() from any thread or
 * signal (installSignalDrain) -> waitForShutdown() drains and stops
 * every thread (they return to the thread park). The owner must drain before destroying the frontend,
 * because the drain calls back into its Handler.
 */
class Frontend
{
  public:
    /** The wording a tier keeps byte-identical on the wire, in its
     *  errors and in its lifecycle lines. */
    struct Tier
    {
        /** Prefix of thrown setup errors ("serve"). */
        const char *errorPrefix;
        /** Prefix of lifecycle lines ("ruby-served"). */
        const char *logName;
        /** Who may hold a live unix socket path ("daemon"). */
        const char *owner;
        /** Rejection message while draining. */
        const char *shuttingDown;
        /** Rejection message when the admission queue is full. */
        const char *queueFull;
    };

    /** What a tier does with the requests the frontend admits. */
    class Handler
    {
      public:
        virtual ~Handler() = default;

        /** Answer one admitted map/net request (slot thread). @p line
         *  is the request frame as received. */
        virtual JsonValue handle(const Request &request,
                                 const std::string &line) = 0;

        /** Add the tier's own gauges to a pong. */
        virtual void addHealth(Health &health) const;

        /** The payload of "stats" and of the final stats line. */
        virtual JsonValue stats() = 0;

        /** The drain budget ran out with work still inflight. */
        virtual void drainBudgetExpired() = 0;
    };

    /** Request counters kept by the frontend. */
    struct Counters
    {
        std::uint64_t received = 0;
        std::uint64_t completed = 0;
        std::uint64_t errors = 0;
        std::uint64_t connectionsAccepted = 0;
    };

    /** @p slots concurrent searches or forwards. With a
     *  @p responseCache, repeats of deterministic requests are replayed
     *  from it and identical inflight ones coalesce onto one leader
     *  (single-flight); without one, every request reaches the
     *  handler. */
    Frontend(const FrontendOptions &options, unsigned slots, Tier tier,
             Handler &handler,
             std::unique_ptr<ResponseCache> responseCache = nullptr);

    Frontend(const Frontend &) = delete;
    Frontend &operator=(const Frontend &) = delete;

    /** Bind, listen and start serving; @p listenNote ends the
     *  "listening on" line. Throws ruby::Error when the socket cannot
     *  be set up — including when the unix socket path is owned by a
     *  live listener; a stale path left by a crash is unlinked and
     *  rebound. A failed start leaves no descriptor open. */
    void start(const std::string &listenNote = "");

    /** Bound TCP port (after start(); 0 for Unix-domain sockets). */
    int port() const { return boundPort_; }

    /** Begin graceful drain from any thread (idempotent). */
    void requestShutdown();
    bool shutdownRequested() const;

    /** Wait up to @p timeout for a shutdown request; true once one
     *  has been made. */
    bool waitForShutdownRequest(std::chrono::milliseconds timeout);

    /**
     * Block until shutdown is requested, then drain: stop accepting,
     * reject queued work, give inflight requests drainBudget to
     * finish (then tell the handler), close sessions, stop all
     * threads and log the final stats line. Returns at once when the
     * frontend never started or has already drained.
     */
    void waitForShutdown();

    /**
     * Route SIGTERM/SIGINT to @p frontend's requestShutdown() via a
     * self-pipe (async-signal-safe). One frontend per process; call
     * after start().
     */
    static void installSignalDrain(Frontend &frontend);

    /** Open client connections right now. */
    std::size_t connectionCount() const
    {
        return loop_ != nullptr ? loop_->connectionCount() : 0;
    }

    // -- gauges for the tier's stats payload (thread-safe) ------------

    Counters counters() const;
    Admission::Snapshot admission() const
    {
        return admission_.snapshot();
    }
    std::uint64_t uptimeMs() const;
    /** The wall-time histogram of searched (or forwarded) requests. */
    JsonValue latencyJson() const;
    void recordLatency(std::chrono::microseconds elapsed);
    /** The response-cache + single-flight block (zeros when off). */
    JsonValue responseCacheJson() const;

    /** "<logName>: <message>" on stderr when lifecycle logging is on. */
    void log(const std::string &message) const;

  private:
    /** Per-connection dispatch state: requests run strictly in
     *  order, one inflight at a time (guarded by connMutex_). */
    struct ConnState
    {
        std::deque<std::string> pending;
        bool busy = false;
        bool paused = false; ///< reads paused for backpressure
    };

    void bindListener();
    void closeDescriptors();

    // Reactor callbacks (reactor thread).
    void onConnect(EventLoop::ConnId id);
    void onLine(EventLoop::ConnId id, std::string &&line);
    void onOversize(EventLoop::ConnId id);
    void onDisconnect(EventLoop::ConnId id);

    /** Parse + dispatch one line (pipeline thread). */
    void processLine(EventLoop::ConnId id, std::string line);
    /** Cache/coalesce, then admission, for a map/net request. */
    void dispatchSearch(EventLoop::ConnId id,
                        std::shared_ptr<Request> request,
                        std::string line);
    /** Admission outcome for the flight leader (any thread). @p key
     *  is the response-cache key ("" = uncacheable). */
    void admitSearch(EventLoop::ConnId id,
                     std::shared_ptr<Request> request,
                     std::shared_ptr<std::string> line,
                     std::string key);
    /** Reject the flight leader and every follower of @p key. */
    void reject(EventLoop::ConnId id, const Request &request,
                const std::string &key, const char *kind,
                const char *message);
    /** Run the handler on a slot (slot thread). */
    void runSearch(EventLoop::ConnId id,
                   const std::shared_ptr<Request> &request,
                   const std::shared_ptr<std::string> &line,
                   const std::string &key);
    /** Deliver @p response to every follower of @p key, each
     *  re-stamped with its own request id (any thread). */
    void completeFlight(const std::string &key,
                        const JsonValue &response);
    /** Count + send the response, then start the connection's next
     *  pending request (any thread). */
    void respond(EventLoop::ConnId id, const JsonValue &response,
                 bool shutdownAfterSend);
    void dispatchNext(EventLoop::ConnId id);
    void submitLine(EventLoop::ConnId id, std::string line);

    JsonValue handleQuick(const Request &request,
                          bool &shutdownAfterSend);

    FrontendOptions options_;
    unsigned slotCount_;
    Tier tier_;
    Handler &handler_;

    /** Raw response lines for deterministic repeats (null when the
     *  tier caches nothing). */
    std::unique_ptr<ResponseCache> responseCache_;
    SingleFlight singleFlight_;

    Admission admission_;
    /** Search or forwarding threads, one per admission slot. */
    std::unique_ptr<ThreadPool> slots_;
    /** One-thread parse/dispatch stage between reactor and slots. */
    std::unique_ptr<ThreadPool> pipeline_;

    std::unique_ptr<EventLoop> loop_;
    /** The reactor's and the signal forwarder's threads. */
    std::unique_ptr<ThreadPool> loopThreads_;

    int listenFd_ = -1;
    int boundPort_ = 0;
    std::array<int, 2> sigPipe_{-1, -1};

    mutable std::mutex mutex_;
    std::condition_variable shutdownCv_;
    bool started_ = false;
    bool shutdownRequested_ = false;
    bool drained_ = false;

    mutable std::mutex connMutex_;
    std::unordered_map<EventLoop::ConnId, ConnState> connStates_;

    std::chrono::steady_clock::time_point startTime_;

    // Request counters (guarded by statsMutex_).
    mutable std::mutex statsMutex_;
    Counters counters_;
    LatencyHistogram latency_;
};

} // namespace serve
} // namespace ruby

#endif // RUBY_SERVE_FRONTEND_HPP
