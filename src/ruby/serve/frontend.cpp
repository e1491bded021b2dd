#include "ruby/serve/frontend.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <future>
#include <iostream>

#include "ruby/common/error.hpp"

namespace ruby
{
namespace serve
{

namespace
{

/** Lines a connection may buffer before its reads are paused. */
constexpr std::size_t kMaxPendingLines = 64;
/** Resume reads once the backlog shrinks to this point. */
constexpr std::size_t kResumePendingLines = kMaxPendingLines / 2;

/** Write descriptor the signal handler forwards SIGTERM/SIGINT to. */
std::atomic<int> g_signalFd{-1};

extern "C" void
frontendSignalHandler(int)
{
    const int fd = g_signalFd.load(std::memory_order_relaxed);
    if (fd >= 0) {
        const char byte = 's';
        // The return value is deliberately ignored: there is nothing
        // a signal handler could do about a full pipe, and one
        // pending byte already guarantees the drain starts.
        [[maybe_unused]] const auto rc = ::write(fd, &byte, 1);
    }
}

/** Best-effort id extraction for error responses to malformed lines. */
std::string
extractId(const std::string &line)
{
    try {
        return parseJson(line).getString("id", "");
    } catch (...) {
        return "";
    }
}

/** Is the unix socket at @p path backed by a live listener? */
bool
unixSocketIsLive(const std::string &path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return false;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    const bool live =
        ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) == 0;
    ::close(fd);
    return live;
}

} // namespace

double
hitRate(std::uint64_t hits, std::uint64_t misses)
{
    const std::uint64_t probes = hits + misses;
    return probes != 0 ? static_cast<double>(hits) /
                             static_cast<double>(probes)
                       : 0.0;
}

void
Frontend::Handler::addHealth(Health &) const
{
}

Frontend::Frontend(const FrontendOptions &options, unsigned slots,
                   Tier tier, Handler &handler,
                   std::unique_ptr<ResponseCache> responseCache)
    : options_(options),
      slotCount_(slots),
      tier_(tier),
      handler_(handler),
      responseCache_(std::move(responseCache)),
      admission_(slots, options.queueCapacity)
{
}

// ---------------------------------------------------------------------------
// Lifecycle

void
Frontend::bindListener()
{
    const char *prefix = tier_.errorPrefix;
    if (!options_.unixPath.empty()) {
        listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        RUBY_CHECK(listenFd_ >= 0, prefix, ": socket(): ",
                   std::strerror(errno));
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        RUBY_CHECK(options_.unixPath.size() < sizeof(addr.sun_path),
                   prefix, ": socket path too long: ",
                   options_.unixPath);
        std::strncpy(addr.sun_path, options_.unixPath.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0) {
            // A crashed process leaves its socket file behind and the
            // fresh bind fails with EADDRINUSE. Probe the path: a
            // live listener accepts the connect (never steal its
            // socket); a stale file refuses, so unlink and rebind.
            const int bindErrno = errno;
            RUBY_CHECK(bindErrno == EADDRINUSE, prefix,
                       ": cannot bind ", options_.unixPath, ": ",
                       std::strerror(bindErrno));
            RUBY_CHECK(!unixSocketIsLive(options_.unixPath), prefix,
                       ": ", options_.unixPath, " is owned by a live ",
                       tier_.owner);
            ::unlink(options_.unixPath.c_str());
            RUBY_CHECK(::bind(listenFd_,
                              reinterpret_cast<sockaddr *>(&addr),
                              sizeof(addr)) == 0,
                       prefix, ": cannot bind ", options_.unixPath,
                       ": ", std::strerror(errno));
        }
    } else {
        // Checked before htons() could silently wrap it.
        RUBY_CHECK(options_.port >= 0 && options_.port <= 65535,
                   prefix, ": port ", options_.port,
                   " out of range (0-65535)");
        listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        RUBY_CHECK(listenFd_ >= 0, prefix, ": socket(): ",
                   std::strerror(errno));
        // Restarts must not stall on lingering TIME_WAIT pairs from
        // the previous process's connections.
        const int one = 1;
        ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
        RUBY_CHECK(::inet_pton(AF_INET, options_.host.c_str(),
                               &addr.sin_addr) == 1,
                   prefix, ": invalid bind address ", options_.host);
        RUBY_CHECK(::bind(listenFd_,
                          reinterpret_cast<sockaddr *>(&addr),
                          sizeof(addr)) == 0,
                   prefix, ": cannot bind ", options_.host, ":",
                   options_.port, ": ", std::strerror(errno));
        sockaddr_in bound{};
        socklen_t len = sizeof(bound);
        RUBY_CHECK(::getsockname(listenFd_,
                                 reinterpret_cast<sockaddr *>(&bound),
                                 &len) == 0,
                   prefix, ": getsockname(): ", std::strerror(errno));
        boundPort_ = static_cast<int>(ntohs(bound.sin_port));
    }
    RUBY_CHECK(::listen(listenFd_, 256) == 0, prefix, ": listen(): ",
               std::strerror(errno));
}

void
Frontend::closeDescriptors()
{
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    // A signal arriving after this point must not write into a
    // recycled descriptor number.
    int expected = sigPipe_[1];
    g_signalFd.compare_exchange_strong(expected, -1);
    for (int &fd : sigPipe_) {
        if (fd >= 0)
            ::close(fd);
        fd = -1;
    }
}

void
Frontend::start(const std::string &listenNote)
{
    RUBY_CHECK(!started_, tier_.errorPrefix, ": start() called twice");

    RUBY_CHECK(::pipe(sigPipe_.data()) == 0, tier_.errorPrefix,
               ": cannot create the signal pipe: ",
               std::strerror(errno));
    ::signal(SIGPIPE, SIG_IGN);

    EventLoop::Callbacks callbacks;
    callbacks.onConnect = [this](EventLoop::ConnId id) {
        onConnect(id);
    };
    callbacks.onLine = [this](EventLoop::ConnId id,
                              std::string &&line) {
        onLine(id, std::move(line));
    };
    callbacks.onOversize = [this](EventLoop::ConnId id,
                                  std::size_t) { onOversize(id); };
    callbacks.onDisconnect = [this](EventLoop::ConnId id) {
        onDisconnect(id);
    };
    try {
        bindListener();
        loop_ = std::make_unique<EventLoop>(
            listenFd_, options_.maxLineBytes, std::move(callbacks));
    } catch (...) {
        closeDescriptors();
        throw;
    }

    slots_ = std::make_unique<ThreadPool>(slotCount_);
    pipeline_ = std::make_unique<ThreadPool>(1);
    startTime_ = std::chrono::steady_clock::now();

    started_ = true;
    // The reactor and the signal forwarder each hold one thread of
    // this pool for their whole life. Both loops are noexcept: an
    // exception escaping either terminates the process, as it would
    // on a thread of their own, instead of being parked in the pool.
    loopThreads_ = std::make_unique<ThreadPool>(2);
    loopThreads_->submit([this]() noexcept { loop_->run(); });
    loopThreads_->submit([this]() noexcept {
        // Forward signal-pipe bytes: 's' (from the handler) begins
        // the drain; 'q' (from requestShutdown) retires this loop.
        for (;;) {
            char byte = 0;
            const ssize_t n = ::read(sigPipe_[0], &byte, 1);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0 || byte == 'q')
                return;
            requestShutdown();
        }
    });

    if (!options_.unixPath.empty())
        log(detail::composeMessage("listening on unix:",
                                   options_.unixPath, listenNote));
    else
        log(detail::composeMessage("listening on ", options_.host, ":",
                                   boundPort_, listenNote));
}

void
Frontend::installSignalDrain(Frontend &frontend)
{
    RUBY_CHECK(frontend.started_, frontend.tier_.errorPrefix,
               ": installSignalDrain() before start()");
    g_signalFd.store(frontend.sigPipe_[1], std::memory_order_relaxed);
    struct sigaction sa{};
    sa.sa_handler = frontendSignalHandler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESTART;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
    ::signal(SIGPIPE, SIG_IGN);
}

void
Frontend::requestShutdown()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (shutdownRequested_)
            return;
        shutdownRequested_ = true;
    }
    shutdownCv_.notify_all();
    if (sigPipe_[1] >= 0) {
        const char byte = 'q';
        [[maybe_unused]] const auto rc = ::write(sigPipe_[1], &byte, 1);
    }
}

bool
Frontend::shutdownRequested() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return shutdownRequested_;
}

bool
Frontend::waitForShutdownRequest(std::chrono::milliseconds timeout)
{
    std::unique_lock<std::mutex> lock(mutex_);
    return shutdownCv_.wait_for(lock, timeout,
                                [&]() { return shutdownRequested_; });
}

void
Frontend::waitForShutdown()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        shutdownCv_.wait(lock, [&]() { return shutdownRequested_; });
        if (!started_ || drained_)
            return;
    }
    log("drain started");

    // 1. Stop taking new work: no more accepts, and every queued or
    //    future admission returns a "draining" rejection (queued
    //    waiters are flushed with one immediately).
    loop_->stopAccepting();
    admission_.beginDrain();

    // 2. Give inflight work the drain budget to finish cleanly; past
    //    it the handler decides (the daemon cancels its searches, the
    //    router keeps waiting for its forwards' true outcome).
    if (!admission_.waitIdleFor(options_.drainBudget)) {
        handler_.drainBudgetExpired();
        admission_.waitIdle();
    }

    // 3. Quiesce front-to-back. First drain the slot and dispatch
    //    pools so every answered request's response is posted to the
    //    reactor; only then SHUT_RD the connections (write sides stay
    //    open — posting order guarantees the responses hit the write
    //    buffers before the EOF tear-down sees them) and barrier on
    //    the reactor so no further lines reach the dispatch stage.
    //    Lines that slip in just before the SHUT_RD still get their
    //    "draining" rejection via the second waitIdle. Finally stop
    //    the loop, which flushes pending writes before closing.
    slots_->waitIdle();
    pipeline_->waitIdle();
    loop_->shutdownReads();
    {
        std::promise<void> flushed;
        loop_->post([&flushed]() { flushed.set_value(); });
        flushed.get_future().wait();
    }
    pipeline_->waitIdle();
    slots_->waitIdle();
    loop_->stop();
    // Waits out the reactor (stopped above) and the signal forwarder
    // (retired by the 'q' requestShutdown wrote).
    loopThreads_.reset();
    slots_.reset();
    pipeline_.reset();

    loop_.reset();
    closeDescriptors();
    if (!options_.unixPath.empty())
        ::unlink(options_.unixPath.c_str());
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        connStates_.clear();
    }

    // 4. The final stats line: one parseable record of everything
    //    this tier did, flushed before exit.
    if (options_.logLifecycle)
        log("final stats " + writeJson(handler_.stats()));
    std::lock_guard<std::mutex> lock(mutex_);
    drained_ = true;
}

// ---------------------------------------------------------------------------
// Reactor callbacks + the ordered per-connection pipeline

void
Frontend::onConnect(EventLoop::ConnId id)
{
    {
        std::lock_guard<std::mutex> stats(statsMutex_);
        ++counters_.connectionsAccepted;
    }
    std::lock_guard<std::mutex> lock(connMutex_);
    connStates_.emplace(id, ConnState{});
}

void
Frontend::onDisconnect(EventLoop::ConnId id)
{
    std::lock_guard<std::mutex> lock(connMutex_);
    connStates_.erase(id);
}

void
Frontend::onOversize(EventLoop::ConnId id)
{
    loop_->sendAndClose(
        id, writeJson(makeErrorResponse(
                "", kCodeBadRequest, "bad-request",
                "request line exceeds the size limit")) +
                "\n");
}

void
Frontend::onLine(EventLoop::ConnId id, std::string &&line)
{
    bool dispatch = false;
    bool pause = false;
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        const auto it = connStates_.find(id);
        if (it == connStates_.end())
            return;
        ConnState &state = it->second;
        if (state.busy) {
            // Strict per-connection ordering: one request inflight
            // at a time, the rest wait their turn here.
            state.pending.push_back(std::move(line));
            if (!state.paused &&
                state.pending.size() >= kMaxPendingLines) {
                state.paused = true;
                pause = true;
            }
        } else {
            state.busy = true;
            dispatch = true;
        }
    }
    if (pause)
        loop_->pauseReads(id);
    if (dispatch)
        submitLine(id, std::move(line));
}

void
Frontend::submitLine(EventLoop::ConnId id, std::string line)
{
    pipeline_->submit([this, id, captured = std::move(line)]() mutable {
        processLine(id, std::move(captured));
    });
}

void
Frontend::processLine(EventLoop::ConnId id, std::string line)
{
    {
        std::lock_guard<std::mutex> stats(statsMutex_);
        ++counters_.received;
    }
    std::shared_ptr<Request> request;
    try {
        const JsonValue root = parseJson(line);
        request = std::make_shared<Request>(parseRequest(root));
    } catch (const Error &e) {
        respond(id,
                makeErrorResponse(extractId(line), kCodeBadRequest,
                                  "bad-request", e.what()),
                false);
        return;
    } catch (const std::exception &e) {
        respond(id,
                makeErrorResponse(extractId(line), kCodeInternal,
                                  "internal", e.what()),
                false);
        return;
    }

    if (request->type == RequestType::Map ||
        request->type == RequestType::Net) {
        dispatchSearch(id, std::move(request), std::move(line));
        return;
    }

    bool shutdownAfterSend = false;
    JsonValue response;
    try {
        response = handleQuick(*request, shutdownAfterSend);
    } catch (const std::exception &e) {
        response = makeErrorResponse(request->id, kCodeInternal,
                                     "internal", e.what());
    }
    respond(id, response, shutdownAfterSend);
}

// ---------------------------------------------------------------------------
// Cache, single-flight and admission

void
Frontend::dispatchSearch(EventLoop::ConnId id,
                         std::shared_ptr<Request> request,
                         std::string line)
{
    std::string key;
    if (responseCache_ != nullptr)
        key = responseCacheKey(*request);
    if (!key.empty()) {
        std::string cached;
        if (responseCache_->lookup(key, cached)) {
            // Replay: the cached line is a full response to an
            // identical request; only the id needs this requester's.
            // The latency histogram and the tier's own counters are
            // deliberately not touched — they keep meaning "requests
            // actually searched or forwarded".
            respond(id,
                    restampResponseId(parseJson(cached), request->id),
                    false);
            return;
        }
    }
    auto frame = std::make_shared<std::string>(std::move(line));
    if (!key.empty()) {
        // Single-flight: attach to a running identical request, or
        // become its leader. Followers hold no admission slot — the
        // leader's completeFlight() answers them.
        SingleFlight::Waiter waiter;
        waiter.conn = id;
        waiter.request = request;
        waiter.rawLine = frame;
        if (!singleFlight_.join(key, std::move(waiter)))
            return;
    }
    admitSearch(id, std::move(request), std::move(frame),
                std::move(key));
}

void
Frontend::admitSearch(EventLoop::ConnId id,
                      std::shared_ptr<Request> request,
                      std::shared_ptr<std::string> line,
                      std::string key)
{
    const Admission::AsyncTicket ticket = admission_.acquireAsync(
        [this, id, request, line, key](AdmissionTicket outcome) {
            if (outcome != AdmissionTicket::Admitted) {
                reject(id, *request, key, "draining",
                       tier_.shuttingDown);
                return;
            }
            // A released slot was handed to us. If the requester
            // hung up while queued, promote a follower as the new
            // leader (it inherits this slot) or return the slot
            // untouched so nothing leaks.
            bool open;
            {
                std::lock_guard<std::mutex> lock(connMutex_);
                open = connStates_.find(id) != connStates_.end();
            }
            if (!open) {
                std::optional<SingleFlight::Waiter> promoted;
                if (!key.empty())
                    promoted = singleFlight_.abandon(key);
                if (!promoted) {
                    admission_.release();
                    return;
                }
                slots_->submit([this, key, waiter = *promoted]() {
                    runSearch(waiter.conn, waiter.request,
                              waiter.rawLine, key);
                });
                return;
            }
            slots_->submit([this, id, request, line, key]() {
                runSearch(id, request, line, key);
            });
        });
    switch (ticket) {
      case Admission::AsyncTicket::Admitted:
        slots_->submit([this, id, request, line, key]() {
            runSearch(id, request, line, key);
        });
        break;
      case Admission::AsyncTicket::Saturated:
        reject(id, *request, key, "saturated", tier_.queueFull);
        break;
      case Admission::AsyncTicket::Draining:
        reject(id, *request, key, "draining", tier_.shuttingDown);
        break;
      case Admission::AsyncTicket::Queued:
        break; // the callback will continue this request
    }
}

void
Frontend::reject(EventLoop::ConnId id, const Request &request,
                 const std::string &key, const char *kind,
                 const char *message)
{
    const JsonValue error =
        makeErrorResponse(request.id, kCodeRejected, kind, message);
    respond(id, error, false);
    if (!key.empty())
        completeFlight(key, error);
}

void
Frontend::runSearch(EventLoop::ConnId id,
                    const std::shared_ptr<Request> &request,
                    const std::shared_ptr<std::string> &line,
                    const std::string &key)
{
    JsonValue response;
    try {
        response = handler_.handle(*request, *line);
    } catch (const Error &e) {
        response = makeErrorResponse(request->id, kCodeUserError,
                                     "user-error", e.what());
    } catch (const std::exception &e) {
        response = makeErrorResponse(request->id, kCodeInternal,
                                     "internal", e.what());
    } catch (...) {
        response = makeErrorResponse(request->id, kCodeInternal,
                                     "internal", "unknown error");
    }
    // Release before responding: a client that has its response in
    // hand must find the slot free for its next request. The drain
    // still flushes every response because waitForShutdown barriers
    // on slots_->waitIdle() (this job, respond() included) before
    // stopping the loop.
    admission_.release();
    if (!key.empty()) {
        // Only ok responses are cached: failures may be transient
        // (deadlines, drains) and must re-run, mirroring the layer
        // memo's replay contract. (A key exists only with a cache.)
        const JsonValue *code = response.find("code");
        if (code != nullptr && code->asI64() == kCodeOk)
            responseCache_->insert(key, writeJson(response));
    }
    respond(id, response, false);
    if (!key.empty())
        completeFlight(key, response);
}

void
Frontend::completeFlight(const std::string &key,
                         const JsonValue &response)
{
    const std::vector<SingleFlight::Waiter> waiters =
        singleFlight_.complete(key);
    for (const SingleFlight::Waiter &waiter : waiters)
        respond(waiter.conn,
                restampResponseId(response, waiter.request->id),
                false);
}

void
Frontend::respond(EventLoop::ConnId id, const JsonValue &response,
                  bool shutdownAfterSend)
{
    {
        std::lock_guard<std::mutex> stats(statsMutex_);
        const JsonValue *type = response.find("type");
        if (type != nullptr && type->string == "error")
            ++counters_.errors;
        else
            ++counters_.completed;
    }
    loop_->send(id, writeJson(response) + "\n");
    if (shutdownAfterSend)
        requestShutdown();
    dispatchNext(id);
}

void
Frontend::dispatchNext(EventLoop::ConnId id)
{
    std::string next;
    bool have = false;
    bool resume = false;
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        const auto it = connStates_.find(id);
        if (it == connStates_.end())
            return;
        ConnState &state = it->second;
        if (state.pending.empty()) {
            state.busy = false;
        } else {
            next = std::move(state.pending.front());
            state.pending.pop_front();
            have = true;
            if (state.paused &&
                state.pending.size() <= kResumePendingLines) {
                state.paused = false;
                resume = true;
            }
        }
    }
    if (resume)
        loop_->resumeReads(id);
    if (have)
        submitLine(id, std::move(next));
}

// ---------------------------------------------------------------------------
// Quick requests + gauges

JsonValue
Frontend::handleQuick(const Request &request, bool &shutdownAfterSend)
{
    switch (request.type) {
      case RequestType::Ping: {
        // A pong is a deep health report: admission pressure, drain
        // state, latency quantiles and warm-state footprint, so
        // client retry logic and router health checks need no second
        // round trip.
        JsonValue out = makeResponse("pong", request.id, kCodeOk);
        Health health;
        health.ok = true;
        const Admission::Snapshot gate = admission_.snapshot();
        health.draining = gate.draining;
        health.inflight = gate.inflight;
        health.queued = gate.queued;
        health.maxInflight = gate.maxInflight;
        health.queueCapacity = gate.queueCapacity;
        health.uptimeMs = uptimeMs();
        if (responseCache_ != nullptr) {
            const ResponseCache::Stats rc = responseCache_->stats();
            health.responseCacheEntries = rc.entries;
            health.responseCacheHitRate = hitRate(rc.hits, rc.misses);
        }
        health.coalescedInflight = singleFlight_.waiting();
        {
            std::lock_guard<std::mutex> stats(statsMutex_);
            health.requestCount = latency_.count();
            health.p50Ms = latency_.quantileMs(0.50);
            health.p99Ms = latency_.quantileMs(0.99);
        }
        handler_.addHealth(health);
        out.set("health", healthToJson(health));
        return out;
      }
      case RequestType::Stats: {
        JsonValue out = makeResponse("stats", request.id, kCodeOk);
        out.set("stats", handler_.stats());
        return out;
      }
      case RequestType::Shutdown:
        // The ack is queued for write first, then the drain begins
        // (see respond), so the requester always hears back. A
        // router drains itself only: its backends keep serving.
        shutdownAfterSend = true;
        return makeResponse("shutdown-ack", request.id, kCodeOk);
      case RequestType::Map:
      case RequestType::Net:
        break;
    }
    return makeErrorResponse(request.id, kCodeInternal, "internal",
                             "unreachable request type");
}

Frontend::Counters
Frontend::counters() const
{
    std::lock_guard<std::mutex> lock(statsMutex_);
    return counters_;
}

std::uint64_t
Frontend::uptimeMs() const
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - startTime_)
            .count());
}

JsonValue
Frontend::latencyJson() const
{
    std::lock_guard<std::mutex> lock(statsMutex_);
    return latency_.toJson();
}

void
Frontend::recordLatency(std::chrono::microseconds elapsed)
{
    std::lock_guard<std::mutex> lock(statsMutex_);
    latency_.record(elapsed);
}

JsonValue
Frontend::responseCacheJson() const
{
    // Always emitted (zeros when disabled) so fleet roll-ups and
    // gauges never need an existence check.
    JsonValue out = JsonValue::makeObject();
    out.set("enabled", JsonValue::makeBool(responseCache_ != nullptr));
    ResponseCache::Stats rc;
    if (responseCache_ != nullptr)
        rc = responseCache_->stats();
    out.set("hits", JsonValue::makeU64(rc.hits));
    out.set("misses", JsonValue::makeU64(rc.misses));
    out.set("evictions", JsonValue::makeU64(rc.evictions));
    out.set("entries", JsonValue::makeU64(rc.entries));
    out.set("capacity",
            JsonValue::makeU64(responseCache_ != nullptr
                                   ? responseCache_->capacity()
                                   : 0));
    out.set("hitRate", JsonValue::makeDouble(hitRate(rc.hits, rc.misses)));
    out.set("coalesced", JsonValue::makeU64(singleFlight_.coalesced()));
    out.set("coalescedWaiting",
            JsonValue::makeU64(singleFlight_.waiting()));
    out.set("flights", JsonValue::makeU64(singleFlight_.flights()));
    return out;
}

void
Frontend::log(const std::string &message) const
{
    if (options_.logLifecycle)
        std::cerr << tier_.logName << ": " << message << std::endl;
}

} // namespace serve
} // namespace ruby
