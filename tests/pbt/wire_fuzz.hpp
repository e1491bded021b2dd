/**
 * @file
 * The wire fuzz loop, shared by the ctest target (fixed frame count)
 * and the standalone `ruby-pbt-fuzz` binary (wall-clock budget).
 *
 * Oracle: a live Server fed malformed frames either answers every
 * frame with well-formed JSON or closes the connection — it never
 * emits garbage, never wedges a session (a follow-up ping on the
 * same connection must be answered unless the server already hung
 * up), and after the storm the admission gate reads zero inflight
 * and zero queued (no leaked slots).
 */

#ifndef RUBY_TESTS_PBT_WIRE_FUZZ_HPP
#define RUBY_TESTS_PBT_WIRE_FUZZ_HPP

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "fuzz_frames.hpp"
#include "pbt.hpp"
#include "ruby/common/error.hpp"
#include "ruby/serve/json.hpp"
#include "ruby/serve/router.hpp"
#include "ruby/serve/server.hpp"

namespace ruby
{
namespace pbt
{

struct WireFuzzConfig
{
    std::uint64_t seed = 1;
    /** Stop after this many connections (0 = no count limit). */
    int connections = 100;
    /** Stop after this wall-clock budget (0 = no time limit). */
    int budgetMs = 0;
    /** Per-read patience before declaring a hang. Generous so
     *  sanitizer builds do not false-positive. */
    int readTimeoutMs = 10'000;
    /** Storm a router fronting a 2-backend fleet instead of a single
     *  daemon — the second oracle: malformed frames must never leak
     *  a forwarding slot or wedge the router either. */
    bool fleet = false;
};

namespace wirefuzz
{

class RawConn
{
  public:
    explicit RawConn(int port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0)
            return;
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(static_cast<std::uint16_t>(port));
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }
    ~RawConn()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    RawConn(const RawConn &) = delete;
    RawConn &operator=(const RawConn &) = delete;

    bool ok() const { return fd_ >= 0; }

    /** Best effort: the peer may have hung up already (fine). */
    void sendLine(const std::string &frame)
    {
        std::string wire = frame;
        wire += '\n';
        std::size_t sent = 0;
        while (sent < wire.size()) {
            const ssize_t n =
                ::send(fd_, wire.data() + sent, wire.size() - sent,
                       MSG_NOSIGNAL);
            if (n <= 0)
                return;
            sent += static_cast<std::size_t>(n);
        }
    }

    /** Next complete line, empty optional on EOF, error string on a
     *  hang or socket error. */
    std::optional<std::string> readLine(int timeoutMs,
                                        std::string &error)
    {
        for (;;) {
            const std::size_t nl = buf_.find('\n');
            if (nl != std::string::npos) {
                std::string line = buf_.substr(0, nl);
                buf_.erase(0, nl + 1);
                return line;
            }
            pollfd pfd{};
            pfd.fd = fd_;
            pfd.events = POLLIN;
            const int rc = ::poll(&pfd, 1, timeoutMs);
            if (rc == 0) {
                error = "timed out waiting for a response line";
                return std::nullopt;
            }
            if (rc < 0) {
                if (errno == EINTR)
                    continue;
                error = "poll failed";
                return std::nullopt;
            }
            char chunk[4096];
            const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n == 0)
                return std::nullopt; // clean EOF
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                // Peer reset after rejecting the frame: treat like
                // a close, the oracle only forbids hangs and garbage.
                return std::nullopt;
            }
            buf_.append(chunk, static_cast<std::size_t>(n));
        }
    }

  private:
    int fd_ = -1;
    std::string buf_;
};

} // namespace wirefuzz

/**
 * Run the fuzz storm against a fresh in-process server. Returns
 * std::nullopt on survival or a failure description (always
 * including the connection's case seed for replay).
 */
inline std::optional<std::string>
runWireFuzz(const WireFuzzConfig &config)
{
    serve::ServeOptions opts;
    opts.host = "127.0.0.1";
    opts.port = 0;
    opts.maxInflight = 2;
    opts.queueCapacity = 4;
    opts.maxLineBytes = 4096; // small cap so the overlong mutator hits
    opts.drainBudget = std::chrono::milliseconds(2'000);
    opts.logLifecycle = false;
    serve::Server server(opts);
    server.start();

    // Fleet mode: a second backend plus a router in front; the storm
    // then targets the router's port, exercising parse/forward/fan-in
    // against the same oracle.
    std::unique_ptr<serve::Server> backend2;
    std::unique_ptr<serve::Router> router;
    int stormPort = server.port();
    if (config.fleet) {
        backend2 = std::make_unique<serve::Server>(opts);
        backend2->start();
        serve::RouterOptions ropts;
        ropts.host = "127.0.0.1";
        ropts.port = 0;
        ropts.maxForwards = 4;
        ropts.queueCapacity = 8;
        ropts.maxLineBytes = 4096;
        ropts.drainBudget = std::chrono::milliseconds(2'000);
        ropts.logLifecycle = false;
        serve::Endpoint b1;
        b1.host = "127.0.0.1";
        b1.port = server.port();
        serve::Endpoint b2;
        b2.host = "127.0.0.1";
        b2.port = backend2->port();
        ropts.backends = {b1, b2};
        router = std::make_unique<serve::Router>(std::move(ropts));
        router->start();
        stormPort = router->port();
    }

    const auto startedAt = std::chrono::steady_clock::now();
    const auto elapsedMs = [&]() {
        return std::chrono::duration_cast<std::chrono::milliseconds>(
                   std::chrono::steady_clock::now() - startedAt)
            .count();
    };

    std::optional<std::string> failure;
    for (int i = 0;; ++i) {
        if (config.connections > 0 && i >= config.connections)
            break;
        if (config.budgetMs > 0 && elapsedMs() >= config.budgetMs)
            break;

        const std::uint64_t caseSeed =
            scramble(config.seed + static_cast<std::uint64_t>(i));
        Rng rng(caseSeed);
        const auto describe = [&](const std::string &what,
                                  const std::string &frame) {
            std::ostringstream os;
            os << what << " (connection " << i << ", case seed "
               << caseSeed << ")\n  frame: "
               << frame.substr(0, 200)
               << (frame.size() > 200 ? "..." : "");
            return os.str();
        };

        wirefuzz::RawConn conn(stormPort);
        if (!conn.ok()) {
            failure = describe("could not connect to the server", "");
            break;
        }

        const int frames = static_cast<int>(rng.between(1, 3));
        std::string lastFrame;
        for (int f = 0; f < frames; ++f) {
            const std::string seedFrame = genFuzzSeedFrame(rng);
            const std::string other = genFuzzSeedFrame(rng);
            lastFrame =
                mutateFrame(rng, seedFrame, other, opts.maxLineBytes);
            conn.sendLine(lastFrame);
        }
        // Liveness probe: the session must either answer this ping
        // or have closed; it must never sit silent.
        const std::string probeId =
            "probe-" + std::to_string(caseSeed);
        conn.sendLine("{\"v\":1,\"type\":\"ping\",\"id\":\"" +
                      probeId + "\"}");

        bool sawProbe = false;
        bool closed = false;
        while (!sawProbe && !closed) {
            std::string error;
            const std::optional<std::string> line =
                conn.readLine(config.readTimeoutMs, error);
            if (!line) {
                if (!error.empty()) {
                    failure = describe("session hung: " + error,
                                       lastFrame);
                }
                closed = true;
                break;
            }
            serve::JsonValue parsed;
            try {
                parsed = serve::parseJson(*line);
            } catch (const Error &e) {
                failure = describe(
                    "server emitted non-JSON bytes: " +
                        std::string(e.what()),
                    lastFrame);
                closed = true;
                break;
            }
            if (parsed.type != serve::JsonType::Object ||
                parsed.find("type") == nullptr) {
                failure = describe(
                    "server response is not a typed envelope: " +
                        *line,
                    lastFrame);
                closed = true;
                break;
            }
            const serve::JsonValue *id = parsed.find("id");
            if (id != nullptr &&
                id->type == serve::JsonType::String &&
                id->string == probeId)
                sawProbe = true;
        }
        if (failure)
            break;
    }

    // No leaked admission slots: once the storm subsides every slot
    // must return to the gate (sessions may still be finishing an
    // accidentally-valid search, so poll briefly).
    if (!failure) {
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(10);
        for (;;) {
            const serve::JsonValue stats =
                router != nullptr ? router->fleetStatsJson()
                                  : server.statsJson();
            const serve::JsonValue &requests =
                router != nullptr ? stats.at("router")
                                  : stats.at("requests");
            const std::uint64_t inflight =
                requests.at("inflight").asU64();
            const std::uint64_t queued =
                requests.at("queued").asU64();
            // Single-flight hygiene: no open flight and no parked
            // follower may survive the storm — a leaked follower is
            // a connection waiting forever for a response. Behind a
            // router the flights live on the backends, summed here.
            const serve::JsonValue &cache =
                router != nullptr
                    ? stats.at("fleet").at("responseCache")
                    : stats.at("responseCache");
            const std::uint64_t flights =
                cache.at("flights").asU64();
            const std::uint64_t waiting =
                cache.at("coalescedWaiting").asU64();
            if (inflight == 0 && queued == 0 && flights == 0 &&
                waiting == 0)
                break;
            if (std::chrono::steady_clock::now() >= deadline) {
                std::ostringstream os;
                os << "admission slots leaked after the storm: "
                   << "inflight=" << inflight << " queued=" << queued
                   << " flights=" << flights
                   << " coalescedWaiting=" << waiting
                   << " (base seed " << config.seed << ")";
                failure = os.str();
                break;
            }
            ::usleep(10'000);
        }
    }

    if (router != nullptr) {
        router->requestShutdown();
        router->waitForShutdown();
    }
    if (backend2 != nullptr) {
        backend2->requestShutdown();
        backend2->waitForShutdown();
    }
    server.requestShutdown();
    server.waitForShutdown();
    return failure;
}

} // namespace pbt
} // namespace ruby

#endif // RUBY_TESTS_PBT_WIRE_FUZZ_HPP
