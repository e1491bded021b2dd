#include "ruby/serve/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>
#include <utility>

#include "ruby/common/error.hpp"
#include "ruby/common/rng.hpp"

namespace ruby
{
namespace serve
{

namespace
{

/** Backoff before attempt @p attempt (0-based): capped exponential
 *  with deterministic jitter in [0.5, 1.0) of the nominal delay. */
std::chrono::milliseconds
backoffDelay(const RetryPolicy &policy, int attempt, Rng &rng)
{
    double nominal = static_cast<double>(policy.baseDelay.count());
    for (int i = 0; i < attempt; ++i) {
        nominal *= 2.0;
        if (nominal >=
            static_cast<double>(policy.maxDelay.count()))
            break;
    }
    nominal = std::min(
        nominal, static_cast<double>(policy.maxDelay.count()));
    const double jitter = 0.5 + 0.5 * rng.uniform();
    return std::chrono::milliseconds(
        static_cast<std::int64_t>(nominal * jitter));
}

/** True when the response is a code-7 rejection of the given kind. */
bool
isRejection(const JsonValue &response, const char *kind)
{
    return response.getU64("code", 0) == kCodeRejected &&
           response.getString("kind", "") == kind;
}

} // namespace

Client
Client::connectUnix(const std::string &path)
{
    Endpoint endpoint;
    endpoint.unixPath = path;
    return connect(endpoint);
}

Client
Client::connectTcp(const std::string &host, int port)
{
    Endpoint endpoint;
    endpoint.host = host;
    endpoint.port = port;
    return connect(endpoint);
}

Client
Client::connect(const Endpoint &endpoint)
{
    const std::string address = endpoint.describe();
    int fd = -1;
    if (!endpoint.unixPath.empty()) {
        fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            throw ConnectError(address,
                               std::string("client: socket(): ") +
                                   std::strerror(errno));
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (endpoint.unixPath.size() >= sizeof(addr.sun_path)) {
            ::close(fd);
            throw ConnectError(address,
                               "client: socket path too long: " +
                                   endpoint.unixPath);
        }
        std::strncpy(addr.sun_path, endpoint.unixPath.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            const int err = errno;
            ::close(fd);
            throw ConnectError(address,
                               "client: cannot connect to " +
                                   address + ": " +
                                   std::strerror(err));
        }
    } else {
        fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0)
            throw ConnectError(address,
                               std::string("client: socket(): ") +
                                   std::strerror(errno));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port =
            htons(static_cast<std::uint16_t>(endpoint.port));
        if (::inet_pton(AF_INET, endpoint.host.c_str(),
                        &addr.sin_addr) != 1) {
            ::close(fd);
            throw ConnectError(address, "client: invalid address " +
                                            endpoint.host);
        }
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            const int err = errno;
            ::close(fd);
            throw ConnectError(address,
                               "client: cannot connect to " +
                                   address + ": " +
                                   std::strerror(err));
        }
        // Requests are whole lines written at once: no Nagle delay.
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    Client client(fd);
    client.endpoint_ = endpoint;
    return client;
}

Client
Client::connectWithRetry(const Endpoint &endpoint,
                         const RetryPolicy &policy)
{
    Rng rng(policy.jitterSeed);
    const auto deadline =
        std::chrono::steady_clock::now() + policy.budget;
    const bool hasDeadline = policy.budget.count() > 0;
    const int attempts = policy.attempts > 0 ? policy.attempts : 1;
    for (int attempt = 0;; ++attempt) {
        try {
            return connect(endpoint);
        } catch (const ConnectError &) {
            if (attempt + 1 >= attempts)
                throw;
            const auto delay = backoffDelay(policy, attempt, rng);
            if (hasDeadline &&
                std::chrono::steady_clock::now() + delay >= deadline)
                throw;
            std::this_thread::sleep_for(delay);
        }
    }
}

Client::Client(Client &&other) noexcept
    : fd_(other.fd_), inbuf_(std::move(other.inbuf_)),
      endpoint_(std::move(other.endpoint_))
{
    other.fd_ = -1;
}

Client &
Client::operator=(Client &&other) noexcept
{
    if (this != &other) {
        close();
        fd_ = other.fd_;
        inbuf_ = std::move(other.inbuf_);
        endpoint_ = std::move(other.endpoint_);
        other.fd_ = -1;
    }
    return *this;
}

Client::~Client() { close(); }

void
Client::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

JsonValue
Client::call(const JsonValue &request)
{
    return parseJson(callRaw(writeJson(request)));
}

JsonValue
Client::callWithRetry(const JsonValue &request,
                      const RetryPolicy &policy)
{
    Rng rng(policy.jitterSeed + 1); // decorrelate from connect jitter
    const auto deadline =
        std::chrono::steady_clock::now() + policy.budget;
    const bool hasDeadline = policy.budget.count() > 0;
    const int attempts = policy.attempts > 0 ? policy.attempts : 1;
    for (int attempt = 0;; ++attempt) {
        const bool lastAttempt = attempt + 1 >= attempts;
        bool retryable = false;
        try {
            // Reconnect if a previous attempt lost the socket.
            if (fd_ < 0) {
                const bool dialable = !endpoint_.unixPath.empty() ||
                                      endpoint_.port > 0;
                RUBY_CHECK(dialable,
                           "client: connection is closed and no "
                           "endpoint is known to re-dial");
                *this = connect(endpoint_);
            }
            const JsonValue response = call(request);
            if (!isRejection(response, "saturated"))
                return response; // success, error, or "draining"
            if (lastAttempt)
                return response; // surface the final rejection
            retryable = true;
        } catch (const ConnectError &) {
            if (lastAttempt)
                throw;
            retryable = true;
        } catch (const Error &) {
            // Connection dropped mid-call (daemon restarted?):
            // close and re-dial on the next attempt.
            close();
            if (lastAttempt)
                throw;
            retryable = true;
        }
        if (retryable) {
            const auto delay = backoffDelay(policy, attempt, rng);
            if (hasDeadline &&
                std::chrono::steady_clock::now() + delay >= deadline)
                RUBY_FATAL("client: retry budget exhausted after ",
                           attempt + 1, " attempt(s) against ",
                           endpoint_.describe());
            std::this_thread::sleep_for(delay);
        }
    }
}

Health
Client::ping()
{
    JsonValue request = JsonValue::makeObject();
    request.set("v", JsonValue::makeI64(kProtocolVersion));
    request.set("type", JsonValue::makeString("ping"));
    request.set("id", JsonValue::makeString("health"));
    const JsonValue response = call(request);
    Health health;
    health.ok = response.getU64("code", kCodeInternal) == kCodeOk;
    if (const JsonValue *payload = response.find("health")) {
        const bool ok = health.ok;
        health = healthFromJson(*payload);
        health.ok = ok && health.ok;
    }
    return health;
}

std::string
Client::callRaw(const std::string &line)
{
    RUBY_CHECK(fd_ >= 0, "client: connection is closed");
    const std::string framed = line + "\n";
    std::size_t off = 0;
    while (off < framed.size()) {
        const ssize_t n =
            ::send(fd_, framed.data() + off, framed.size() - off,
                   MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            RUBY_FATAL("client: send(): ", std::strerror(errno));
        }
        off += static_cast<std::size_t>(n);
    }

    char chunk[4096];
    for (;;) {
        const std::size_t nl = inbuf_.find('\n');
        if (nl != std::string::npos) {
            std::string reply = inbuf_.substr(0, nl);
            inbuf_.erase(0, nl + 1);
            if (!reply.empty() && reply.back() == '\r')
                reply.pop_back();
            return reply;
        }
        const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n < 0 && errno == EINTR)
            continue;
        RUBY_CHECK(n > 0,
                   "client: connection closed before a response");
        inbuf_.append(chunk, static_cast<std::size_t>(n));
    }
}

} // namespace serve
} // namespace ruby
