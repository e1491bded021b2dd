#include "ruby/serve/event_loop.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <vector>

#include "ruby/common/error.hpp"

namespace ruby
{
namespace serve
{

namespace
{

/** Sentinel epoll tags for the two non-connection descriptors. */
constexpr std::uint64_t kTagListener = 0;
constexpr std::uint64_t kTagWakeup = 1;
/** Connection ids start above the sentinels. */
constexpr std::uint64_t kFirstConnId = 2;

void
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    RUBY_CHECK(flags >= 0 &&
                   ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
               "event loop: cannot make fd non-blocking: ",
               std::strerror(errno));
}

} // namespace

EventLoop::EventLoop(int listenFd, std::size_t maxLineBytes,
                     Callbacks callbacks)
    : listenFd_(listenFd), maxLineBytes_(maxLineBytes),
      callbacks_(std::move(callbacks)),
      nextId_(kFirstConnId)
{
    epollFd_ = ::epoll_create1(EPOLL_CLOEXEC);
    RUBY_CHECK(epollFd_ >= 0, "event loop: epoll_create1(): ",
               std::strerror(errno));

    int pipeFds[2] = {-1, -1};
    RUBY_CHECK(::pipe(pipeFds) == 0, "event loop: pipe(): ",
               std::strerror(errno));
    wakeupR_ = pipeFds[0];
    wakeupW_ = pipeFds[1];
    setNonBlocking(wakeupR_);
    setNonBlocking(wakeupW_);

    setNonBlocking(listenFd_);
    int domain = 0;
    socklen_t domainLen = sizeof(domain);
    tcpListener_ = ::getsockopt(listenFd_, SOL_SOCKET, SO_DOMAIN,
                                &domain, &domainLen) == 0 &&
                   (domain == AF_INET || domain == AF_INET6);

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kTagListener;
    RUBY_CHECK(::epoll_ctl(epollFd_, EPOLL_CTL_ADD, listenFd_,
                           &ev) == 0,
               "event loop: cannot watch the listener: ",
               std::strerror(errno));
    ev.events = EPOLLIN;
    ev.data.u64 = kTagWakeup;
    RUBY_CHECK(::epoll_ctl(epollFd_, EPOLL_CTL_ADD, wakeupR_,
                           &ev) == 0,
               "event loop: cannot watch the wakeup pipe: ",
               std::strerror(errno));
}

EventLoop::~EventLoop()
{
    for (auto &entry : conns_)
        ::close(entry.second->fd);
    conns_.clear();
    if (epollFd_ >= 0)
        ::close(epollFd_);
    if (wakeupR_ >= 0)
        ::close(wakeupR_);
    if (wakeupW_ >= 0)
        ::close(wakeupW_);
}

void
EventLoop::run()
{
    std::vector<epoll_event> events(64);
    for (;;) {
        const int n = ::epoll_wait(epollFd_, events.data(),
                                   static_cast<int>(events.size()),
                                   -1);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            RUBY_CHECK(false, "event loop: epoll_wait(): ",
                       std::strerror(errno));
        }
        for (int i = 0; i < n; ++i) {
            const std::uint64_t tag = events[static_cast<std::size_t>(
                                                 i)]
                                          .data.u64;
            const std::uint32_t mask =
                events[static_cast<std::size_t>(i)].events;
            if (tag == kTagListener) {
                if (accepting_)
                    handleAccept();
            } else if (tag == kTagWakeup) {
                // Drain the pipe; the commands themselves are run
                // below so same-iteration events see their effects.
                char buf[256];
                while (::read(wakeupR_, buf, sizeof(buf)) > 0) {
                }
            } else {
                handleConn(tag, mask);
            }
        }
        drainCommands();
        if (stopping_) {
            flushAllAndClose();
            return;
        }
    }
}

void
EventLoop::drainCommands()
{
    // Commands posted by commands (e.g. a callback inside one posts
    // another) run in the same drain — loop until the queue is empty.
    for (;;) {
        std::deque<std::function<void()>> batch;
        {
            std::lock_guard<std::mutex> lock(cmdMutex_);
            if (commands_.empty())
                return;
            batch.swap(commands_);
        }
        for (std::function<void()> &command : batch)
            command();
    }
}

void
EventLoop::post(std::function<void()> fn)
{
    {
        std::lock_guard<std::mutex> lock(cmdMutex_);
        commands_.push_back(std::move(fn));
    }
    const char byte = 'w';
    // A full pipe is fine: one pending byte already wakes the loop.
    [[maybe_unused]] const auto rc = ::write(wakeupW_, &byte, 1);
}

void
EventLoop::send(ConnId id, std::string data)
{
    post([this, id, data = std::move(data)]() mutable {
        Conn *conn = find(id);
        if (conn == nullptr)
            return;
        conn->writeBuf.append(data);
        writePass(*conn);
    });
}

void
EventLoop::sendAndClose(ConnId id, std::string data)
{
    post([this, id, data = std::move(data)]() mutable {
        Conn *conn = find(id);
        if (conn == nullptr)
            return;
        conn->writeBuf.append(data);
        conn->closeAfterFlush = true;
        writePass(*conn);
    });
}

void
EventLoop::closeConnection(ConnId id)
{
    post([this, id]() {
        if (find(id) != nullptr)
            destroyConn(id, true);
    });
}

void
EventLoop::pauseReads(ConnId id)
{
    post([this, id]() {
        Conn *conn = find(id);
        if (conn == nullptr || conn->paused)
            return;
        conn->paused = true;
        updateInterest(*conn);
    });
}

void
EventLoop::resumeReads(ConnId id)
{
    post([this, id]() {
        Conn *conn = find(id);
        if (conn == nullptr || !conn->paused)
            return;
        conn->paused = false;
        updateInterest(*conn);
        // The edge may have fired while paused: read what is already
        // buffered in the kernel, or the connection would stall.
        if (conn->readReady) {
            conn->readReady = false;
            readPass(*conn);
        }
    });
}

void
EventLoop::stopAccepting()
{
    post([this]() {
        if (!accepting_)
            return;
        accepting_ = false;
        ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, listenFd_, nullptr);
    });
}

void
EventLoop::shutdownReads()
{
    post([this]() {
        for (auto &entry : conns_)
            ::shutdown(entry.second->fd, SHUT_RD);
    });
}

void
EventLoop::stop(std::chrono::milliseconds flushBudget)
{
    post([this, flushBudget]() {
        stopping_ = true;
        flushBudget_ = flushBudget;
    });
}

EventLoop::Conn *
EventLoop::find(ConnId id)
{
    const auto it = conns_.find(id);
    return it == conns_.end() ? nullptr : it->second.get();
}

void
EventLoop::handleAccept()
{
    for (;;) {
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // EAGAIN (drained) or a transient accept error
        }
        setNonBlocking(fd);
        if (tcpListener_) {
            // Replies are whole lines written at once: send them now
            // rather than wait for the peer's delayed ACK (Nagle).
            const int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                         sizeof(one));
        }
        auto conn = std::make_unique<Conn>();
        conn->fd = fd;
        conn->id = nextId_++;
        epoll_event ev{};
        ev.events = EPOLLIN | EPOLLRDHUP | EPOLLET;
        ev.data.u64 = conn->id;
        if (::epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
            ::close(fd);
            continue;
        }
        const ConnId id = conn->id;
        conns_.emplace(id, std::move(conn));
        connectionCount_.fetch_add(1, std::memory_order_relaxed);
        if (callbacks_.onConnect)
            callbacks_.onConnect(id);
    }
}

void
EventLoop::handleConn(ConnId id, std::uint32_t events)
{
    Conn *conn = find(id);
    if (conn == nullptr)
        return; // closed earlier this iteration
    if ((events & EPOLLERR) != 0) {
        destroyConn(id, true);
        return;
    }
    if ((events & EPOLLOUT) != 0) {
        writePass(*conn);
        conn = find(id); // writePass may destroy on flush/error
        if (conn == nullptr)
            return;
    }
    if ((events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP)) != 0) {
        if (conn->paused)
            conn->readReady = true;
        else
            readPass(*conn);
    }
}

void
EventLoop::readPass(Conn &conn)
{
    const ConnId id = conn.id;
    char chunk[4096];
    for (;;) {
        const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
        if (n > 0) {
            if (!conn.oversized)
                conn.readBuf.append(chunk,
                                    static_cast<std::size_t>(n));
            continue;
        }
        if (n == 0) {
            conn.peerEof = true;
            break;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        destroyConn(conn.id, true);
        return;
    }
    deliverLines(conn);
    Conn *alive = find(id);
    if (alive == nullptr)
        return; // a callback closed the connection
    if (alive->peerEof) {
        // Any partial line at EOF is discarded (protocol: a request
        // is not a request until its newline arrives). Keep the
        // connection only to flush queued responses.
        alive->readBuf.clear();
        if (alive->writeBuf.size() == alive->writeOff)
            destroyConn(id, true);
        else
            alive->closeAfterFlush = true;
    }
}

void
EventLoop::deliverLines(Conn &conn)
{
    const ConnId id = conn.id;
    std::size_t nl;
    while (!conn.oversized &&
           (nl = conn.readBuf.find('\n')) != std::string::npos) {
        std::string line = conn.readBuf.substr(0, nl);
        conn.readBuf.erase(0, nl + 1);
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty())
            continue;
        if (callbacks_.onLine)
            callbacks_.onLine(id, std::move(line));
        if (find(id) == nullptr)
            return; // the callback closed us
    }
    if (!conn.oversized && conn.readBuf.size() > maxLineBytes_) {
        conn.oversized = true;
        conn.readBuf.clear();
        conn.readBuf.shrink_to_fit();
        if (callbacks_.onOversize)
            callbacks_.onOversize(id, maxLineBytes_);
    }
}

void
EventLoop::writePass(Conn &conn)
{
    while (conn.writeOff < conn.writeBuf.size()) {
        const ssize_t n =
            ::send(conn.fd, conn.writeBuf.data() + conn.writeOff,
                   conn.writeBuf.size() - conn.writeOff,
                   MSG_NOSIGNAL);
        if (n >= 0) {
            conn.writeOff += static_cast<std::size_t>(n);
            continue;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            if (!conn.wantWrite) {
                conn.wantWrite = true;
                updateInterest(conn);
            }
            return;
        }
        destroyConn(conn.id, true);
        return;
    }
    conn.writeBuf.clear();
    conn.writeOff = 0;
    if (conn.wantWrite) {
        conn.wantWrite = false;
        updateInterest(conn);
    }
    if (conn.closeAfterFlush)
        destroyConn(conn.id, true);
}

void
EventLoop::updateInterest(Conn &conn)
{
    epoll_event ev{};
    ev.events = EPOLLRDHUP | EPOLLET;
    if (!conn.paused)
        ev.events |= EPOLLIN;
    if (conn.wantWrite)
        ev.events |= EPOLLOUT;
    ev.data.u64 = conn.id;
    ::epoll_ctl(epollFd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void
EventLoop::destroyConn(ConnId id, bool notify)
{
    const auto it = conns_.find(id);
    if (it == conns_.end())
        return;
    const int fd = it->second->fd;
    ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    conns_.erase(it);
    connectionCount_.fetch_sub(1, std::memory_order_relaxed);
    if (notify && callbacks_.onDisconnect)
        callbacks_.onDisconnect(id);
}

void
EventLoop::flushAllAndClose()
{
    // Best-effort flush of queued responses within the budget; a
    // stuck peer cannot wedge shutdown.
    const auto deadline =
        std::chrono::steady_clock::now() + flushBudget_;
    for (auto &entry : conns_) {
        Conn &conn = *entry.second;
        while (conn.writeOff < conn.writeBuf.size()) {
            const ssize_t n = ::send(
                conn.fd, conn.writeBuf.data() + conn.writeOff,
                conn.writeBuf.size() - conn.writeOff, MSG_NOSIGNAL);
            if (n > 0) {
                conn.writeOff += static_cast<std::size_t>(n);
                continue;
            }
            if (n < 0 && errno == EINTR)
                continue;
            if (n < 0 &&
                (errno == EAGAIN || errno == EWOULDBLOCK)) {
                const auto now = std::chrono::steady_clock::now();
                if (now >= deadline)
                    break;
                pollfd pfd{};
                pfd.fd = conn.fd;
                pfd.events = POLLOUT;
                const auto waitMs =
                    std::chrono::duration_cast<
                        std::chrono::milliseconds>(deadline - now)
                        .count();
                if (::poll(&pfd, 1,
                           static_cast<int>(waitMs)) <= 0)
                    break;
                continue;
            }
            break; // peer gone
        }
        ::close(conn.fd);
    }
    conns_.clear();
    connectionCount_.store(0, std::memory_order_relaxed);
}

} // namespace serve
} // namespace ruby
