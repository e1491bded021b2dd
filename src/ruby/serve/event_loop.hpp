/**
 * @file
 * Edge-triggered epoll reactor for ruby-served.
 *
 * One thread owns every socket: it accepts connections from a
 * listening descriptor, reassembles NDJSON frames out of per-connection
 * read buffers, and flushes per-connection write buffers — all
 * non-blocking, so ten thousand idle clients cost two file descriptors
 * each and zero threads. Work that might block (parsing, dispatch,
 * search) happens elsewhere: callbacks fire on the reactor thread and
 * must hand off promptly, and other threads inject effects (queue a
 * response, pause a connection, stop the loop) through a mutex-guarded
 * command queue drained via a self-pipe wakeup.
 *
 * The loop never calls back into itself: every public mutator posts a
 * command, so the API is safe from any thread, including from inside a
 * callback on the reactor thread itself.
 */

#ifndef RUBY_SERVE_EVENT_LOOP_HPP
#define RUBY_SERVE_EVENT_LOOP_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace ruby
{
namespace serve
{

/** Non-blocking accept/read/write reactor over epoll. */
class EventLoop
{
  public:
    /** Opaque per-connection handle; never reused within a loop. */
    using ConnId = std::uint64_t;

    /** Reactor-thread callbacks. Keep them quick: while one runs, no
     *  other socket makes progress. */
    struct Callbacks
    {
        /** A connection was accepted. */
        std::function<void(ConnId)> onConnect;
        /** One complete line arrived (newline stripped, CR trimmed,
         *  never empty). */
        std::function<void(ConnId, std::string &&line)> onLine;
        /** The partial-line buffer exceeded maxLineBytes. Reads stop;
         *  respond and close (typically sendAndClose). */
        std::function<void(ConnId, std::size_t bufferedBytes)>
            onOversize;
        /** The connection is gone (peer closed, error, or a close
         *  requested through the API). The id is dead afterwards;
         *  sends to it are silently dropped. */
        std::function<void(ConnId)> onDisconnect;
    };

    /**
     * @param listenFd     Bound + listening socket. The loop accepts
     *                     from it but does not close it.
     * @param maxLineBytes Partial-line cap before onOversize fires.
     * @param callbacks    Event handlers (reactor thread).
     */
    EventLoop(int listenFd, std::size_t maxLineBytes,
              Callbacks callbacks);
    ~EventLoop();

    EventLoop(const EventLoop &) = delete;
    EventLoop &operator=(const EventLoop &) = delete;

    /** Run the reactor on the calling thread until stop(). */
    void run();

    // -- thread-safe mutators (each posts a command) --------------------

    /** Run @p fn on the reactor thread (FIFO with other commands). */
    void post(std::function<void()> fn);

    /** Queue bytes for @p id (write-behind; flushed as the socket
     *  drains). Dropped silently when the connection is gone. */
    void send(ConnId id, std::string data);

    /** Queue bytes, then close once the buffer has flushed. */
    void sendAndClose(ConnId id, std::string data);

    /** Close @p id now, discarding any unflushed output. */
    void closeConnection(ConnId id);

    /** Stop reading from @p id (kernel buffering backpressures the
     *  peer). Already-buffered complete lines were delivered. */
    void pauseReads(ConnId id);

    /** Resume reading after pauseReads(). */
    void resumeReads(ConnId id);

    /** Stop accepting new connections (existing ones live on). */
    void stopAccepting();

    /** shutdown(SHUT_RD) every connection: no further requests, but
     *  write sides stay open so queued responses still flush. */
    void shutdownReads();

    /**
     * Stop the loop: drain the command queue, spend up to
     * @p flushBudget flushing pending write buffers, close every
     * connection, and return from run().
     */
    void stop(std::chrono::milliseconds flushBudget =
                  std::chrono::milliseconds{1000});

    /** Open connections right now (any thread). */
    std::size_t connectionCount() const
    {
        return connectionCount_.load(std::memory_order_relaxed);
    }

  private:
    struct Conn
    {
        int fd = -1;
        ConnId id = 0;
        std::string readBuf;
        std::string writeBuf;
        std::size_t writeOff = 0;
        bool paused = false;       ///< EPOLLIN disarmed by pauseReads
        bool readReady = false;    ///< edge fired while paused
        bool wantWrite = false;    ///< EPOLLOUT armed
        bool oversized = false;    ///< line cap tripped; discard input
        bool peerEof = false;      ///< recv saw EOF
        bool closeAfterFlush = false;
    };

    void drainCommands();
    void handleAccept();
    void handleConn(ConnId id, std::uint32_t events);
    void readPass(Conn &conn);
    void writePass(Conn &conn);
    void deliverLines(Conn &conn);
    void updateInterest(Conn &conn);
    void destroyConn(ConnId id, bool notify);
    void flushAllAndClose();
    Conn *find(ConnId id);

    int listenFd_;
    /** Accepted connections are TCP (they get TCP_NODELAY). */
    bool tcpListener_ = false;
    std::size_t maxLineBytes_;
    Callbacks callbacks_;

    int epollFd_ = -1;
    int wakeupR_ = -1;
    int wakeupW_ = -1;

    // Reactor-thread state (no locking).
    std::map<ConnId, std::unique_ptr<Conn>> conns_;
    ConnId nextId_ = 1;
    bool accepting_ = true;
    bool stopping_ = false;
    std::chrono::milliseconds flushBudget_{1000};

    std::atomic<std::size_t> connectionCount_{0};

    std::mutex cmdMutex_;
    std::deque<std::function<void()>> commands_;
};

} // namespace serve
} // namespace ruby

#endif // RUBY_SERVE_EVENT_LOOP_HPP
