/**
 * @file
 * A minimal fixed-size thread pool used by the search driver to run
 * independent search shards (the paper's 24-thread random search).
 *
 * Failure model: a job that throws does not take the process down.
 * The pool captures the first exception, requests cancellation on its
 * CancelToken (jobs and queued work observe it and drain), and
 * rethrows from the next waitIdle(). After waitIdle() returns or
 * throws, the pool is idle, re-armed and fully usable again.
 *
 * Threads: a pool owns no OS threads. Its worker loops run on threads
 * borrowed from a process-wide park of idle threads, which spawns one
 * only when none is idle; a destroyed pool's threads park again for
 * the next pool. Pools are therefore cheap to create per call, and a
 * job may build, use and destroy a pool of its own. The park is not
 * fork-safe: a forked child inherits its bookkeeping but none of its
 * threads.
 */

#ifndef RUBY_COMMON_THREAD_POOL_HPP
#define RUBY_COMMON_THREAD_POOL_HPP

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>

#include "ruby/common/cancel.hpp"

namespace ruby
{

/**
 * Fixed-size pool executing enqueued jobs; waitIdle() provides a
 * barrier. Destruction waits for every worker loop to return.
 */
class ThreadPool
{
  public:
    /** Start @p num_threads worker loops (>= 1) on parked threads. */
    explicit ThreadPool(unsigned num_threads);

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Waits for every worker loop to return, after which no job of
     * this pool runs and its threads are parked again. Queued jobs
     * still run first (unless cancelled); a pending captured
     * exception is discarded — call waitIdle() before destruction to
     * observe job failures. Destroying a pool from one of its own
     * jobs deadlocks and is unsupported.
     */
    ~ThreadPool();

    /** Enqueue a job for asynchronous execution. */
    void submit(std::function<void()> job);

    /**
     * Block until the queue is empty and all workers are idle. If any
     * job threw since the last waitIdle(), rethrows the first such
     * exception (after the pool has fully drained) and re-arms the
     * cancel token, leaving the pool usable.
     */
    void waitIdle();

    /**
     * The pool's cancellation token. Long-running jobs should poll
     * cancelled() and return early; the pool trips it when a job
     * throws, and callers may trip it directly (e.g. on a deadline)
     * to drain queued work without running it.
     */
    CancelToken &cancelToken() { return cancel_; }

    /** Number of worker threads. */
    unsigned size() const { return size_; }

  private:
    void workerLoop();
    /** Stop the loops and wait until all of them have returned. */
    void stop();
    /** Count one returned loop (its thread is parked again). */
    void retire();

    const unsigned size_;

    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable idle_;
    std::condition_variable retired_;
    std::deque<std::function<void()>> queue_;
    CancelToken cancel_;
    std::exception_ptr error_; ///< first job exception; guarded by mutex_
    unsigned active_ = 0;
    unsigned loops_ = 0; ///< worker loops not yet returned; guarded by mutex_
    bool stopping_ = false;
};

} // namespace ruby

#endif // RUBY_COMMON_THREAD_POOL_HPP
