#include "ruby/common/thread_pool.hpp"

#include <thread>
#include <utility>
#include <vector>

#include "ruby/common/error.hpp"

namespace ruby
{

namespace
{

/**
 * RAII idle accounting: guarantees the active-job count drops and the
 * idle barrier is notified even when the job throws.
 */
class ActiveGuard
{
  public:
    ActiveGuard(std::mutex &mutex, std::condition_variable &idle,
                const std::deque<std::function<void()>> &queue,
                unsigned &active)
        : mutex_(mutex), idle_(idle), queue_(queue), active_(active)
    {
    }

    ~ActiveGuard()
    {
        std::unique_lock lock(mutex_);
        --active_;
        if (queue_.empty() && active_ == 0)
            idle_.notify_all();
    }

  private:
    std::mutex &mutex_;
    std::condition_variable &idle_;
    const std::deque<std::function<void()>> &queue_;
    unsigned &active_;
};

/**
 * The process-wide park of idle OS threads. It is leaked on purpose:
 * parked threads wait on it until the process exits, so it must
 * outlive static destruction, and it owns their handles, which are
 * therefore never joined.
 */
class ThreadPark
{
  public:
    static ThreadPark &instance()
    {
        static ThreadPark *const park = new ThreadPark;
        return *park;
    }

    /**
     * Run @p job on an idle parked thread, or on a new one when none
     * is idle. Once @p job has returned its thread parks again, and
     * only then calls @p done, so whoever waits on @p done can count
     * on the thread being reusable.
     */
    void launch(std::function<void()> job, std::function<void()> done)
    {
        std::unique_lock lock(mutex_);
        if (idle_.empty()) {
            threads_.emplace_back([this, job = std::move(job),
                                   done = std::move(done)]() mutable {
                serve(std::move(job), std::move(done));
            });
            return;
        }
        Seat *seat = idle_.back();
        idle_.pop_back();
        seat->job = std::move(job);
        seat->done = std::move(done);
        lock.unlock();
        seat->wake.notify_one();
    }

  private:
    /** A parked thread's mailbox; lives on that thread's stack. */
    struct Seat
    {
        std::condition_variable wake;
        std::function<void()> job;  ///< guarded by mutex_
        std::function<void()> done; ///< guarded by mutex_
    };

    [[noreturn]] void serve(std::function<void()> job,
                            std::function<void()> done)
    {
        Seat seat;
        for (;;) {
            job();
            job = nullptr;
            {
                std::lock_guard lock(mutex_);
                idle_.push_back(&seat);
            }
            done();
            done = nullptr;
            std::unique_lock lock(mutex_);
            seat.wake.wait(lock, [&] { return seat.job != nullptr; });
            job = std::exchange(seat.job, nullptr);
            done = std::exchange(seat.done, nullptr);
        }
    }

    std::mutex mutex_;
    std::vector<std::thread> threads_; ///< every thread ever spawned
    std::vector<Seat *> idle_;         ///< parked, most recent last
};

} // namespace

ThreadPool::ThreadPool(unsigned num_threads) : size_(num_threads)
{
    RUBY_CHECK(num_threads >= 1, "thread pool needs >= 1 thread");
    loops_ = num_threads;
    for (unsigned i = 0; i < num_threads; ++i) {
        try {
            ThreadPark::instance().launch([this] { workerLoop(); },
                                          [this] { retire(); });
        } catch (...) {
            // Only the loops already launched will report back.
            {
                std::lock_guard lock(mutex_);
                loops_ = i;
            }
            stop();
            throw;
        }
    }
}

ThreadPool::~ThreadPool() { stop(); }

void
ThreadPool::stop()
{
    std::unique_lock lock(mutex_);
    stopping_ = true;
    wake_.notify_all();
    retired_.wait(lock, [this] { return loops_ == 0; });
}

void
ThreadPool::retire()
{
    std::lock_guard lock(mutex_);
    if (--loops_ == 0)
        retired_.notify_all();
}

void
ThreadPool::submit(std::function<void()> job)
{
    {
        std::unique_lock lock(mutex_);
        queue_.push_back(std::move(job));
    }
    wake_.notify_one();
}

void
ThreadPool::waitIdle()
{
    std::unique_lock lock(mutex_);
    idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
    if (error_) {
        // Hand the first failure to the caller and re-arm: with the
        // pool drained no worker touches the token concurrently.
        std::exception_ptr err = error_;
        error_ = nullptr;
        cancel_.reset();
        lock.unlock();
        std::rethrow_exception(err);
    }
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock lock(mutex_);
            wake_.wait(lock,
                       [this] { return stopping_ || !queue_.empty(); });
            if (stopping_ && queue_.empty())
                return;
            job = std::move(queue_.front());
            queue_.pop_front();
            ++active_;
        }
        ActiveGuard guard(mutex_, idle_, queue_, active_);
        // Once cancelled, drain: dequeue jobs without running them so
        // waitIdle() is reached instead of executing doomed work.
        if (cancel_.cancelled())
            continue;
        try {
            job();
        } catch (...) {
            std::unique_lock lock(mutex_);
            if (!error_)
                error_ = std::current_exception();
            cancel_.requestCancel();
        }
    }
}

} // namespace ruby
