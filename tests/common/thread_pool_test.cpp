#include "ruby/common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>

#include "../test_util.hpp"
#include "ruby/common/error.hpp"

namespace ruby
{
namespace
{

TEST(ThreadPool, RunsAllJobs)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&] { count.fetch_add(1); });
    pool.waitIdle();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleIsReusable)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.submit([&] { count.fetch_add(1); });
    pool.waitIdle();
    EXPECT_EQ(count.load(), 1);
    pool.submit([&] { count.fetch_add(1); });
    pool.waitIdle();
    EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPool, SizeReflectsWorkers)
{
    ThreadPool pool(3);
    EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, RejectsZeroThreads)
{
    EXPECT_THROW(ThreadPool(0), Error);
}

TEST(ThreadPool, DestructionJoinsCleanly)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 10; ++i)
            pool.submit([&] { count.fetch_add(1); });
        pool.waitIdle();
    }
    EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, ThrowingJobRethrownFromWaitIdle)
{
    ThreadPool pool(4);
    pool.submit([] { throw Error("boom"); });
    EXPECT_THROW(pool.waitIdle(), Error);

    // The failure was consumed: the pool is re-armed and every
    // worker is still alive and usable.
    EXPECT_FALSE(pool.cancelToken().cancelled());
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&] { count.fetch_add(1); });
    pool.waitIdle();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, FirstExceptionWinsAndMessageSurvives)
{
    ThreadPool pool(1);
    pool.submit([] { throw Error("first"); });
    pool.submit([] { throw Error("second"); });
    try {
        pool.waitIdle();
        FAIL() << "expected waitIdle to rethrow";
    } catch (const Error &e) {
        // One worker runs jobs in order; once "first" throws the
        // token cancels, so "second" is drained without running.
        EXPECT_STREQ(e.what(), "first");
    }
    pool.waitIdle(); // nothing pending; must not throw again
}

TEST(ThreadPool, FailureCancelsQueuedJobs)
{
    ThreadPool pool(1);
    std::atomic<int> ran{0};
    pool.submit([] { throw Error("boom"); });
    for (int i = 0; i < 50; ++i)
        pool.submit([&] { ran.fetch_add(1); });
    EXPECT_THROW(pool.waitIdle(), Error);
    // All queued work was drained, none of it executed.
    EXPECT_EQ(ran.load(), 0);

    // Post-failure submissions run normally again.
    pool.submit([&] { ran.fetch_add(1); });
    pool.waitIdle();
    EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPool, ExternalCancellationDrainsWithoutError)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    std::atomic<bool> release{false};
    // Two blockers occupy both workers so the queue builds up.
    for (int i = 0; i < 2; ++i)
        pool.submit([&] {
            while (!release.load())
                std::this_thread::yield();
        });
    for (int i = 0; i < 64; ++i)
        pool.submit([&] { ran.fetch_add(1); });
    pool.cancelToken().requestCancel();
    release.store(true);
    pool.waitIdle(); // no exception: cancellation is not a failure
    EXPECT_EQ(ran.load(), 0);

    pool.cancelToken().reset();
    pool.submit([&] { ran.fetch_add(1); });
    pool.waitIdle();
    EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPool, ManyThrowingJobsUnderContention)
{
    ThreadPool pool(8);
    for (int round = 0; round < 5; ++round) {
        std::atomic<int> ran{0};
        for (int i = 0; i < 200; ++i)
            pool.submit([&, i] {
                if (i % 7 == 3)
                    throw Error("unlucky");
                ran.fetch_add(1);
            });
        EXPECT_THROW(pool.waitIdle(), Error);
        EXPECT_LT(ran.load(), 200);
    }
}

/**
 * Run one job on each of @p pool's @p n threads (the jobs hold each
 * other until all @p n have started) and return their kernel thread
 * ids, which a new thread never shares with an earlier one.
 */
std::set<pid_t>
threadIdsOf(ThreadPool &pool, unsigned n)
{
    std::mutex mutex;
    std::set<pid_t> ids;
    std::atomic<unsigned> arrived{0};
    for (unsigned i = 0; i < n; ++i)
        pool.submit([&] {
            {
                std::lock_guard lock(mutex);
                ids.insert(::gettid());
            }
            arrived.fetch_add(1);
            while (arrived.load() < n)
                std::this_thread::yield();
        });
    pool.waitIdle();
    return ids;
}

TEST(ThreadPool, ReusesParkedThreads)
{
    std::set<pid_t> first;
    {
        ThreadPool warmup(4);
        first = threadIdsOf(warmup, 4);
    }
    ASSERT_EQ(first.size(), 4u);
    const int threads = test::processThreadCount();
    ASSERT_GT(threads, 0);
    for (int cycle = 0; cycle < 100; ++cycle) {
        ThreadPool pool(4);
        for (const pid_t id : threadIdsOf(pool, 4))
            ASSERT_EQ(first.count(id), 1u) << "cycle " << cycle;
    }
    EXPECT_EQ(test::processThreadCount(), threads);
}

TEST(ThreadPool, NestedPoolInsideAJob)
{
    ThreadPool outer(2);
    std::atomic<int> inner_ran{0};
    for (int i = 0; i < 4; ++i)
        outer.submit([&] {
            ThreadPool inner(3);
            for (int j = 0; j < 10; ++j)
                inner.submit([&] { inner_ran.fetch_add(1); });
            inner.waitIdle();
        });
    outer.waitIdle();
    EXPECT_EQ(inner_ran.load(), 40);
}

TEST(ThreadPool, RecycledThreadStartsClean)
{
    std::set<pid_t> failed_on;
    {
        ThreadPool pool(2);
        failed_on = threadIdsOf(pool, 2);
        pool.submit([] { throw Error("boom"); });
        // Destroyed with the failure still pending: it is discarded.
    }
    ThreadPool pool(2);
    EXPECT_FALSE(pool.cancelToken().cancelled());
    EXPECT_EQ(threadIdsOf(pool, 2), failed_on);
    std::atomic<int> ran{0};
    for (int i = 0; i < 20; ++i)
        pool.submit([&] { ran.fetch_add(1); });
    EXPECT_NO_THROW(pool.waitIdle());
    EXPECT_EQ(ran.load(), 20);
}

TEST(ThreadPool, DestructorWaitsForRunningJob)
{
    std::atomic<bool> started{false};
    std::atomic<bool> finished{false};
    std::atomic<int> queued_ran{0};
    {
        ThreadPool pool(1);
        pool.submit([&] {
            started.store(true);
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            finished.store(true);
        });
        for (int i = 0; i < 5; ++i)
            pool.submit([&] { queued_ran.fetch_add(1); });
        while (!started.load())
            std::this_thread::yield();
    }
    EXPECT_TRUE(finished.load());
    EXPECT_EQ(queued_ran.load(), 5);
}

} // namespace
} // namespace ruby
