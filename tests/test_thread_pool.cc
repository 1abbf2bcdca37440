/**
 * @file
 * Tests for the FIFO thread pool the sweep engine runs on.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "common/thread_pool.hh"

namespace moatsim
{
namespace
{

TEST(ThreadPool, RunsEveryJobExactlyOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4u);
    std::vector<std::atomic<int>> hits(512);
    for (auto &h : hits)
        h = 0;
    for (size_t i = 0; i < hits.size(); ++i)
        pool.submit([&hits, i] { ++hits[i]; });
    pool.wait();
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroThreadsMeansHardwareConcurrency)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.threadCount(), ThreadPool::hardwareThreads());
    EXPECT_GE(ThreadPool::hardwareThreads(), 1u);
}

TEST(ThreadPool, SingleWorkerDrainsEverything)
{
    ThreadPool pool(1);
    std::atomic<int> sum{0};
    for (int i = 1; i <= 100; ++i)
        pool.submit([&sum, i] { sum += i; });
    pool.wait();
    EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPool, ReusableAfterWait)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 32; ++i)
            pool.submit([&count] { ++count; });
        pool.wait();
        EXPECT_EQ(count.load(), 32 * (round + 1));
    }
}

TEST(ThreadPool, JobsMaySubmitJobs)
{
    // wait() must cover work spawned by running jobs (a sweep cell
    // enqueuing follow-up cells).
    ThreadPool pool(3);
    std::atomic<int> count{0};
    for (int i = 0; i < 8; ++i) {
        pool.submit([&pool, &count] {
            ++count;
            pool.submit([&count] { ++count; });
        });
    }
    pool.wait();
    EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPool, MoreThreadsThanJobs)
{
    ThreadPool pool(8);
    std::atomic<int> count{0};
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, OneWorkerRunsJobsInSubmissionOrder)
{
    // One FIFO queue: however early the worker wakes, it takes the
    // oldest job, so jobs start in the order they were submitted.
    for (int round = 0; round < 20; ++round) {
        ThreadPool pool(1);
        std::vector<int> order;
        for (int i = 0; i < 16; ++i)
            pool.submit([&order, i] { order.push_back(i); });
        pool.wait();
        std::vector<int> want(16);
        for (int i = 0; i < 16; ++i)
            want[static_cast<size_t>(i)] = i;
        ASSERT_EQ(order, want) << "round " << round;
    }
}

TEST(ThreadPool, ParallelForStartsEachWorkerOnItsLastIndex)
{
    // parallelFor deals n indices round-robin over its workers' deques
    // in one batch, so each worker's first index is the last one dealt
    // to it -- the same every run, however the workers' start-up races.
    // Every job holds until all workers have started one, so no worker
    // runs dry and steals before the others have made their first pick
    // (as with sweep cells, which each run for milliseconds or more).
    constexpr unsigned kWorkers = 4;
    constexpr size_t kN = 64;
    for (int round = 0; round < 20; ++round) {
        std::mutex mu;
        std::condition_variable all_started;
        std::map<std::thread::id, size_t> first;
        parallelFor(kWorkers, kN, [&](size_t i) {
            std::unique_lock<std::mutex> lock(mu);
            first.emplace(std::this_thread::get_id(), i);
            all_started.notify_all();
            all_started.wait(lock, [&] { return first.size() == kWorkers; });
        });
        ASSERT_EQ(first.size(), kWorkers);
        for (const auto &[id, i] : first)
            EXPECT_GE(i, kN - kWorkers) << "round " << round;
    }
}

TEST(ThreadPool, WaitWithNothingSubmittedReturns)
{
    ThreadPool pool(2);
    pool.wait();
    SUCCEED();
}

} // namespace
} // namespace moatsim
