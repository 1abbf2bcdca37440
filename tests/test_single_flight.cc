/**
 * @file
 * Tests of the single-flight primitive (common/single_flight.hh) and
 * the cell fan-out helper (common/thread_pool.hh parallelFor): the
 * rules every cache front and every sweep engine inherit, checked once
 * here (and under TSan through the tier1 label).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/single_flight.hh"
#include "common/thread_pool.hh"

namespace moatsim
{
namespace
{

using Flight = SingleFlight<std::string>;

std::shared_ptr<const std::string>
str(const std::string &s)
{
    return std::make_shared<const std::string>(s);
}

std::size_t
sizeOf(const std::string &s)
{
    return s.size();
}

/** Spin until @p done holds (the threads under test make progress on
 *  their own; no clock is involved). */
template <class Pred>
void
waitUntil(Pred done)
{
    while (!done())
        std::this_thread::yield();
}

constexpr int kThreads = 8;

TEST(SingleFlight, ConcurrentFirstTouchersShareOneCompute)
{
    Flight flight;
    std::atomic<int> computes{0};
    std::atomic<int> arrived{0};
    std::vector<std::shared_ptr<const std::string>> seen(kThreads);
    // Not vector<bool>: its packed bits would race across threads.
    std::vector<char> computed(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            ++arrived;
            const auto r = flight.get(7, [&] {
                ++computes;
                // Hold the compute open until every thread has arrived,
                // so the others race against an in-flight entry.
                waitUntil([&] { return arrived.load() == kThreads; });
                return str("value");
            });
            seen[t] = r.value;
            computed[t] = r.computed;
        });
    }
    for (auto &th : threads)
        th.join();

    EXPECT_EQ(computes.load(), 1);
    int computers = 0;
    for (int t = 0; t < kThreads; ++t) {
        EXPECT_EQ(seen[t], seen[0]) << "thread " << t;
        computers += computed[t];
    }
    EXPECT_EQ(computers, 1) << "exactly one caller learns it computed";
    const auto s = flight.stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, static_cast<uint64_t>(kThreads - 1));
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(s.inFlight, 0u);
}

TEST(SingleFlight, ThrowingComputeReachesEveryWaiterAndIsNeverCached)
{
    Flight flight;
    std::atomic<int> computes{0};
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            try {
                flight.get(3, [&]() -> std::shared_ptr<const std::string> {
                    ++computes;
                    // Throw only once every other thread is blocked on
                    // this in-flight entry (each counted a hit).
                    waitUntil([&] {
                        return flight.stats().hits ==
                               static_cast<uint64_t>(kThreads - 1);
                    });
                    throw std::runtime_error("replay failed");
                });
            } catch (const std::runtime_error &e) {
                EXPECT_STREQ(e.what(), "replay failed");
                ++failures;
            }
        });
    }
    for (auto &th : threads)
        th.join();

    EXPECT_EQ(computes.load(), 1);
    EXPECT_EQ(failures.load(), kThreads);
    auto s = flight.stats();
    EXPECT_EQ(s.entries, 0u) << "a failure leaves no entry behind";
    EXPECT_EQ(s.inFlight, 0u);

    // The next touch recomputes, and its success is cached.
    const auto r = flight.get(3, [] { return str("ok"); });
    EXPECT_TRUE(r.computed);
    EXPECT_EQ(*r.value, "ok");
    EXPECT_FALSE(flight.get(3, [] { return str("again"); }).computed);
    s = flight.stats();
    EXPECT_EQ(s.misses, 2u);
    EXPECT_EQ(s.entries, 1u);
}

TEST(SingleFlight, SeededEntriesHitWithoutCompute)
{
    Flight flight;
    const auto v = str("loaded");
    flight.seed(11, v);
    flight.seed(11, str("ignored")); // the resident entry wins
    bool ran = false;
    const auto r = flight.get(11, [&] {
        ran = true;
        return str("recomputed");
    });
    EXPECT_FALSE(ran);
    EXPECT_FALSE(r.computed);
    EXPECT_EQ(r.value, v);
    const auto s = flight.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 0u);
    EXPECT_EQ(s.seeded, 1u) << "only the seed that installed counts";
    EXPECT_EQ(s.entries, 1u);
}

TEST(SingleFlight, BoundNeverEvictsTheHandoutOrAnUnresolvedEntry)
{
    Flight flight(10, sizeOf);

    // Over the bound on its own: the entry being handed out stays.
    flight.get(1, [] { return str(std::string(20, 'a')); });
    auto s = flight.stats();
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(s.bytes, 20u);
    EXPECT_EQ(s.evictions, 0u);

    // Hold key 2 in flight on another thread.
    std::atomic<bool> release{false};
    std::shared_ptr<const std::string> slow;
    std::thread computing([&] {
        const auto hold = [&] {
            waitUntil([&] { return release.load(); });
            return str("bbbbb");
        };
        slow = flight.get(2, hold).value;
    });
    waitUntil([&] { return flight.stats().inFlight == 1; });

    // Key 3 overflows the bound: the LRU resolved entry (1) goes; the
    // in-flight entry (2) and the handout (3) stay.
    const auto third =
        flight.get(3, [] { return str(std::string(20, 'c')); }).value;
    s = flight.stats();
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.entries, 2u);
    EXPECT_EQ(s.inFlight, 1u);
    EXPECT_EQ(s.bytes, 20u);
    EXPECT_FALSE(flight.get(3, [] { return str("x"); }).computed);

    // Resolving key 2 overflows again: now 3 is the LRU resolved entry.
    release = true;
    computing.join();
    EXPECT_EQ(*slow, "bbbbb");
    s = flight.stats();
    EXPECT_EQ(s.evictions, 2u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(s.bytes, 5u);
    EXPECT_FALSE(flight.get(2, [] { return str("x"); }).computed);
    // An evicted value stays alive for its holder; the key recomputes.
    EXPECT_EQ(*third, std::string(20, 'c'));
    EXPECT_TRUE(flight.get(1, [] { return str("a"); }).computed);
}

TEST(SingleFlight, BoundedConcurrentChurnStaysConsistent)
{
    // Many threads over more keys than the bound holds: every handout
    // carries its own key's value, and accounting never goes negative.
    Flight flight(64, sizeOf);
    std::atomic<int> mismatches{0};
    parallelFor(kThreads, kThreads, [&](std::size_t t) {
        for (uint64_t i = 0; i < 400; ++i) {
            const uint64_t key = (i * 7 + t) % 23;
            const auto r = flight.get(key, [key] {
                return str(std::string(8, static_cast<char>('a' + key)));
            });
            if ((*r.value)[0] != static_cast<char>('a' + key))
                ++mismatches;
        }
    });
    EXPECT_EQ(mismatches.load(), 0);
    const auto s = flight.stats();
    EXPECT_EQ(s.inFlight, 0u);
    EXPECT_LE(s.bytes, 64u);
    EXPECT_EQ(s.bytes, 8u * s.entries);
    EXPECT_EQ(s.hits + s.misses, static_cast<uint64_t>(kThreads) * 400);
}

// ------------------------------------------------------------ parallelFor

class ParallelForJobs : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(ParallelForJobs, RunsEveryIndexAndRethrowsTheLowestFailure)
{
    constexpr std::size_t kN = 32;
    std::vector<std::atomic<int>> runs(kN);
    try {
        parallelFor(GetParam(), kN, [&](std::size_t i) {
            ++runs[i];
            if (i == 5 || i == 17 || i == 30)
                throw std::runtime_error("index " + std::to_string(i));
        });
        ADD_FAILURE() << "parallelFor swallowed the failures";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "index 5");
    }
    for (std::size_t i = 0; i < kN; ++i)
        EXPECT_EQ(runs[i].load(), 1) << "index " << i;
}

TEST_P(ParallelForJobs, CleanRunWritesEverySlot)
{
    std::vector<std::size_t> out(100, 0);
    parallelFor(GetParam(), out.size(),
                [&](std::size_t i) { out[i] = i * i; });
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i * i);
    parallelFor(GetParam(), 0, [](std::size_t) { FAIL(); });
}

TEST_P(ParallelForJobs, NeverRunsOnMoreThreadsThanIndices)
{
    // The pool has min(jobs, n) workers, so three indices run on at
    // most three threads at any jobs count.
    std::mutex mu;
    std::set<std::thread::id> ids;
    parallelFor(GetParam(), 3, [&](std::size_t) {
        std::lock_guard<std::mutex> lock(mu);
        ids.insert(std::this_thread::get_id());
    });
    EXPECT_GE(ids.size(), 1u);
    EXPECT_LE(ids.size(), 3u);
}

TEST_P(ParallelForJobs, InlineRunsOnTheCallerInIndexOrder)
{
    // One worker, or one index, runs inline: no pool, no reordering.
    const std::size_t n = GetParam() == 1 ? 16 : 1;
    std::vector<std::size_t> order;
    std::vector<std::thread::id> ids;
    parallelFor(GetParam(), n, [&](std::size_t i) {
        order.push_back(i);
        ids.push_back(std::this_thread::get_id());
    });
    ASSERT_EQ(order.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(order[i], i);
        EXPECT_EQ(ids[i], std::this_thread::get_id()) << "index " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Jobs, ParallelForJobs,
                         ::testing::Values(0u, 1u, 8u));

} // namespace
} // namespace moatsim
