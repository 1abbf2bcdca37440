/**
 * @file
 * Tests of the bench helpers (bench/bench_util.hh): the environment
 * knobs read numbers with the one strict grammar of
 * common/number_text.hh, and a malformed value warns and keeps the
 * default; timeRepeated times a body apart from its setup.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench/bench_util.hh"
#include "common/logging.hh"

namespace moatsim::bench
{
namespace
{

TEST(BenchKnobs, JobsTakesDigitsThatFitOnly)
{
    // Digits only, and the count must fit an unsigned: "4x" is not 4,
    // and 5000000000 does not wrap to 705032704.
    setQuiet(true);
    for (const char *bad : {"4x", "5000000000", "-1", " 4", "", "0x4"}) {
        ::setenv("MOATSIM_JOBS", bad, 1);
        EXPECT_EQ(jobs(), 0u) << "'" << bad << "'";
    }
    setQuiet(false);
    ::setenv("MOATSIM_JOBS", "4", 1);
    EXPECT_EQ(jobs(), 4u);
    ::setenv("MOATSIM_JOBS", "0", 1);
    EXPECT_EQ(jobs(), 0u);
    ::unsetenv("MOATSIM_JOBS");
    EXPECT_EQ(jobs(), 0u);
}

TEST(BenchKnobs, ScaleTakesAWholeNumberInTheUnitInterval)
{
    // The whole value is one number: "0.5abc" is not 0.5.
    setQuiet(true);
    for (const char *bad : {"0.5abc", " 0.5", "", "0", "-0.5", "1.5", "nope"}) {
        ::setenv("MOATSIM_BENCH_SCALE", bad, 1);
        EXPECT_EQ(benchScale(), 1.0) << "'" << bad << "'";
    }
    setQuiet(false);
    ::setenv("MOATSIM_BENCH_SCALE", "0.25", 1);
    EXPECT_EQ(benchScale(), 0.25);
    ::setenv("MOATSIM_BENCH_SCALE", "1", 1);
    EXPECT_EQ(benchScale(), 1.0);
    ::unsetenv("MOATSIM_BENCH_SCALE");
    EXPECT_EQ(benchScale(), 1.0);
}

TEST(BenchTiming, SetupIsTimedApartFromTheBody)
{
    // Each run gets fresh state; only the body's time counts towards
    // the half second, and each step gets its own median.
    using std::chrono::milliseconds;
    int built = 0;
    std::vector<int> seen;
    const SetupTiming t = timeRepeated(
        [&] {
            std::this_thread::sleep_for(milliseconds(20));
            return ++built;
        },
        [&](int state) {
            seen.push_back(state);
            std::this_thread::sleep_for(milliseconds(200));
        });
    EXPECT_EQ(seen, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(t.setup.repeats, 3u);
    EXPECT_EQ(t.body.repeats, 3u);
    EXPECT_GE(t.setup.minSeconds, 0.02);
    EXPECT_GE(t.body.minSeconds, 0.2);
    EXPECT_LE(t.setup.minSeconds, t.setup.medianSeconds);
    EXPECT_LE(t.setup.medianSeconds, t.setup.maxSeconds);
}

} // namespace
} // namespace moatsim::bench
