/**
 * @file
 * Tests of the bench environment knobs (bench/bench_util.hh): they
 * read numbers with the one strict grammar of common/number_text.hh,
 * and a malformed value warns and keeps the default.
 */

#include <gtest/gtest.h>

#include <cstdlib>

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

} // namespace
} // namespace moatsim::bench
