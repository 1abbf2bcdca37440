/**
 * @file
 * Unit tests for MitigationJob and the MitigationContext accounting.
 */

#include <gtest/gtest.h>

#include "dram/bank.hh"
#include "dram/security.hh"
#include "mitigation/mitigator.hh"

namespace moatsim::mitigation
{
namespace
{

struct JobFixture : public ::testing::Test
{
    dram::TimingParams timing = [] {
        dram::TimingParams t;
        t.rowsPerBank = 256;
        t.refreshGroups = 32;
        return t;
    }();
    dram::Bank bank{timing};
    dram::SecurityMonitor security{256, 2};
    MitigationStats stats;
    MitigationContext ctx{bank, security, stats};
};

TEST_F(JobFixture, FourVictimsNoReset)
{
    for (int i = 0; i < 10; ++i) {
        bank.activate(100);
        security.onActivate(100);
    }
    MitigationJob job(100, 2, /*reset_counter=*/false);
    int steps = 0;
    while (!job.step(ctx, false))
        ++steps;
    EXPECT_EQ(steps + 1, 4); // completes exactly on the 4th victim
    EXPECT_EQ(stats.victimRefreshes, 4u);
    EXPECT_EQ(stats.counterResets, 0u);
    EXPECT_EQ(stats.proactiveMitigations, 1u);
    EXPECT_EQ(bank.counter(100), 10u); // free-running counter kept
    EXPECT_EQ(security.hammerCount(100), 0u);
    EXPECT_EQ(security.damage(101), 0u);
}

TEST_F(JobFixture, FiveStepsWithReset)
{
    for (int i = 0; i < 10; ++i)
        bank.activate(100);
    MitigationJob job(100, 2, /*reset_counter=*/true);
    int steps = 0;
    while (!job.step(ctx, true))
        ++steps;
    EXPECT_EQ(steps + 1, 5); // 4 victims + 1 counter reset
    EXPECT_EQ(bank.counter(100), 0u);
    EXPECT_EQ(stats.alertMitigations, 1u);
    EXPECT_EQ(stats.counterResets, 1u);
}

TEST_F(JobFixture, RunToCompletion)
{
    MitigationJob job(50, 2, true);
    job.runToCompletion(ctx, false);
    EXPECT_FALSE(job.active());
    EXPECT_EQ(stats.victimRefreshes, 4u);
    EXPECT_EQ(stats.totalMitigations(), 1u);
}

TEST_F(JobFixture, EdgeRowHasFewerVictims)
{
    MitigationJob job(0, 2, false);
    job.runToCompletion(ctx, false);
    EXPECT_EQ(stats.victimRefreshes, 2u); // only rows 1 and 2 exist
}

TEST_F(JobFixture, CancelStopsWork)
{
    MitigationJob job(100, 2, true);
    job.step(ctx, false);
    job.cancel();
    EXPECT_FALSE(job.active());
    EXPECT_EQ(stats.victimRefreshes, 1u);
    EXPECT_EQ(stats.totalMitigations(), 0u);
}

TEST_F(JobFixture, VictimDamageClearedProgressively)
{
    for (int i = 0; i < 6; ++i)
        security.onActivate(100);
    MitigationJob job(100, 2, false);
    job.step(ctx, false); // refreshes row 98
    EXPECT_EQ(security.damage(98), 0u);
    EXPECT_EQ(security.damage(99), 6u);
}

TEST_F(JobFixture, BlastRadiusOneJob)
{
    MitigationJob job(100, 1, true);
    int steps = 0;
    while (!job.step(ctx, false))
        ++steps;
    EXPECT_EQ(steps + 1, 3); // 2 victims + reset
}

TEST_F(JobFixture, StatsTotalCombinesBothKinds)
{
    MitigationJob a(10, 2, false);
    a.runToCompletion(ctx, false);
    MitigationJob b(20, 2, false);
    b.runToCompletion(ctx, true);
    EXPECT_EQ(stats.proactiveMitigations, 1u);
    EXPECT_EQ(stats.alertMitigations, 1u);
    EXPECT_EQ(stats.totalMitigations(), 2u);
}

} // namespace
} // namespace moatsim::mitigation
