/**
 * @file
 * Unit tests for the idealized per-row-counter baseline (Section 2.5).
 */

#include <gtest/gtest.h>

#include "dram/bank.hh"
#include "dram/security.hh"
#include "mitigation/ideal_prc.hh"

namespace moatsim::mitigation
{
namespace
{

struct PrcFixture : public ::testing::Test
{
    dram::TimingParams timing = [] {
        dram::TimingParams t;
        t.rowsPerBank = 512;
        t.refreshGroups = 64;
        return t;
    }();
    dram::Bank bank{timing};
    dram::SecurityMonitor security{512, 2};
    MitigationStats stats;
    MitigationContext ctx{bank, security, stats};

    void
    act(IdealPrcMitigator &m, RowId row, uint32_t times = 1)
    {
        for (uint32_t i = 0; i < times; ++i) {
            bank.activate(row);
            security.onActivate(row);
            m.onActivate(row, ctx);
        }
    }
};

TEST_F(PrcFixture, MitigatesArgmaxEveryPeriod)
{
    IdealPrcConfig cfg; // period 4
    IdealPrcMitigator m(cfg);
    act(m, 10, 5);
    act(m, 20, 9);
    act(m, 30, 7);
    for (int i = 0; i < 4; ++i)
        m.onRefCommand(ctx);
    EXPECT_EQ(bank.counter(20), 0u); // argmax mitigated + reset
    EXPECT_EQ(bank.counter(30), 7u);
    EXPECT_EQ(stats.totalMitigations(), 1u);
}

TEST_F(PrcFixture, RescanFindsNextMax)
{
    IdealPrcConfig cfg;
    IdealPrcMitigator m(cfg);
    act(m, 10, 5);
    act(m, 20, 9);
    act(m, 30, 7);
    for (int i = 0; i < 8; ++i)
        m.onRefCommand(ctx);
    EXPECT_EQ(bank.counter(30), 0u); // second period takes row 30
    EXPECT_EQ(bank.counter(10), 5u);
}

TEST_F(PrcFixture, NoWorkWhenIdle)
{
    IdealPrcConfig cfg;
    IdealPrcMitigator m(cfg);
    for (int i = 0; i < 20; ++i)
        m.onRefCommand(ctx);
    EXPECT_EQ(stats.totalMitigations(), 0u);
}

TEST_F(PrcFixture, MinCountFilters)
{
    IdealPrcConfig cfg;
    cfg.minCount = 10;
    IdealPrcMitigator m(cfg);
    act(m, 10, 9);
    for (int i = 0; i < 4; ++i)
        m.onRefCommand(ctx);
    EXPECT_EQ(stats.totalMitigations(), 0u);
    act(m, 10, 1);
    for (int i = 0; i < 4; ++i)
        m.onRefCommand(ctx);
    EXPECT_EQ(stats.totalMitigations(), 1u);
}

TEST_F(PrcFixture, AutoRefreshResetsCounters)
{
    IdealPrcConfig cfg;
    IdealPrcMitigator m(cfg);
    act(m, 3, 6);
    m.onAutoRefresh(0, 7, ctx);
    EXPECT_EQ(bank.counter(3), 0u);
}

TEST_F(PrcFixture, NeverAlerts)
{
    IdealPrcConfig cfg;
    IdealPrcMitigator m(cfg);
    act(m, 10, 10000);
    EXPECT_FALSE(m.wantsAlert());
}

TEST_F(PrcFixture, PeriodOneMitigatesEveryRef)
{
    IdealPrcConfig cfg;
    cfg.mitigationPeriodRefis = 1;
    IdealPrcMitigator m(cfg);
    act(m, 10, 3);
    act(m, 20, 2);
    m.onRefCommand(ctx);
    m.onRefCommand(ctx);
    EXPECT_EQ(stats.totalMitigations(), 2u);
    EXPECT_EQ(bank.counter(10), 0u);
    EXPECT_EQ(bank.counter(20), 0u);
}

TEST(IdealPrcDeathTest, ZeroPeriodIsFatal)
{
    IdealPrcConfig cfg;
    cfg.mitigationPeriodRefis = 0;
    EXPECT_EXIT(IdealPrcMitigator{cfg}, testing::ExitedWithCode(1),
                "mitigationPeriodRefis");
}

} // namespace
} // namespace moatsim::mitigation
