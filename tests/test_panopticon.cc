/**
 * @file
 * Unit tests for the Panopticon mitigator (Section 3, Appendix B).
 */

#include <gtest/gtest.h>

#include "dram/bank.hh"
#include "dram/security.hh"
#include "mitigation/panopticon.hh"

namespace moatsim::mitigation
{
namespace
{

struct PanoFixture : public ::testing::Test
{
    dram::TimingParams timing = [] {
        dram::TimingParams t;
        t.rowsPerBank = 1024;
        t.refreshGroups = 128;
        return t;
    }();
    dram::Bank bank{timing};
    dram::SecurityMonitor security{1024, 2};
    MitigationStats stats;
    MitigationContext ctx{bank, security, stats};

    void
    act(PanopticonMitigator &m, RowId row, uint32_t times = 1)
    {
        for (uint32_t i = 0; i < times; ++i) {
            bank.activate(row);
            security.onActivate(row);
            m.onActivate(row, ctx);
        }
    }
};

TEST_F(PanoFixture, QueueInsertionAtThresholdCrossings)
{
    PanopticonConfig cfg; // threshold 128
    PanopticonMitigator m(cfg);
    act(m, 10, 127);
    EXPECT_EQ(m.queueSize(), 0u);
    act(m, 10, 1); // 128th activation toggles the threshold bit
    EXPECT_EQ(m.queueSize(), 1u);
    EXPECT_EQ(m.queueAt(0), 10u);
}

TEST_F(PanoFixture, FreeRunningCounterReinserts)
{
    PanopticonConfig cfg;
    PanopticonMitigator m(cfg);
    act(m, 10, 256); // crossings at 128 and 256
    EXPECT_EQ(m.queueSize(), 2u);
    EXPECT_EQ(m.queueAt(0), 10u);
    EXPECT_EQ(m.queueAt(1), 10u);
}

TEST_F(PanoFixture, FifoOrder)
{
    PanopticonConfig cfg;
    PanopticonMitigator m(cfg);
    act(m, 1, 128);
    act(m, 2, 128);
    act(m, 3, 128);
    EXPECT_EQ(m.queueAt(0), 1u);
    EXPECT_EQ(m.queueAt(2), 3u);
}

TEST_F(PanoFixture, GradualMitigationTakesFourRefsPerEntry)
{
    PanopticonConfig cfg;
    PanopticonMitigator m(cfg);
    act(m, 10, 128);
    act(m, 20, 128);
    // Entry 10 pops at the 1st REF, completes at the 4th; entry 20
    // pops at the 5th and completes at the 8th.
    for (int i = 0; i < 4; ++i)
        m.onRefCommand(ctx);
    EXPECT_EQ(security.hammerCount(10), 0u);
    EXPECT_NE(security.hammerCount(20), 0u);
    for (int i = 0; i < 4; ++i)
        m.onRefCommand(ctx);
    EXPECT_EQ(security.hammerCount(20), 0u);
    EXPECT_EQ(m.queueSize(), 0u);
    EXPECT_EQ(stats.proactiveMitigations, 2u);
}

TEST_F(PanoFixture, CounterNotResetByMitigation)
{
    PanopticonConfig cfg;
    PanopticonMitigator m(cfg);
    act(m, 1, 128);
    for (int i = 0; i < 4; ++i)
        m.onRefCommand(ctx);
    EXPECT_EQ(bank.counter(1), 128u); // free-running
}

TEST_F(PanoFixture, OverflowRaisesAlert)
{
    PanopticonConfig cfg; // 8 entries
    PanopticonMitigator m(cfg);
    for (RowId r = 1; r <= 8; ++r)
        act(m, r * 10, 128);
    EXPECT_FALSE(m.wantsAlert());
    act(m, 90, 128); // 9th insertion overflows
    EXPECT_TRUE(m.wantsAlert());
}

TEST_F(PanoFixture, RfmServicesHeadAndCompletesOverflowInsertion)
{
    PanopticonConfig cfg;
    PanopticonMitigator m(cfg);
    for (RowId r = 1; r <= 8; ++r)
        act(m, r * 10, 128);
    act(m, 90, 128); // overflow pending
    m.onRfm(ctx);
    EXPECT_FALSE(m.wantsAlert());
    EXPECT_EQ(m.queueSize(), 8u); // head popped, pending inserted
    EXPECT_EQ(stats.alertMitigations, 1u);
    EXPECT_EQ(security.hammerCount(10), 0u); // head (row 10) mitigated
}

TEST_F(PanoFixture, DrainAllMitigatesTwoPerRef)
{
    PanopticonConfig cfg;
    cfg.drainAllOnRef = true;
    PanopticonMitigator m(cfg);
    for (RowId r = 1; r <= 3; ++r)
        act(m, r * 10, 128);
    m.onRefCommand(ctx);
    EXPECT_EQ(m.queueSize(), 1u);
    EXPECT_EQ(stats.proactiveMitigations, 2u);
    // One entry left: drain-all arms an ALERT until empty.
    EXPECT_TRUE(m.wantsAlert());
    m.onRfm(ctx);
    EXPECT_EQ(m.queueSize(), 0u);
    EXPECT_FALSE(m.wantsAlert());
}

TEST_F(PanoFixture, DrainAllQuietWhenQueueSmall)
{
    PanopticonConfig cfg;
    cfg.drainAllOnRef = true;
    PanopticonMitigator m(cfg);
    act(m, 10, 128);
    act(m, 20, 128);
    m.onRefCommand(ctx);
    EXPECT_EQ(m.queueSize(), 0u);
    EXPECT_FALSE(m.wantsAlert());
}

TEST_F(PanoFixture, NoAlertBetweenRefsInDrainMode)
{
    // Appendix B: drain-all reacts at REF time, not at insertion.
    PanopticonConfig cfg;
    cfg.drainAllOnRef = true;
    PanopticonMitigator m(cfg);
    for (RowId r = 1; r <= 5; ++r)
        act(m, r * 10, 128);
    EXPECT_FALSE(m.wantsAlert()); // 5 entries but no REF yet
    m.onRefCommand(ctx);
    EXPECT_TRUE(m.wantsAlert()); // 3 left after draining 2
}

TEST_F(PanoFixture, SramBytes)
{
    PanopticonConfig cfg;
    PanopticonMitigator m(cfg);
    EXPECT_EQ(m.sramBytesPerBank(), 16u); // 8 entries x 2 bytes
}

TEST_F(PanoFixture, NameReflectsVariant)
{
    PanopticonConfig cfg;
    EXPECT_EQ(PanopticonMitigator(cfg).name(),
              "Panopticon(T=128,Q=8)");
    cfg.drainAllOnRef = true;
    EXPECT_EQ(PanopticonMitigator(cfg).name(),
              "Panopticon-DrainAll(T=128,Q=8)");
}

} // namespace
} // namespace moatsim::mitigation
