/**
 * @file
 * Unit tests for the MOAT mitigator (Section 4, Appendix D).
 */

#include <gtest/gtest.h>

#include <csignal>
#include <variant>

#include "dram/bank.hh"
#include "dram/security.hh"
#include "mitigation/moat.hh"
#include "mitigation/registry.hh"

namespace moatsim::mitigation
{
namespace
{

struct MoatFixture : public ::testing::Test
{
    dram::TimingParams timing = [] {
        dram::TimingParams t;
        t.rowsPerBank = 256;
        t.refreshGroups = 32; // 8 rows per group
        return t;
    }();
    dram::Bank bank{timing};
    dram::SecurityMonitor security{256, 2};
    MitigationStats stats;
    MitigationContext ctx{bank, security, stats};

    /** Activate through the bank + mitigator like the SubChannel. */
    void
    act(MoatMitigator &m, RowId row, uint32_t times = 1)
    {
        for (uint32_t i = 0; i < times; ++i) {
            bank.activate(row);
            security.onActivate(row);
            m.onActivate(row, ctx);
        }
    }
};

TEST_F(MoatFixture, RowsBelowEthAreNotTracked)
{
    MoatConfig cfg;
    MoatMitigator m(cfg);
    act(m, 10, cfg.eth); // exactly ETH: not above it
    EXPECT_FALSE(m.trackerValid());
}

TEST_F(MoatFixture, CrossingEthEntersTracker)
{
    MoatConfig cfg;
    MoatMitigator m(cfg);
    act(m, 10, cfg.eth + 1);
    EXPECT_TRUE(m.trackerValid());
    EXPECT_EQ(m.maxTrackedRow(), 10u);
    EXPECT_EQ(m.maxTrackedCount(), cfg.eth + 1);
}

TEST_F(MoatFixture, TrackerKeepsHighestCountRow)
{
    MoatConfig cfg;
    MoatMitigator m(cfg);
    act(m, 10, 40);
    act(m, 20, 50);
    EXPECT_EQ(m.maxTrackedRow(), 20u);
    act(m, 10, 20); // row 10 now at 60
    EXPECT_EQ(m.maxTrackedRow(), 10u);
    EXPECT_EQ(m.maxTrackedCount(), 60u);
}

TEST_F(MoatFixture, AlertRequestedAboveAth)
{
    MoatConfig cfg; // ATH = 64
    MoatMitigator m(cfg);
    act(m, 10, cfg.ath);
    EXPECT_FALSE(m.wantsAlert());
    act(m, 10, 1); // 65th activation exceeds ATH
    EXPECT_TRUE(m.wantsAlert());
}

TEST_F(MoatFixture, AlertLatchThenRfmMitigates)
{
    MoatConfig cfg;
    MoatMitigator m(cfg);
    act(m, 10, cfg.ath + 1);
    m.onAlertAsserted(ctx);
    EXPECT_FALSE(m.wantsAlert()); // consumed by the assertion
    EXPECT_EQ(m.pendingAlertRow(), 10u);
    m.onRfm(ctx);
    EXPECT_EQ(bank.counter(10), 0u);
    EXPECT_EQ(security.hammerCount(10), 0u);
    EXPECT_EQ(stats.alertMitigations, 1u);
    EXPECT_FALSE(m.trackerValid());
}

TEST_F(MoatFixture, ActivationsAfterAssertCannotRedirectRfm)
{
    // Section 4.2 semantics: the CTA is latched at assertion; a row
    // activated to a higher count in the 180 ns window is not the one
    // mitigated.
    MoatConfig cfg;
    MoatMitigator m(cfg);
    act(m, 10, cfg.ath + 1);
    m.onAlertAsserted(ctx);
    act(m, 20, cfg.ath + 10); // higher count, after assertion
    m.onRfm(ctx);
    EXPECT_EQ(bank.counter(10), 0u);   // 10 was mitigated
    EXPECT_NE(bank.counter(20), 0u);   // 20 was not
    EXPECT_TRUE(m.wantsAlert());       // 20 still needs an ALERT
}

TEST_F(MoatFixture, CopyIsAValueSnapshot)
{
    // A copied Mitigator keeps the tracker state of the moment it was
    // taken while the original moves on through ALERT and RFM.
    MoatConfig cfg;
    Mitigator original = MoatMitigator(cfg);
    act(std::get<MoatMitigator>(original), 10, cfg.ath + 1);
    const Mitigator snapshot = original;

    auto &moved = std::get<MoatMitigator>(original);
    moved.onAlertAsserted(ctx);
    moved.onRfm(ctx);
    EXPECT_EQ(stats.alertMitigations, 1u);
    EXPECT_FALSE(moved.trackerValid());
    EXPECT_FALSE(moved.wantsAlert());

    const auto &kept = std::get<MoatMitigator>(snapshot);
    EXPECT_TRUE(kept.trackerValid());
    EXPECT_EQ(kept.maxTrackedRow(), 10u);
    EXPECT_EQ(kept.maxTrackedCount(), cfg.ath + 1);
    EXPECT_TRUE(kept.wantsAlert());
}

TEST_F(MoatFixture, ProactiveMitigationAtPeriodBoundary)
{
    MoatConfig cfg; // period 5, 1 step per REF
    MoatMitigator m(cfg);
    act(m, 100, 40); // above ETH=32
    // REFs 1..5: boundary at the 5th (latch), work on REFs 6..10.
    for (int i = 0; i < 5; ++i)
        m.onRefCommand(ctx);
    EXPECT_FALSE(m.trackerValid()); // latched into the CMA
    for (int i = 0; i < 5; ++i)
        m.onRefCommand(ctx);
    EXPECT_EQ(bank.counter(100), 0u); // mitigated and counter reset
    EXPECT_EQ(stats.proactiveMitigations, 1u);
    EXPECT_EQ(stats.victimRefreshes, 4u);
}

TEST_F(MoatFixture, PeriodZeroDisablesProactive)
{
    MoatConfig cfg;
    cfg.mitigationPeriodRefis = 0;
    MoatMitigator m(cfg);
    act(m, 100, 60);
    for (int i = 0; i < 50; ++i)
        m.onRefCommand(ctx);
    EXPECT_EQ(stats.proactiveMitigations, 0u);
    EXPECT_NE(bank.counter(100), 0u);
}

TEST_F(MoatFixture, SafeResetKeepsLastTwoRowCounts)
{
    MoatConfig cfg;
    MoatMitigator m(cfg);
    // Hammer the last two rows of group 0 (rows 6 and 7).
    act(m, 6, 20);
    act(m, 7, 25);
    act(m, 3, 10);
    m.onAutoRefresh(0, 7, ctx); // group 0 refresh resets counters
    EXPECT_EQ(bank.counter(6), 0u);
    EXPECT_EQ(bank.counter(7), 0u);
    EXPECT_EQ(bank.counter(3), 0u);
    // The replicas keep counting for rows 6 and 7: 13 more ACTs must
    // trip ETH for row 7 (25 + 13 = 38 > 32), although the in-array
    // counter is only 13.
    act(m, 7, 13);
    EXPECT_TRUE(m.trackerValid());
    EXPECT_EQ(m.maxTrackedRow(), 7u);
    EXPECT_EQ(m.maxTrackedCount(), 38u);
}

TEST_F(MoatFixture, SafeResetReplicaTriggersAlert)
{
    // T ACTs before the last row's group refresh and 65 - T after it
    // ALERT, at T = 60 and at T = ATH (groups 0 and 1).
    for (const auto &[group, t] : {std::pair{0u, 60u}, std::pair{1u, 64u}}) {
        MoatConfig cfg; // ATH 64
        MoatMitigator m(cfg);
        const RowId last = group * 8 + 7;
        act(m, last, t);
        m.onAutoRefresh(group * 8, last, ctx);
        act(m, last, 64 - t); // replica now at 64
        EXPECT_FALSE(m.wantsAlert()) << "T " << t;
        act(m, last, 1); // replica 65 > ATH
        EXPECT_TRUE(m.wantsAlert()) << "T " << t;
    }
}

TEST_F(MoatFixture, ReplicasDroppedAtNextGroupRefresh)
{
    MoatConfig cfg;
    MoatMitigator m(cfg);
    act(m, 7, 60);
    m.onAutoRefresh(0, 7, ctx);  // replicas: rows 6, 7
    m.onAutoRefresh(8, 15, ctx); // rows 6, 7 now safe; replicas: 14, 15
    act(m, 7, 5);
    // Row 7's effective count restarts from the in-array counter.
    EXPECT_FALSE(m.wantsAlert());
    EXPECT_EQ(bank.counter(7), 5u);
}

TEST_F(MoatFixture, UnsafeResetLosesCounts)
{
    MoatConfig cfg;
    cfg.safeReset = false;
    MoatMitigator m(cfg);
    // Figure 7(a), at T = 60 and at T = ATH (groups 0 and 1): the
    // count vanishes at the group refresh; T more ACTs only reach T.
    for (const auto &[group, t] : {std::pair{0u, 60u}, std::pair{1u, 64u}}) {
        const RowId last = group * 8 + 7;
        act(m, last, t);
        m.onAutoRefresh(group * 8, last, ctx);
        act(m, last, t);
        EXPECT_FALSE(m.wantsAlert()) << "T " << t;
        // But the ground truth shows the victim accumulated 2T of
        // damage.
        EXPECT_EQ(security.damage(last + 1), 2 * t);
    }
}

TEST_F(MoatFixture, NoResetOnRefreshKeepsCounters)
{
    MoatConfig cfg;
    cfg.resetOnRefresh = false;
    MoatMitigator m(cfg);
    act(m, 7, 60);
    m.onAutoRefresh(0, 7, ctx);
    EXPECT_EQ(bank.counter(7), 60u);
}

TEST_F(MoatFixture, MultiEntryTrackerKeepsTopL)
{
    MoatConfig cfg;
    cfg.trackerEntries = 2; // MOAT-L2
    MoatMitigator m(cfg);
    act(m, 10, 40);
    act(m, 20, 50);
    act(m, 30, 45); // evicts the minimum (row 10 at 40)
    EXPECT_EQ(m.maxTrackedRow(), 20u);
    act(m, 10, 10); // row 10 back at 50; evicts row 30 (45)
    // Tracker should now hold rows 20 (50) and 10 (50).
    m.onAlertAsserted(ctx);
    m.onRfm(ctx);
    m.onRfm(ctx);
    EXPECT_EQ(bank.counter(10), 0u);
    EXPECT_EQ(bank.counter(20), 0u);
    EXPECT_NE(bank.counter(30), 0u);
}

TEST_F(MoatFixture, SramBudgetMatchesPaper)
{
    // Section 6.5 / Appendix D: 7 / 10 / 16 bytes per bank.
    MoatConfig l1;
    EXPECT_EQ(MoatMitigator(l1).sramBytesPerBank(), 7u);
    MoatConfig l2;
    l2.trackerEntries = 2;
    EXPECT_EQ(MoatMitigator(l2).sramBytesPerBank(), 10u);
    MoatConfig l4;
    l4.trackerEntries = 4;
    EXPECT_EQ(MoatMitigator(l4).sramBytesPerBank(), 16u);
}

TEST_F(MoatFixture, StepsPerRefCoversPeriod)
{
    MoatConfig cfg;
    cfg.mitigationPeriodRefis = 5;
    EXPECT_EQ(cfg.stepsPerRef(), 1u);
    cfg.mitigationPeriodRefis = 3;
    EXPECT_EQ(cfg.stepsPerRef(), 2u);
    cfg.mitigationPeriodRefis = 1;
    EXPECT_EQ(cfg.stepsPerRef(), 5u);
    cfg.mitigationPeriodRefis = 10;
    EXPECT_EQ(cfg.stepsPerRef(), 1u);
}

TEST_F(MoatFixture, NameEncodesConfiguration)
{
    MoatConfig cfg;
    MoatMitigator m(cfg);
    EXPECT_EQ(m.name(), "MOAT-L1(ETH=32,ATH=64)");
}

TEST(MoatDeathTest, EthAboveAthPanics)
{
    // No parsed spec reaches it: Registry::tryParse() refuses the spec.
    MoatConfig cfg;
    cfg.eth = 100;
    cfg.ath = 64;
    EXPECT_EXIT(MoatMitigator{cfg}, testing::KilledBySignal(SIGABRT),
                "eth \\(100\\) must not exceed ath \\(64\\)");
}

} // namespace
} // namespace moatsim::mitigation
