/**
 * @file
 * Tests for the counter-carrying Panopticon queue (the Section-9
 * recommendations implemented) and for the safe-reset ablation.
 */

#include <gtest/gtest.h>

#include <csignal>

#include "dram/bank.hh"
#include "dram/security.hh"
#include "mitigation/panopticon_counter.hh"
#include "subchannel/subchannel.hh"

namespace moatsim::mitigation
{
namespace
{

struct CounterQueueFixture : public ::testing::Test
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
    act(PanopticonCounterMitigator &m, RowId row, uint32_t times = 1)
    {
        for (uint32_t i = 0; i < times; ++i) {
            bank.activate(row);
            security.onActivate(row);
            m.onActivate(row, ctx);
        }
    }
};

TEST_F(CounterQueueFixture, EnqueuedRowsKeepCounting)
{
    PanopticonCounterConfig cfg; // insert at 128, 64 ACTs of slack
    PanopticonCounterMitigator m(cfg);
    act(m, 10, 128);
    EXPECT_EQ(m.queueSize(), 1u);
    act(m, 10, 64); // exactly the slack, not above it
    EXPECT_FALSE(m.wantsAlert());
    act(m, 10, 1); // 65 activations while enqueued
    EXPECT_TRUE(m.wantsAlert());
}

TEST_F(CounterQueueFixture, NoDuplicateEntriesWhileEnqueued)
{
    PanopticonCounterConfig cfg;
    cfg.alertSlack = 1024;
    PanopticonCounterMitigator m(cfg);
    act(m, 10, 300); // crosses 128 and 256 while enqueued
    EXPECT_EQ(m.queueSize(), 1u);
}

TEST_F(CounterQueueFixture, MaxFirstService)
{
    PanopticonCounterConfig cfg;
    cfg.alertSlack = 1024;
    PanopticonCounterMitigator m(cfg);
    act(m, 10, 128);
    act(m, 20, 128);
    act(m, 20, 100); // row 20 is now the hottest enqueued row
    for (int i = 0; i < 4; ++i)
        m.onRefCommand(ctx);
    EXPECT_EQ(security.hammerCount(20), 0u); // served before row 10
    EXPECT_NE(security.hammerCount(10), 0u);
}

TEST_F(CounterQueueFixture, AlertLatchesMaxEntry)
{
    PanopticonCounterConfig cfg;
    PanopticonCounterMitigator m(cfg);
    act(m, 10, 128);
    act(m, 10, 70); // 70 while enqueued > 64 of slack
    EXPECT_TRUE(m.wantsAlert());
    m.onAlertAsserted(ctx);
    EXPECT_FALSE(m.wantsAlert());
    m.onRfm(ctx);
    EXPECT_EQ(security.hammerCount(10), 0u);
    EXPECT_EQ(m.queueSize(), 0u);
}

TEST_F(CounterQueueFixture, SramCost)
{
    PanopticonCounterConfig cfg;
    PanopticonCounterMitigator m(cfg);
    EXPECT_EQ(m.sramBytesPerBank(), 24u); // 8 entries x 3 bytes
}

TEST(CounterQueueDeathTest, ZeroSlackPanics)
{
    // No parsed spec reaches it: Registry::tryParse() refuses the spec.
    PanopticonCounterConfig cfg;
    cfg.alertSlack = 0;
    EXPECT_EXIT(PanopticonCounterMitigator{cfg},
                testing::KilledBySignal(SIGABRT), "slack");
}

TEST(CounterQueueIntegration, JailbreakPatternIsBounded)
{
    // The headline of the repair: the deterministic Jailbreak pattern
    // cannot push a row past the queue's ALERT threshold by more than
    // the inter-ALERT slack, at the default slack of 64 and at 128.
    for (const ActCount slack : {64u, 128u}) {
        subchannel::SubChannelConfig sc;
        sc.numBanks = 1;
        PanopticonCounterConfig cfg;
        cfg.alertSlack = slack;
        subchannel::SubChannel ch(sc, PanopticonCounterMitigator(cfg));

        std::vector<RowId> rows;
        for (int i = 0; i < 8; ++i)
            rows.push_back(30000 + 8 * i);
        for (int k = 0; k < 128; ++k) {
            for (RowId r : rows)
                ch.activate(0, r);
        }
        const Time pace = ch.timing().tREFI / 32;
        Time nb = ch.now();
        for (int a = 0; a < 1024; ++a)
            nb = ch.activateAt(0, rows.back(), nb) + pace;
        ch.advanceTo(ch.now() + fromNs(2000));

        // Bounded by queueing threshold + slack + one mitigation
        // latency (~3x the threshold) instead of the original design's
        // 9x.
        EXPECT_LE(ch.security(0).maxHammer(), 3 * cfg.queueThreshold)
            << "slack " << slack;
    }
}

} // namespace
} // namespace moatsim::mitigation
