/**
 * @file
 * Integration tests for the command-level SubChannel: DDR5 timing,
 * REF cadence, ABO flow, and refresh postponement.
 */

#include <gtest/gtest.h>

#include "mitigation/moat.hh"
#include "mitigation/null.hh"
#include "mitigation/panopticon.hh"
#include "subchannel/subchannel.hh"

namespace moatsim::subchannel
{
namespace
{

SubChannelConfig
baseConfig(uint32_t banks = 2)
{
    SubChannelConfig sc;
    sc.numBanks = banks;
    return sc;
}

SubChannel
nullChannel(const SubChannelConfig &sc)
{
    return SubChannel(sc, mitigation::NullMitigator{});
}

SubChannel
moatChannel(const SubChannelConfig &sc, const mitigation::MoatConfig &m)
{
    return SubChannel(sc, mitigation::MoatMitigator(m));
}

TEST(SubChannel, SameBankActsSpacedByTrc)
{
    auto ch = nullChannel(baseConfig());
    const Time t0 = ch.activate(0, 100);
    const Time t1 = ch.activate(0, 200);
    EXPECT_EQ(t1 - t0, ch.timing().tRC);
}

TEST(SubChannel, CrossBankActsSpacedByTrrd)
{
    auto ch = nullChannel(baseConfig());
    const Time t0 = ch.activate(0, 100);
    const Time t1 = ch.activate(1, 100);
    EXPECT_EQ(t1 - t0, ch.timing().tRRD);
}

TEST(SubChannel, SixtySevenActsFitPerRefi)
{
    // Section 2.2's headline number, measured end to end in a steady
    // tREFI window (one that starts with the REF's tRFC busy time).
    auto ch = nullChannel(baseConfig(1));
    const Time lo = ch.timing().tREFI;
    const Time hi = 2 * ch.timing().tREFI;
    uint32_t in_window = 0;
    for (int i = 0; i < 160; ++i) {
        const Time t = ch.activate(0, 100);
        if (t >= lo && t + ch.timing().tRC <= hi)
            ++in_window;
    }
    EXPECT_EQ(in_window, 67u);
}

TEST(SubChannel, RefBlocksActs)
{
    auto ch = nullChannel(baseConfig(1));
    ch.advanceTo(ch.timing().tREFI - fromNs(10));
    const Time t = ch.activate(0, 5);
    // The ACT cannot straddle the REF: it issues after the tRFC busy
    // window.
    EXPECT_GE(t, ch.timing().tREFI + ch.timing().tRFC);
    EXPECT_EQ(ch.stats().refs, 1u);
}

TEST(SubChannel, AutoRefreshFollowsSchedule)
{
    auto ch = nullChannel(baseConfig(1));
    ch.advanceTo(10 * ch.timing().tREFI + 1);
    EXPECT_EQ(ch.stats().refs, 10u);
    EXPECT_EQ(ch.refreshScheduler(0).nextGroup(), 10u);
}

TEST(SubChannel, RefreshResetsHammerState)
{
    auto ch = nullChannel(baseConfig(1));
    // Row 0 belongs to group 0, refreshed by the very first REF.
    for (int i = 0; i < 5; ++i)
        ch.activate(0, 0);
    ch.advanceTo(ch.timing().tREFI + 1);
    EXPECT_EQ(ch.security(0).hammerCount(0), 0u);
}

TEST(SubChannel, MoatAlertStallsAndMitigates)
{
    mitigation::MoatConfig m; // ATH 64
    auto ch = moatChannel(baseConfig(1), m);
    const RowId row = 30000;
    for (uint32_t i = 0; i < m.ath + 1; ++i)
        ch.activate(0, row);
    EXPECT_EQ(ch.abo().alertCount(), 1u);
    // The row is mitigated by the RFM once the alert window elapses.
    ch.advanceTo(ch.now() + fromNs(600));
    EXPECT_EQ(ch.bank(0).counter(row), 0u);
    EXPECT_EQ(ch.mitigationStats().alertMitigations, 1u);
}

TEST(SubChannel, ThreeActsFitInAlertNormalWindow)
{
    // Section 5.1: 3 ACTs fit in the 180 ns window before the RFM.
    mitigation::MoatConfig m;
    auto ch = moatChannel(baseConfig(1), m);
    const RowId row = 30000;
    for (uint32_t i = 0; i < m.ath + 1; ++i)
        ch.activate(0, row);
    const Time assert_time = ch.now() + ch.timing().tRC;
    uint32_t in_window = 0;
    for (int i = 0; i < 6; ++i) {
        const Time t = ch.activate(0, 40000 + 8 * i);
        if (t + ch.timing().tRC <= assert_time + fromNs(180))
            ++in_window;
    }
    EXPECT_EQ(in_window, 3u);
}

TEST(SubChannel, MinimumActsBetweenAlerts)
{
    // After an ALERT's RFM, at least L activations must complete
    // before the next assertion (Figure 8).
    mitigation::MoatConfig m;
    auto ch = moatChannel(baseConfig(1), m);
    // Prime two rows just below ATH, then push both over.
    const RowId a = 30000, b = 30008;
    for (uint32_t i = 0; i < m.ath; ++i)
        ch.activate(0, a);
    for (uint32_t i = 0; i < m.ath; ++i)
        ch.activate(0, b);
    ch.activate(0, a); // alert 1 asserted for a
    ch.activate(0, b); // b now above ATH too
    ch.activate(0, b);
    ch.activate(0, b);
    ch.activate(0, b); // post-RFM act enables alert 2
    ch.activate(0, b);
    EXPECT_EQ(ch.abo().alertCount(), 2u);
    EXPECT_GE(ch.abo().totalStallTime(), 2 * fromNs(350));
}

TEST(SubChannel, AlertMitigatesOneRowInEveryBank)
{
    // Section 7.2: a synchronized multi-bank pattern gains nothing;
    // each ALERT mitigates one row from each bank.
    mitigation::MoatConfig m;
    auto ch = moatChannel(baseConfig(2), m);
    const RowId a = 30000, b = 40000;
    for (uint32_t i = 0; i < m.ath; ++i) {
        ch.activate(0, a);
        ch.activate(1, b);
    }
    ch.activate(0, a); // alert for bank 0
    ch.advanceTo(ch.now() + fromNs(600)); // let the RFM run
    EXPECT_EQ(ch.bank(0).counter(a), 0u);
    EXPECT_EQ(ch.bank(1).counter(b), 0u) << "bank 1's CTA mitigated too";
}

TEST(SubChannel, PostponementBatchesThreeRefs)
{
    auto ch = nullChannel(baseConfig(1));
    ch.setPostponeRefresh(true);
    // Two boundaries postponed, the third issues a batch of three.
    ch.advanceTo(3 * ch.timing().tREFI + 1);
    EXPECT_EQ(ch.stats().postponedRefs, 2u);
    EXPECT_EQ(ch.stats().refs, 3u);
}

TEST(SubChannel, PostponementWindowAllows201Acts)
{
    // Appendix B: with two REFs postponed, up to 201 activations fit
    // between REF batches. The negative control: with no REF
    // postponable the window collapses to one tREFI of ACTs.
    const auto windowActs = [](uint32_t max_postponed) {
        SubChannelConfig sc = baseConfig(1);
        sc.maxPostponedRefs = max_postponed;
        auto ch = nullChannel(sc);
        ch.setPostponeRefresh(true);
        ch.advanceTo(3 * ch.timing().tREFI + 1); // first batch done
        uint32_t acts = 0;
        for (int i = 0; i < 250; ++i) {
            ch.activate(0, 100);
            if (ch.stats().refs > 3)
                break;
            ++acts;
        }
        return acts;
    };
    EXPECT_NEAR(windowActs(2), 201, 2);
    const dram::TimingParams t;
    EXPECT_EQ(t.actsPerRefi(), 67u); // Table-1 timing
    EXPECT_NEAR(windowActs(0), t.actsPerRefi(), 2);
}

TEST(SubChannel, StatsCountActs)
{
    auto ch = nullChannel(baseConfig());
    for (int i = 0; i < 10; ++i)
        ch.activate(0, 1 + 8 * i);
    EXPECT_EQ(ch.stats().acts, 10u);
}

TEST(SubChannel, SecurityDisabledSkipsTracking)
{
    // With tracking off the oracle's storage is elided entirely; the
    // aggregate view reports nothing tracked.
    SubChannelConfig sc = baseConfig(1);
    sc.securityEnabled = false;
    auto ch = nullChannel(sc);
    for (int i = 0; i < 10; ++i)
        ch.activate(0, 100);
    EXPECT_EQ(ch.maxHammerAnyBank(), 0u);
}

TEST(SubChannel, NarrowedOracleTracksOnlyItsBank)
{
    // oracleBank keeps the oracle on one bank: that bank's view equals
    // a full-oracle channel's, untracked banks fall out of
    // maxHammerAnyBank, and the command stream is unchanged.
    mitigation::MoatConfig m;
    SubChannelConfig full_cfg = baseConfig(4);
    SubChannelConfig narrow_cfg = full_cfg;
    narrow_cfg.oracleBank = 2;
    auto full = moatChannel(full_cfg, m);
    auto narrow = moatChannel(narrow_cfg, m);
    for (auto *ch : {&full, &narrow}) {
        for (int i = 0; i < 300; ++i) {
            ch->activate(0, 100); // the hot row, on an untracked bank
            if (i < 20)
                ch->activate(2, 500);
        }
        ch->advanceTo(ch->now() + 4 * ch->timing().tREFI);
    }
    EXPECT_GT(full.maxHammerAnyBank(), narrow.maxHammerAnyBank());
    EXPECT_EQ(full.security(0).maxHammer(), full.maxHammerAnyBank());
    EXPECT_EQ(narrow.maxHammerAnyBank(), narrow.security(2).maxHammer());
    EXPECT_EQ(narrow.security(2).maxHammer(),
              full.security(2).maxHammer());
    EXPECT_EQ(narrow.security(2).peakHammer(500),
              full.security(2).peakHammer(500));
    EXPECT_GT(narrow.security(2).peakHammer(500), 0u);
    EXPECT_EQ(narrow.now(), full.now());
    EXPECT_EQ(narrow.stats().acts, full.stats().acts);
    EXPECT_EQ(narrow.stats().rfms, full.stats().rfms);
    EXPECT_EQ(narrow.abo().alertCount(), full.abo().alertCount());
    EXPECT_GT(full.abo().alertCount(), 0u); // the comparison must bite
    for (BankId b = 0; b < 4; ++b) {
        EXPECT_EQ(narrow.bank(b).counter(100), full.bank(b).counter(100));
        EXPECT_EQ(narrow.bank(b).counter(500), full.bank(b).counter(500));
    }
}

TEST(SubChannel, SecurityOnUntrackedBankIsFatal)
{
    SubChannelConfig sc = baseConfig(4);
    sc.oracleBank = 2;
    auto ch = nullChannel(sc);
    EXPECT_EXIT(ch.security(1), testing::ExitedWithCode(1),
                "bank 1 is untracked.*tracks only bank 2");
    sc.securityEnabled = false;
    auto off = nullChannel(sc);
    EXPECT_EXIT(off.security(2), testing::ExitedWithCode(1),
                "oracle is elided");
    sc.securityEnabled = true;
    sc.oracleBank = 4;
    EXPECT_EXIT(nullChannel(sc), testing::ExitedWithCode(1),
                "oracle bank 4 out of range \\(4 banks\\)");
}

TEST(SubChannel, RefreshResetsRowsDisabledKeepsCounters)
{
    SubChannelConfig sc = baseConfig(1);
    sc.refreshResetsRows = false;
    mitigation::MoatConfig m;
    auto ch = moatChannel(sc, m);
    for (int i = 0; i < 10; ++i)
        ch.activate(0, 0); // group 0: would be reset by first REF
    ch.advanceTo(2 * ch.timing().tREFI);
    EXPECT_EQ(ch.bank(0).counter(0), 10u);
    EXPECT_EQ(ch.security(0).hammerCount(0), 10u);
}

TEST(SubChannel, DefaultBankCountFromTiming)
{
    SubChannelConfig sc;
    auto ch = nullChannel(sc);
    EXPECT_EQ(ch.numBanks(), 32u);
}

TEST(SubChannel, FawLimitsBurstsAcrossManyBanks)
{
    SubChannelConfig sc = baseConfig(8);
    auto ch = nullChannel(sc);
    // Issue one ACT to each of 8 banks; the 5th must wait for tFAW
    // after the 1st.
    std::vector<Time> times;
    for (BankId b = 0; b < 8; ++b)
        times.push_back(ch.activate(b, 100));
    EXPECT_GE(times[4] - times[0], ch.timing().tFAW);
}

} // namespace
} // namespace moatsim::subchannel
