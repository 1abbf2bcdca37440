/**
 * @file
 * Tests of the memory-system performance model (the sim::System replay
 * on one and on several sub-channels) and of single perf cells run
 * through SweepEngine::runCell.
 */

#include <gtest/gtest.h>

#include "mitigation/null.hh"
#include "mitigation/registry.hh"
#include "sim/sweep.hh"
#include "sim/system.hh"

namespace moatsim::sim
{
namespace
{

/** A one-sub-channel System of @p banks no-ALERT banks. */
System
nullSystem(uint32_t banks)
{
    SystemConfig sys;
    sys.channel.numBanks = banks;
    sys.subchannels = 1;
    return System(sys, mitigation::NullMitigator{});
}

workload::CoreTrace
simpleTrace(Time window, Time gap, BankId bank, RowId row, int n)
{
    workload::CoreTrace t;
    t.window = window;
    for (int i = 0; i < n; ++i)
        t.events.push_back(
            {.at = static_cast<Time>(i) * gap, .row = row, .bank = bank});
    return t;
}

TEST(MemSys, EmptyTracesFinishAtWindow)
{
    auto sys = nullSystem(2);
    std::vector<workload::CoreTrace> traces(2);
    traces[0].window = fromNs(1000);
    traces[1].window = fromNs(1000);
    const SystemResult r = runSystem(sys, traces);
    EXPECT_EQ(r.totalActs, 0u);
    EXPECT_EQ(r.coreFinish[0], fromNs(1000));
}

TEST(MemSys, SparseTraceFinishesNearWindow)
{
    // Large gaps: memory is never the bottleneck, the finish time is
    // the trace window plus at most one access latency.
    auto sys = nullSystem(2);
    std::vector<workload::CoreTrace> traces;
    traces.push_back(simpleTrace(fromNs(100000), fromNs(1000), 0, 100, 50));
    const SystemResult r = runSystem(sys, traces);
    EXPECT_NEAR(toNs(r.coreFinish[0]), 100000, 3000);
    EXPECT_EQ(r.totalActs, 50u);
}

TEST(MemSys, DenseTraceIsBankLimited)
{
    // Zero-gap trace to one bank: finish ~ n * tRC (plus REF time).
    auto sys = nullSystem(1);
    std::vector<workload::CoreTrace> traces;
    traces.push_back(simpleTrace(fromNs(100), 0, 0, 100, 100));
    const SystemResult r = runSystem(sys, traces);
    EXPECT_GE(r.coreFinish[0], 100 * sys.subchannel(0).timing().tRC);
}

TEST(MemSys, TwoCoresShareTheChannelFairly)
{
    auto sys = nullSystem(2);
    std::vector<workload::CoreTrace> traces;
    traces.push_back(simpleTrace(fromNs(50000), fromNs(100), 0, 100, 200));
    traces.push_back(simpleTrace(fromNs(50000), fromNs(100), 1, 200, 200));
    const SystemResult r = runSystem(sys, traces);
    const double ratio = static_cast<double>(r.coreFinish[0]) /
                         static_cast<double>(r.coreFinish[1]);
    EXPECT_NEAR(ratio, 1.0, 0.1);
}

TEST(MemSys, MlpBoundsOutstandingRequests)
{
    // With mlp=1 a zero-gap stream serializes fully; with mlp=4 the
    // same stream to different banks overlaps and finishes faster.
    std::vector<workload::CoreTrace> traces;
    workload::CoreTrace t;
    t.window = fromNs(100000);
    for (int i = 0; i < 400; ++i)
        t.events.push_back(
            {.at = 0, .row = 100, .bank = static_cast<BankId>(i % 4)});
    traces.push_back(t);

    auto sys1 = nullSystem(4);
    CoreModel m1;
    m1.mlp = 1;
    const auto r1 = runSystem(sys1, traces, m1);
    auto sys4 = nullSystem(4);
    CoreModel m4;
    m4.mlp = 4;
    const auto r4 = runSystem(sys4, traces, m4);
    EXPECT_LT(r4.coreFinish[0], r1.coreFinish[0]);
}

TEST(MemSys, CountsRefsAndAlerts)
{
    auto sys = nullSystem(1);
    std::vector<workload::CoreTrace> traces;
    traces.push_back(simpleTrace(10 * sys.subchannel(0).timing().tREFI,
                                 fromNs(100), 0, 100, 300));
    const SystemResult r = runSystem(sys, traces);
    EXPECT_GE(r.refs, 8u);
    EXPECT_EQ(r.alerts, 0u);
}

SystemConfig
moatSystem(uint32_t subchannels, uint32_t banks)
{
    SystemConfig sys;
    sys.channel.numBanks = banks;
    sys.channel.securityEnabled = false;
    sys.subchannels = subchannels;
    return sys;
}

/** A trace hammering one row on one sub-channel hard enough to ALERT. */
workload::CoreTrace
hammerTrace(uint16_t subchannel, int n)
{
    workload::CoreTrace t;
    t.window = fromNs(static_cast<int64_t>(n) * 100);
    for (int i = 0; i < n; ++i)
        t.events.push_back({.at = static_cast<Time>(i) * fromNs(60),
                            .row = 7,
                            .bank = 0,
                            .subchannel = subchannel});
    return t;
}

TEST(System, AlertsStayOnTheirSubChannel)
{
    // Sub-channels are independent ABO domains: hammering rows on
    // sub-channel 0 must raise ALERTs there and nowhere else.
    const auto moat = mitigation::Registry::parse("moat:ath=32,eth=16");
    System sys(moatSystem(2, 4), moat.factory());
    std::vector<workload::CoreTrace> traces;
    traces.push_back(hammerTrace(0, 600));
    const SystemResult r = runSystem(sys, traces);
    ASSERT_EQ(r.perSubchannel.size(), 2u);
    EXPECT_GT(r.perSubchannel[0].alerts, 0u);
    EXPECT_EQ(r.perSubchannel[1].alerts, 0u);
    EXPECT_EQ(r.perSubchannel[1].acts, 0u);
    EXPECT_EQ(r.perSubchannel[0].acts, 600u);
}

TEST(System, AggregatesAreTheSumOfSubChannels)
{
    const auto moat = mitigation::Registry::parse("moat:ath=32,eth=16");
    System sys(moatSystem(2, 4), moat.factory());
    std::vector<workload::CoreTrace> traces;
    traces.push_back(hammerTrace(0, 400));
    traces.push_back(hammerTrace(1, 400));
    const SystemResult r = runSystem(sys, traces);
    ASSERT_EQ(r.perSubchannel.size(), 2u);
    uint64_t acts = 0;
    uint64_t refs = 0;
    uint64_t alerts = 0;
    for (const auto &u : r.perSubchannel) {
        acts += u.acts;
        refs += u.refs;
        alerts += u.alerts;
    }
    EXPECT_EQ(acts, r.totalActs);
    EXPECT_EQ(refs, r.refs);
    EXPECT_EQ(alerts, r.alerts);
    // Both channels saw the same hammer pattern.
    EXPECT_EQ(r.perSubchannel[0].acts, r.perSubchannel[1].acts);
}

TEST(System, SubChannelFieldFoldsOntoSmallerSystems)
{
    // Events address sub-channels modulo the system's slot count (the
    // `moatsim replay --subchannels` contract): a trace routed to
    // sub-channel 1 or 5 replays on a one-sub-channel system exactly
    // as the same trace routed to sub-channel 0.
    const auto moat = mitigation::Registry::parse("moat:ath=32,eth=16");
    const uint16_t slots[] = {0, 1, 5};
    SystemResult results[3];
    for (size_t i = 0; i < 3; ++i) {
        System sys(moatSystem(1, 4), moat.factory());
        std::vector<workload::CoreTrace> traces;
        traces.push_back(hammerTrace(slots[i], 500));
        results[i] = runSystem(sys, traces);
    }
    for (size_t i = 1; i < 3; ++i) {
        EXPECT_EQ(results[0].coreFinish, results[i].coreFinish);
        EXPECT_EQ(results[0].alerts, results[i].alerts);
        EXPECT_EQ(results[i].perSubchannel.size(), 1u);
        EXPECT_EQ(results[i].perSubchannel[0].acts, 500u);
    }
    ASSERT_GT(results[0].alerts, 0u); // the comparison must bite
}

TEST(System, OracleOnlyTracksOneBankOfOneSlot)
{
    // Both slot-construction paths (flat, and channels x ranks) honor
    // the placement: only (slot, bank) carries the oracle.
    for (const uint32_t ranks : {1u, 2u}) {
        SystemConfig cfg = moatSystem(2, 4);
        cfg.channel.securityEnabled = true;
        cfg.channel.refreshResetsRows = false; // exact hammer counts
        cfg.ranks = ranks;
        const uint32_t site = 2 * ranks - 1;
        cfg.oracleOnly = SystemConfig::OracleSite{site, 3};
        System sys(cfg, mitigation::NullMitigator{});
        workload::CoreTrace t;
        t.window = fromNs(40000);
        for (uint32_t i = 0; i < 400; ++i) {
            t.events.push_back(
                {.at = static_cast<Time>(i) * fromNs(60),
                 .row = 7,
                 .bank = static_cast<BankId>(i % 4),
                 .subchannel = static_cast<uint16_t>(i / 4 % (2 * ranks))});
        }
        runSystem(sys, {t});
        // Every bank of every slot saw the same 100 / slots ACTs.
        const uint32_t acts = 100 / sys.numSubchannels();
        for (uint32_t i = 0; i < sys.numSubchannels(); ++i) {
            const uint32_t want = i == site ? acts : 0u;
            EXPECT_EQ(sys.subchannel(i).maxHammerAnyBank(), want)
                << "ranks " << ranks << " slot " << i;
        }
        EXPECT_EQ(sys.subchannel(site).security(3).hammerCount(7), acts);
        EXPECT_EXIT(sys.subchannel(site).security(0),
                    testing::ExitedWithCode(1), "tracks only bank 3");
        EXPECT_EXIT(sys.subchannel(0).security(3),
                    testing::ExitedWithCode(1), "oracle is elided");
    }
    SystemConfig bad = moatSystem(2, 4);
    bad.oracleOnly = SystemConfig::OracleSite{2, 0};
    EXPECT_EXIT(System(bad, mitigation::NullMitigator{}),
                testing::ExitedWithCode(1),
                "oracle slot 2 out of range \\(2 slots\\)");
}

TEST(System, EmptyTracesFinishAtWindow)
{
    System sys(moatSystem(2, 2), mitigation::NullMitigator{});
    std::vector<workload::CoreTrace> traces(2);
    traces[0].window = fromNs(1000);
    traces[1].window = fromNs(1000);
    const SystemResult r = runSystem(sys, traces);
    EXPECT_EQ(r.totalActs, 0u);
    EXPECT_EQ(r.coreFinish[0], fromNs(1000));
    EXPECT_EQ(r.coreFinish[1], fromNs(1000));
}

/** A serial engine over @p tg (the sweep path every perf cell takes). */
SweepEngine
serialEngine(const workload::TraceGenConfig &tg)
{
    SweepConfig sc;
    sc.tracegen = tg;
    sc.jobs = 1;
    return SweepEngine(sc);
}

PerfResult
runOne(SweepEngine &engine, const char *workload,
       const mitigation::MitigatorSpec &mitigator)
{
    return engine.runCell(
        SweepCell{workload::findWorkload(workload), mitigator,
                  abo::Level::L1});
}

TEST(PerfCell, MultiSubChannelRunReportsBreakdown)
{
    workload::TraceGenConfig tg;
    tg.banksSimulated = 8;
    tg.subchannels = 2;
    tg.windowFraction = 0.03125;
    auto engine = serialEngine(tg);
    const auto r = runOne(engine, "roms", mitigation::Registry::parse("moat"));
    ASSERT_EQ(r.perSubchannel.size(), 2u);
    // Traffic is routed across both sub-channels.
    EXPECT_GT(r.perSubchannel[0].acts, 0u);
    EXPECT_GT(r.perSubchannel[1].acts, 0u);
    EXPECT_EQ(r.perSubchannel[0].acts + r.perSubchannel[1].acts, r.acts);
    EXPECT_EQ(r.perSubchannel[0].alerts + r.perSubchannel[1].alerts,
              r.alerts);
}

TEST(PerfCell, BaselineNormPerfIsOne)
{
    // Running against an effectively-disabled MOAT (ATH huge) must
    // give ~1.0 normalized performance.
    workload::TraceGenConfig tg;
    tg.banksSimulated = 8;
    tg.windowFraction = 0.03125;
    auto engine = serialEngine(tg);
    const auto r = runOne(
        engine, "x264",
        mitigation::Registry::parse("moat:ath=1048576,eth=524288"));
    EXPECT_NEAR(r.normPerf, 1.0, 0.002);
    EXPECT_EQ(r.alerts, 0u);
}

TEST(PerfCell, HotWorkloadSlowsMoreThanColdOne)
{
    workload::TraceGenConfig tg;
    tg.banksSimulated = 8;
    tg.windowFraction = 0.0625;
    auto engine = serialEngine(tg);
    const mitigation::MitigatorSpec moat; // default: ATH 64
    const auto hot = runOne(engine, "roms", moat);
    const auto cold = runOne(engine, "tc", moat);
    EXPECT_GT(hot.alertsPerRefi, cold.alertsPerRefi);
    EXPECT_LE(cold.alertsPerRefi, 0.001);
    EXPECT_LT(hot.normPerf, 1.0);
}

TEST(PerfCell, Ath128QuenchesAlerts)
{
    // Needs the full 32-bank sub-channel: every ALERT gives all banks
    // a free mitigation, so fewer banks means more residual alerts.
    workload::TraceGenConfig tg;
    tg.banksSimulated = dram::kTable3BanksPerSubchannel;
    tg.windowFraction = 0.0625;
    auto engine = serialEngine(tg);
    const auto a64 = mitigation::Registry::parse("moat");
    const auto a128 = mitigation::Registry::parse("moat:ath=128,eth=64");
    const auto r64 = runOne(engine, "roms", a64);
    const auto r128 = runOne(engine, "roms", a128);
    EXPECT_LT(r128.alertsPerRefi, 0.1 * r64.alertsPerRefi + 1e-3);
}

} // namespace
} // namespace moatsim::sim
