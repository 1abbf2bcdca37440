/**
 * @file
 * Sweep-level invariants of the performance experiments: the
 * directional claims behind Tables 5/6/7 and Figure 17, checked on
 * reduced configurations so they run in seconds. The sweeps fan out
 * through the parallel SweepEngine (jobs=2), which is guaranteed to
 * be bit-identical to the serial path (see test_determinism.cc), so
 * these invariants also exercise the engine itself.
 */

#include <gtest/gtest.h>

#include "sim/sweep.hh"

namespace moatsim::sim
{
namespace
{

SweepEngine
smallEngine()
{
    SweepConfig sc;
    sc.tracegen.banksSimulated = 16;
    sc.tracegen.windowFraction = 0.03125;
    sc.jobs = 2;
    return SweepEngine(sc);
}

/** Hot workloads for quick sweeps (the paper's slowdown drivers). */
std::vector<workload::WorkloadSpec>
hotSpecs()
{
    return {workload::findWorkload("roms"),
            workload::findWorkload("parest"),
            workload::findWorkload("xz")};
}

std::vector<PerfResult>
runHot(SweepEngine &engine, const mitigation::MitigatorSpec &m,
       abo::Level level = abo::Level::L1)
{
    return engine.run(crossCells(hotSpecs(), {{m, level}}));
}

double
avgAlerts(SweepEngine &engine, const mitigation::MitigatorSpec &m,
          abo::Level level = abo::Level::L1)
{
    return meanAlertsPerRefi(runHot(engine, m, level));
}

double
avgMitigations(SweepEngine &engine, const mitigation::MitigatorSpec &m)
{
    return meanMitigations(runHot(engine, m));
}

mitigation::MitigatorSpec
moatSpecOf(const std::string &params)
{
    return mitigation::Registry::parse("moat:" + params);
}

TEST(PerfSweep, HigherEthMeansFewerMitigations)
{
    // Table 5's energy column: mitigation work falls as ETH rises.
    auto engine = smallEngine();
    double prev = 1e18;
    for (uint32_t eth : {0u, 16u, 32u, 48u}) {
        const double v = avgMitigations(
            engine, moatSpecOf("eth=" + std::to_string(eth)));
        EXPECT_LT(v, prev + 1) << "ETH " << eth;
        prev = v;
    }
}

TEST(PerfSweep, HigherEthMeansMoreAlerts)
{
    // Table 5's slowdown column: less proactive head start, more rows
    // race to ATH.
    auto engine = smallEngine();
    EXPECT_LE(avgAlerts(engine, moatSpecOf("eth=8")),
              avgAlerts(engine, moatSpecOf("eth=56")) + 1e-3);
}

TEST(PerfSweep, SlowerMitigationRateMeansMoreAlerts)
{
    // Table 6: rate 1/1 tREFI -> ~no ALERTs; ALERT-only -> most.
    auto engine = smallEngine();
    const double a_fast = avgAlerts(engine, moatSpecOf("period=1"));
    const double a_norm = avgAlerts(engine, moatSpecOf("period=5"));
    const double a_none = avgAlerts(engine, moatSpecOf("period=0"));
    EXPECT_LE(a_fast, a_norm + 1e-3);
    EXPECT_LT(a_norm, a_none);
    EXPECT_LT(a_fast, 0.01);
}

TEST(PerfSweep, HigherAthMeansFewerAlerts)
{
    // Figure 11 / Table 7: ATH 32 > 64 > 128 in ALERT rate.
    auto engine = smallEngine();
    double prev = 1e18;
    for (uint32_t ath : {32u, 64u, 128u}) {
        const auto m = moatSpecOf("ath=" + std::to_string(ath) +
                                  ",eth=" + std::to_string(ath / 2));
        const double v = avgAlerts(engine, m);
        EXPECT_LT(v, prev) << "ATH " << ath;
        prev = v;
    }
}

TEST(PerfSweep, HigherAboLevelMeansFewerAlertEpisodes)
{
    // Figure 17(b): each MOAT-L2/L4 ALERT mitigates more rows, so
    // episodes become rarer.
    auto engine = smallEngine();
    const double a1 = avgAlerts(engine,
                                mitigation::Registry::parse("moat"),
                                abo::Level::L1);
    const double a2 =
        avgAlerts(engine, moatSpecOf("entries=2"), abo::Level::L2);
    EXPECT_LE(a2, a1 + 1e-3);
}

TEST(PerfSweep, SlowdownTracksAlertRate)
{
    // The only slowdown mechanism is ALERT stalls: a config with more
    // alerts must not be faster.
    auto engine = smallEngine();
    const auto &spec = workload::findWorkload("roms");
    const auto r64 = engine.runCell(
        SweepCell{spec, mitigation::Registry::parse("moat"), abo::Level::L1});
    const auto r32 = engine.runCell(
        SweepCell{spec, moatSpecOf("ath=32,eth=16"), abo::Level::L1});
    EXPECT_GT(r32.alertsPerRefi, r64.alertsPerRefi);
    EXPECT_LE(r32.normPerf, r64.normPerf + 0.002);
}

TEST(PerfSweep, MultiPointMatrixMatchesPerPointRuns)
{
    // One batched engine run over a (design x workload) matrix equals
    // the per-point runs cell for cell.
    auto engine = smallEngine();
    const auto m64 = mitigation::Registry::parse("moat");
    const auto m32 = moatSpecOf("ath=32,eth=16");
    const auto batched = engine.run(crossCells(
        hotSpecs(), {{m64, abo::Level::L1}, {m32, abo::Level::L1}}));
    const auto r64 = runHot(engine, m64);
    const auto r32 = runHot(engine, m32);
    ASSERT_EQ(batched.size(), r64.size() + r32.size());
    for (size_t i = 0; i < r64.size(); ++i) {
        EXPECT_EQ(batched[i].normPerf, r64[i].normPerf);
        EXPECT_EQ(batched[i].alerts, r64[i].alerts);
    }
    for (size_t i = 0; i < r32.size(); ++i) {
        EXPECT_EQ(batched[r64.size() + i].normPerf, r32[i].normPerf);
        EXPECT_EQ(batched[r64.size() + i].alerts, r32[i].alerts);
    }
}

} // namespace
} // namespace moatsim::sim
