/**
 * @file
 * Adversary-under-load scenario engine: attacker/victim core-class
 * accounting on the shared multi-sub-channel System.
 *
 *  - An attack-free co-run must equal a plain System replay bit for
 *    bit (the attacker core is additive, never perturbing).
 *  - The attacker's maxHammer on the shared system must never exceed
 *    its isolated run of the identical trace: contention interleaves
 *    more REFs/mitigation into the pattern and can only hurt it.
 *  - Co-attack sweep cells must be bit-identical at any jobs count.
 *  - Tracking only the attacker's bank must report what a System
 *    that tracks every bank reports, off the default slot too.
 *  - Perf and co-attack cells of one Experiment share one engine: each
 *    workload's traces are generated once for both kinds, and sharing
 *    changes no result byte.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "attacks/attack.hh"
#include "sim/coattack.hh"
#include "sim/experiment.hh"
#include "sim/result_io.hh"
#include "sim/system.hh"
#include "workload/attack_trace.hh"
#include "workload/event_order.hh"

namespace moatsim::sim
{
namespace
{

workload::TraceGenConfig
smallTracegen(uint32_t subchannels = 2)
{
    workload::TraceGenConfig tg;
    tg.banksSimulated = 8;
    tg.numCores = 4;
    tg.windowFraction = 0.015625;
    tg.subchannels = subchannels;
    return tg;
}

/** The System a co-attack cell simulates, built by hand with the
 *  oracle on every bank of every slot. */
System
manualSystem(const workload::TraceGenConfig &tg,
             const mitigation::MitigatorSpec &m, abo::Level level,
             uint64_t seed)
{
    SystemConfig sys;
    sys.channel.timing = tg.timing;
    sys.channel.numBanks = tg.banksSimulated;
    sys.channel.aboLevel = level;
    sys.channel.securityEnabled = true;
    sys.channel.seed = seed;
    sys.subchannels = tg.subchannels;
    sys.channels = tg.channels;
    sys.ranks = tg.ranks;
    return System(sys, m.factory());
}

void
expectIdenticalSystemResults(const SystemResult &a, const SystemResult &b)
{
    ASSERT_EQ(a.coreFinish.size(), b.coreFinish.size());
    for (size_t i = 0; i < a.coreFinish.size(); ++i)
        EXPECT_EQ(a.coreFinish[i], b.coreFinish[i]) << "core " << i;
    EXPECT_EQ(a.totalActs, b.totalActs);
    EXPECT_EQ(a.refs, b.refs);
    EXPECT_EQ(a.alerts, b.alerts);
    ASSERT_EQ(a.perSubchannel.size(), b.perSubchannel.size());
    for (size_t i = 0; i < a.perSubchannel.size(); ++i) {
        EXPECT_EQ(a.perSubchannel[i].acts, b.perSubchannel[i].acts);
        EXPECT_EQ(a.perSubchannel[i].refs, b.perSubchannel[i].refs);
        EXPECT_EQ(a.perSubchannel[i].alerts, b.perSubchannel[i].alerts);
        EXPECT_EQ(a.perSubchannel[i].rfms, b.perSubchannel[i].rfms);
    }
}

TEST(CoAttack, AttackFreeCoRunEqualsPlainSystemReplay)
{
    const auto tg = smallTracegen();
    const auto &spec = workload::findWorkload("xz");
    const auto m = mitigation::Registry::parse("moat");

    CoAttackScenario none;
    none.pattern = "none";
    const auto attack = resolveAttack(none, tg);
    const SystemResult co = runCoSystem(tg, CoreModel{}, spec, m,
                                        abo::Level::L1, attack);

    // The same replay, hand-assembled without the co-attack layer.
    System sys = manualSystem(
        tg, m, abo::Level::L1,
        coAttackCellSeed(tg, spec, m, abo::Level::L1, attack));
    const SystemResult plain =
        runSystem(sys, workload::generateTraces(spec, tg));

    expectIdenticalSystemResults(co, plain);
}

TEST(CoAttack, SharedMaxHammerNeverExceedsIsolated)
{
    const auto tg = smallTracegen();
    const auto &spec = workload::findWorkload("roms");

    for (const char *mname : {"moat", "panopticon", "null"}) {
        for (const char *pattern : {"hammer", "round-robin"}) {
            const auto m = mitigation::Registry::parse(mname);
            CoAttackScenario sc;
            sc.pattern = pattern;
            const auto attack = resolveAttack(sc, tg);

            uint32_t shared = 0;
            runCoSystem(tg, CoreModel{}, spec, m, abo::Level::L1, attack,
                        &shared);

            // Isolated: the identical open-loop trace with no victim
            // traffic on an identically seeded System.
            const auto at = workload::generateAttackTrace(attack);
            System sys = manualSystem(
                tg, m, abo::Level::L1,
                coAttackCellSeed(tg, spec, m, abo::Level::L1, attack));
            runSystem(sys, {at.trace});
            uint32_t isolated = 0;
            const auto &sec =
                sys.subchannel(at.subchannel).security(at.bank);
            for (const RowId row : at.rows)
                isolated = std::max(isolated, sec.peakHammer(row));

            // Dominance holds up to one leaked ALERT window: victim
            // ACTs shift where the ALERT lands relative to the
            // attacker's burst (they also count toward the
            // inter-ALERT activation minimum), so the shared run can
            // jitter past the isolated one by at most the 3+L ACTs a
            // single ALERT-to-ALERT window leaks -- never by a
            // window's worth of real progress.
            const uint32_t slack = tg.timing.actsPerAlertWindow(
                abo::levelValue(abo::Level::L1));
            EXPECT_LE(shared, isolated + slack)
                << mname << "/" << pattern
                << ": contention must not meaningfully help the attacker";
            EXPECT_GT(isolated, 0u) << mname << "/" << pattern;
        }
    }
}

TEST(CoAttack, OneBankOracleMatchesFullOracleOffSlot)
{
    // runCoSystem tracks only the attacker's (slot, bank). With the
    // attacker off the default slot, on a flat and on a two-rank
    // topology, the replay and the attacker's peak must equal a
    // hand-built System that tracks every bank.
    const auto &spec = workload::findWorkload("roms");
    for (const uint32_t ranks : {1u, 2u}) {
        auto tg = smallTracegen();
        tg.ranks = ranks;
        const auto benign = workload::generateTraces(spec, tg);
        for (const char *mname : {"moat", "panopticon", "null"}) {
            for (const char *pattern : {"hammer", "postponement"}) {
                const auto m = mitigation::Registry::parse(mname);
                CoAttackScenario sc;
                sc.pattern = pattern;
                // Channel 0, the last rank, sub-channel 1.
                sc.subchannel = (ranks - 1) * tg.subchannels + 1;
                sc.bank = 5;
                const auto attack = resolveAttack(sc, tg);

                uint32_t narrowed = 0;
                const SystemResult co = runCoSystem(
                    tg, CoreModel{}, spec, m, abo::Level::L1, attack,
                    &narrowed);

                // The same replay on a System that tracks every bank.
                System full = manualSystem(
                    tg, m, abo::Level::L1,
                    coAttackCellSeed(tg, spec, m, abo::Level::L1, attack));
                const auto at = workload::generateAttackTrace(attack);
                std::vector<workload::CoreTraceView> views;
                for (const auto &t : benign)
                    views.push_back(workload::viewOf(t));
                views.push_back(workload::viewOf(at.trace));
                full.setPostponeRefresh(
                    workload::attackPostponesRefresh(pattern));
                const SystemResult ref = runSystem(full, views);
                uint32_t peak = 0;
                const auto &sec = full.subchannel(sc.subchannel).security(5);
                for (const RowId row : at.rows)
                    peak = std::max(peak, sec.peakHammer(row));

                SCOPED_TRACE(std::string(mname) + "/" + pattern +
                             " ranks=" + std::to_string(ranks));
                expectIdenticalSystemResults(co, ref);
                EXPECT_EQ(narrowed, peak);
                EXPECT_GT(peak, 0u);
            }
        }
    }
}

TEST(CoAttack, SweepCellsBitIdenticalAcrossJobCounts)
{
    const auto tg = smallTracegen();
    std::vector<CoAttackCell> cells;
    for (const char *w : {"roms", "xz"}) {
        for (const char *m : {"moat", "panopticon"}) {
            for (const char *p : {"hammer", "postponement", "none"}) {
                CoAttackScenario sc;
                sc.pattern = p;
                cells.push_back({workload::findWorkload(w),
                                 mitigation::Registry::parse(m),
                                 abo::Level::L1, sc});
            }
        }
    }

    std::vector<std::vector<CoAttackResult>> runs;
    for (const unsigned jobs : {1u, 8u}) {
        SweepConfig sc;
        sc.tracegen = tg;
        sc.jobs = jobs;
        SweepEngine engine(sc);
        runs.push_back(engine.run(cells));
    }
    ASSERT_EQ(runs[0].size(), runs[1].size());
    for (size_t i = 0; i < runs[0].size(); ++i)
        EXPECT_EQ(toJsonLine(runs[0][i]), toJsonLine(runs[1][i]))
            << "cell " << i;
}

TEST(CoAttack, AttackedRunReportsAttackActivity)
{
    // The attacked cell must attribute extra defence work to the
    // attack: alerts >= attack-free alerts, a positive attacker act
    // count, and a victim slowdown of at least 1.
    SweepConfig sc;
    sc.tracegen = smallTracegen();
    sc.jobs = 1;
    SweepEngine engine(sc);
    CoAttackScenario attack;
    attack.pattern = "hammer";
    const CoAttackResult r =
        engine.runCell({workload::findWorkload("xz"),
                        mitigation::Registry::parse("moat"),
                        abo::Level::L1, attack});
    EXPECT_GT(r.attackerActs, 0u);
    EXPECT_GT(r.attackerMaxHammer, 0u);
    EXPECT_GE(r.alerts, r.attackFreeAlerts);
    EXPECT_GE(r.victimSlowdown, 1.0);
    EXPECT_LE(r.victimNormPerf, 1.0);
    EXPECT_GT(r.victimActs, 0u);
}

TEST(CoAttack, ExperimentMatrixMatchesEngineCells)
{
    // The Experiment wiring fans the same cells through the same
    // engine; a (mitigator x attack) matrix must match per-cell runs.
    ExperimentConfig ec;
    ec.tracegen = smallTracegen();
    ec.workload = "xz";
    ec.jobs = 2;
    Experiment exp(ec);

    std::vector<CoAttackPoint> points;
    for (const char *m : {"moat", "panopticon"}) {
        CoAttackPoint p;
        p.mitigator = mitigation::Registry::parse(m);
        p.attack.pattern = "round-robin";
        points.push_back(p);
    }
    const auto matrix = exp.runCoAttackMatrix(points);
    ASSERT_EQ(matrix.size(), 2u);
    ASSERT_EQ(matrix[0].size(), 1u);

    SweepConfig sc;
    sc.tracegen = ec.tracegen;
    sc.jobs = 1;
    SweepEngine engine(sc);
    for (size_t i = 0; i < points.size(); ++i) {
        const CoAttackResult direct =
            engine.runCell({workload::findWorkload("xz"),
                            points[i].mitigator, points[i].level,
                            points[i].attack});
        EXPECT_EQ(toJsonLine(matrix[i][0]), toJsonLine(direct));
    }
}

TEST(CoAttack, OneEngineSharesTracesAcrossCellKinds)
{
    ExperimentConfig ec;
    ec.tracegen = smallTracegen();
    ec.jobs = 2;
    ec.resultStore = ResultStore::Config{};
    // An explicitly enabled trace store, immune to MOATSIM_TRACE_STORE.
    const auto stores = [] {
        ExperimentStores s;
        s.traces = std::make_shared<workload::TraceStore>(
            workload::TraceStore::Config{});
        return s;
    };
    const std::vector<SweepPoint> points = {
        {mitigation::Registry::parse("moat:ath=128,eth=64"),
         abo::Level::L1}};
    CoAttackScenario attack;
    attack.pattern = "hammer";

    Experiment shared(ec, stores());
    const uint64_t before = workload::traceGenInvocations();
    const auto perf = shared.runMatrix(points);
    const auto co = shared.runCoAttack(attack);
    EXPECT_EQ(workload::traceGenInvocations() - before,
              workload::table4Workloads().size());

    const auto fresh_perf = Experiment(ec, stores()).runMatrix(points);
    const auto fresh_co = Experiment(ec, stores()).runCoAttack(attack);
    ASSERT_EQ(perf.size(), 1u);
    ASSERT_EQ(perf[0].size(), fresh_perf[0].size());
    for (size_t w = 0; w < perf[0].size(); ++w)
        EXPECT_EQ(toJsonLine(perf[0][w]), toJsonLine(fresh_perf[0][w]))
            << "perf cell " << w;
    ASSERT_EQ(co.size(), fresh_co.size());
    for (size_t w = 0; w < co.size(); ++w)
        EXPECT_EQ(toJsonLine(co[w]), toJsonLine(fresh_co[w]))
            << "co-attack cell " << w;
}

TEST(CoAttack, ResultRoundTripsThroughJsonl)
{
    CoAttackResult r;
    r.workload = "we\"ird";
    r.mitigator = "moat:ath=64";
    r.pattern = "hammer";
    r.aboLevel = 4;
    r.attackerMaxHammer = 319;
    r.attackerActs = 9615;
    r.victimSlowdown = 1.0625;
    r.victimNormPerf = 0.9412;
    r.victimActs = 12345;
    r.alerts = 188;
    r.attackFreeAlerts = 53;
    r.rfms = 188;
    r.attackFreeRfms = 53;
    r.refs = 256;
    r.alertsPerRefi = 0.734375;
    r.attackFreeAlertsPerRefi = 0.20703125;
    const std::string line = toJsonLine(r);
    const CoAttackResult back = coAttackResultOfJsonLine(line);
    EXPECT_EQ(toJsonLine(back), line);
    EXPECT_EQ(back.workload, r.workload);
    EXPECT_EQ(back.attackerMaxHammer, r.attackerMaxHammer);
    EXPECT_EQ(back.attackFreeAlertsPerRefi, r.attackFreeAlertsPerRefi);
}

TEST(AttackTraceDeathTest, SlotBeyondSixteenBitsFatal)
{
    // The attacker's slot is stored in TraceEvent's 16-bit field.
    workload::AttackTraceConfig attack;
    attack.subchannel = workload::kMaxTraceSlot + 1;
    EXPECT_EXIT(workload::generateAttackTrace(attack),
                testing::ExitedWithCode(1), "subchannel 65536 exceeds");
}

TEST(AttackTraceDeathTest, WindowPastTheSortRangeFatal)
{
    // A window reaching 2^36 ps is past the radix sort's range.
    workload::AttackTraceConfig attack;
    attack.pattern = "hammer";
    attack.window = workload::kEventTimeLimit;
    EXPECT_EXIT(workload::generateAttackTrace(attack),
                testing::ExitedWithCode(1),
                "window of 68719476736 ps reaches the trace sort's");
}

TEST(AttackTraceDeathTest, BudgetPastTheSortRangeFatal)
{
    // Event times come from the budget, not the window: 2M hammer ACTs
    // at tRC (52 ns) span 104 ms, past the 2^36 ps (~68.7 ms) range.
    workload::AttackTraceConfig attack;
    attack.pattern = "hammer";
    attack.budget = 2'000'000;
    EXPECT_EXIT(workload::generateAttackTrace(attack),
                testing::ExitedWithCode(1),
                "budget of 2000000 activations spans past the trace "
                "sort's 2\\^36 ps range \\(at most 1321528 ");
}

TEST(AttackTrace, OnlyShapedPatternsAndFittingPoolsAreSynthesized)
{
    // Every trace shape is a registered attack, and every registered
    // attack has one except the throughput attacks, which measure a
    // whole sub-channel's ACT rate and run isolated only.
    const auto &shapes = workload::attackTracePatterns();
    const auto shaped = [&](const std::string &name) {
        return std::find(shapes.begin(), shapes.end(), name) !=
               shapes.end();
    };
    EXPECT_TRUE(shaped("none"));
    for (const std::string &name : shapes) {
        EXPECT_TRUE(name == "none" ||
                    attacks::findAttackPattern(name) != nullptr)
            << name;
    }
    for (const attacks::AttackPattern &p : attacks::attackPatterns())
        EXPECT_NE(shaped(p.name), p.throughput) << p.name;

    for (const std::string pattern : {"tsa", "kernel"}) {
        workload::AttackTraceConfig attack;
        attack.pattern = pattern;
        std::string why;
        EXPECT_FALSE(workload::checkAttackTrace(attack, &why));
        EXPECT_NE(why.find("pattern '" + pattern +
                           "' has no co-attack trace"),
                  std::string::npos)
            << why;
    }

    // A pooled shape's pool must fit the bank; jailbreak lays out its
    // target beside the pool_rows decoys.
    const uint32_t fit = workload::maxAttackPoolRows(dram::TimingParams{});
    for (const std::string pattern :
         {"round-robin", "ratchet", "jailbreak", "feinting"}) {
        workload::AttackTraceConfig attack;
        attack.pattern = pattern;
        attack.poolRows = pattern == "jailbreak" ? fit - 1 : fit;
        EXPECT_TRUE(workload::checkAttackTrace(attack)) << pattern;
        attack.poolRows += 1;
        std::string why;
        EXPECT_FALSE(workload::checkAttackTrace(attack, &why)) << pattern;
        EXPECT_NE(why.find("does not fit in the bank"), std::string::npos)
            << why;
    }
    workload::AttackTraceConfig tsa;
    tsa.pattern = "tsa";
    EXPECT_EXIT(workload::generateAttackTrace(tsa),
                testing::ExitedWithCode(1), "has no co-attack trace");
}

TEST(AttackTrace, EveryPatternFitsTheSortRangeAtItsLargestBudget)
{
    // maxAttackBudget() bounds every pattern's real last event: the
    // largest budget it admits generates in range, one more is
    // refused. Jailbreak paces its target slower than tRC, so its
    // bound is the tighter one.
    for (const std::string pattern :
         {"hammer", "postponement", "round-robin", "ratchet", "jailbreak",
          "feinting"}) {
        workload::AttackTraceConfig attack;
        attack.pattern = pattern;
        attack.budget = workload::maxAttackBudget(attack);
        ASSERT_TRUE(workload::checkAttackTraceRange(attack)) << pattern;
        const workload::AttackTrace at = workload::generateAttackTrace(attack);
        ASSERT_EQ(at.trace.events.size(), attack.budget) << pattern;
        EXPECT_LT(at.trace.events.back().at, workload::kEventTimeLimit)
            << pattern;
        attack.budget += 1;
        std::string why;
        EXPECT_FALSE(workload::checkAttackTraceRange(attack, &why))
            << pattern;
        EXPECT_NE(why.find("budget of"), std::string::npos) << why;
    }

    // A budget of 0 sizes the stream to the window: at a full tREFW
    // that is ~615k ACTs, which jailbreak's pace stretches past the
    // range, and hammer's tRC pacing keeps inside it.
    workload::AttackTraceConfig full;
    full.window = full.timing.tREFW;
    full.pattern = "hammer";
    EXPECT_TRUE(workload::checkAttackTraceRange(full));
    full.pattern = "jailbreak";
    std::string why;
    EXPECT_FALSE(workload::checkAttackTraceRange(full, &why));
    EXPECT_NE(why.find("budget of 0 (resolving to 615384)"),
              std::string::npos)
        << why;
}

} // namespace
} // namespace moatsim::sim
