/**
 * @file
 * End-to-end tests of the attack suite against the paper's claims.
 * These are the repository's most important tests: they reproduce the
 * headline security numbers of Sections 3, 5, 7 and Appendices A/B.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "analysis/ratchet_model.hh"
#include "attacks/attack.hh"
#include "mitigation/registry.hh"
#include "subchannel/subchannel.hh"

namespace moatsim::attacks
{
namespace
{

dram::TimingParams kT;

TEST(AttackDriver, DrainsToQuiescenceAtEveryAboLevel)
{
    // Regression for the hard-coded post-attack drain: a fixed
    // advanceTo(now + 2000 ns) cut off ALERT/recovery work that was
    // still pending at high ABO levels, so alerts and duration
    // undercounted. The driver must now match a manual replay of the
    // same command stream drained to full quiescence -- most
    // importantly at the highest level, L4, where the RFM block and
    // the inter-ALERT activation minimum stretch recovery the most.
    for (const abo::Level level :
         {abo::Level::L1, abo::Level::L2, abo::Level::L4}) {
        for (const char *mname : {"moat", "panopticon"}) {
            AttackConfig cfg;
            cfg.pattern = "hammer";
            cfg.budget = 512;
            cfg.aboLevel = level;
            const auto spec = mitigation::Registry::parse(mname);
            const AttackResult r = runAttack(cfg, spec);

            subchannel::SubChannelConfig sc;
            sc.timing = cfg.timing;
            sc.numBanks = 1;
            sc.aboLevel = level;
            subchannel::SubChannel ch(sc, spec.factory());
            const RowId target = cfg.timing.rowsPerBank / 2;
            for (uint64_t i = 0; i < cfg.budget; ++i)
                ch.activate(0, target);
            ch.drainToQuiescence(ch.timing().tREFW);

            EXPECT_FALSE(ch.alertWorkPending())
                << mname << " L" << abo::levelValue(level)
                << ": drain left pending ALERT/mitigation work";
            EXPECT_EQ(r.alerts, ch.abo().alertCount())
                << mname << " L" << abo::levelValue(level);
            EXPECT_EQ(r.duration, ch.now())
                << mname << " L" << abo::levelValue(level);
            EXPECT_EQ(r.maxHammer, ch.security(0).maxHammer())
                << mname << " L" << abo::levelValue(level);
        }
    }
}

TEST(AttackDriver, DurationIsTheTrueEndOfRecoveryNotAFixedWindow)
{
    // The old driver reported duration = last ACT + 2000 ns
    // unconditionally: dead air when nothing was pending, and a
    // cut-off when the recovery (RFM block + REF busy) ran longer.
    // Against the null design nothing is ever pending, so duration is
    // exactly the last ACT's issue time.
    AttackConfig cfg;
    cfg.pattern = "hammer";
    cfg.budget = 256;
    const AttackResult r =
        runAttack(cfg, mitigation::Registry::parse("null"));

    subchannel::SubChannelConfig sc;
    sc.timing = cfg.timing;
    sc.numBanks = 1;
    subchannel::SubChannel ch(sc,
                              mitigation::Registry::parse("null").factory());
    const RowId target = cfg.timing.rowsPerBank / 2;
    for (uint64_t i = 0; i < cfg.budget; ++i)
        ch.activate(0, target);
    EXPECT_FALSE(ch.alertWorkPending());
    EXPECT_EQ(r.duration, ch.now());
    EXPECT_EQ(r.alerts, 0u);
}

TEST(AttackDriver, HighestLevelRecoveryInFlightAtStreamEndIsServiced)
{
    // Find a budget whose final ACT leaves the L4 ALERT recovery
    // still in flight (the undercount scenario of the old fixed
    // window), then check the driver services it: the reported
    // duration strictly covers the post-attack recovery and the
    // channel the driver simulated reached quiescence.
    const auto spec = mitigation::Registry::parse("moat");
    auto makeChannel = [&] {
        subchannel::SubChannelConfig sc;
        sc.numBanks = 1;
        sc.aboLevel = abo::Level::L4;
        return subchannel::SubChannel(sc, spec.factory());
    };

    uint64_t budget = 0;
    for (uint64_t b = 60; b <= 512 && budget == 0; ++b) {
        subchannel::SubChannel probe = makeChannel();
        const RowId target = probe.timing().rowsPerBank / 2;
        for (uint64_t i = 0; i < b; ++i)
            probe.activate(0, target);
        if (probe.alertWorkPending())
            budget = b;
    }
    ASSERT_NE(budget, 0u)
        << "no budget leaves recovery in flight; scenario extinct?";

    AttackConfig cfg;
    cfg.pattern = "hammer";
    cfg.budget = budget;
    cfg.aboLevel = abo::Level::L4;
    const AttackResult r = runAttack(cfg, spec);

    subchannel::SubChannel ch = makeChannel();
    const RowId target = ch.timing().rowsPerBank / 2;
    for (uint64_t i = 0; i < budget; ++i)
        ch.activate(0, target);
    const Time last_act = ch.now();
    ch.drainToQuiescence(ch.timing().tREFW);

    EXPECT_FALSE(ch.alertWorkPending());
    EXPECT_GT(r.duration, last_act);
    EXPECT_EQ(r.duration, ch.now());
    EXPECT_EQ(r.alerts, ch.abo().alertCount());
}

/** An attack of @p pattern with every knob at its default. */
AttackConfig
patternConfig(const char *pattern)
{
    AttackConfig cfg;
    cfg.pattern = pattern;
    return cfg;
}

TEST(AttackPatterns, TableGivesEachPatternItsDesign)
{
    const std::pair<const char *, const char *> targets[] = {
        {"ratchet", "moat"},
        {"jailbreak", "panopticon"},
        {"feinting", "ideal-prc"},
        {"postponement", "panopticon"},
        {"kernel", "moat"},
        {"tsa", "moat"}};
    for (const auto &[pattern, design] : targets) {
        const AttackPattern *p = findAttackPattern(pattern);
        ASSERT_NE(p, nullptr) << pattern;
        EXPECT_EQ(p->defaultDesign(), design);
        EXPECT_TRUE(checkAttack(patternConfig(pattern),
                                mitigation::Registry::parse(design)));
    }
    // The generic patterns run against every design, moat by default.
    for (const char *pattern : {"hammer", "round-robin"}) {
        ASSERT_NE(findAttackPattern(pattern), nullptr);
        EXPECT_EQ(findAttackPattern(pattern)->defaultDesign(), "moat");
        for (const auto &name : mitigation::Registry::names()) {
            EXPECT_TRUE(checkAttack(patternConfig(pattern),
                                    mitigation::Registry::parse(name)))
                << pattern << " vs " << name;
        }
    }
    EXPECT_EQ(findAttackPattern("rowpress"), nullptr);
    EXPECT_EQ(attackPatterns().size(), 8u);
}

TEST(AttackPatterns, CheckRejectsWhatTheDriversCannotHonor)
{
    const auto rejects = [](const AttackConfig &cfg, const char *spec,
                            const std::string &needle) {
        std::string err;
        EXPECT_FALSE(
            checkAttack(cfg, mitigation::Registry::parse(spec), &err))
            << cfg.pattern << " vs " << spec;
        EXPECT_NE(err.find(needle), std::string::npos) << err;
    };
    rejects(patternConfig("ratchet"), "panopticon",
            "targets the 'moat' design");
    rejects(patternConfig("jailbreak"), "moat",
            "targets the 'panopticon' design");
    rejects(patternConfig("feinting"), "ideal-prc:min-count=4",
            "'min-count'");
    rejects(patternConfig("feinting"), "ideal-prc:blast=1", "'blast'");
    rejects(patternConfig("postponement"), "panopticon:drain-all=false",
            "'drain-all=false'");
    rejects(patternConfig("tsa"), "panopticon", "targets the 'moat' design");
    rejects(patternConfig("rowpress"), "moat",
            "unknown attack pattern 'rowpress'");
    // The settings a driver does honor pass: feinting's period, and the
    // drain-all policy the postponement driver forces anyway.
    EXPECT_TRUE(checkAttack(patternConfig("feinting"),
                            mitigation::Registry::parse("ideal-prc:period=8")));
    EXPECT_TRUE(checkAttack(
        patternConfig("postponement"),
        mitigation::Registry::parse("panopticon:drain-all=true")));
    // runAttack() itself refuses with the same message.
    EXPECT_EXIT(runAttack(patternConfig("ratchet"),
                          mitigation::Registry::parse("panopticon")),
                testing::ExitedWithCode(1), "targets the 'moat' design");
}

TEST(AttackPatterns, CheckRejectsKnobsTheDriverNeverReads)
{
    // Each driver reads only the knobs its table row lists; a non-zero
    // other knob would change nothing but the cell key.
    const auto with = [](const char *pattern, uint32_t pool,
                         uint64_t budget, uint32_t trials,
                         uint32_t banks = 0) {
        AttackConfig cfg = patternConfig(pattern);
        cfg.poolRows = pool;
        cfg.budget = budget;
        cfg.trials = trials;
        cfg.banks = banks;
        return cfg;
    };
    const auto rejects = [](const AttackConfig &cfg,
                            const std::string &needle) {
        const auto spec = mitigation::Registry::parse(
            findAttackPattern(cfg.pattern)->defaultDesign());
        std::string err;
        EXPECT_FALSE(checkAttack(cfg, spec, &err)) << cfg.pattern;
        EXPECT_NE(err.find(needle), std::string::npos) << err;
    };
    rejects(with("ratchet", 0, 100, 0), "does not read 'budget' (got 100");
    rejects(with("ratchet", 0, 0, 8), "does not read 'trials'");
    rejects(with("feinting", 0, 100, 0), "does not read 'budget'");
    rejects(with("hammer", 0, 0, 8), "does not read 'trials'");
    rejects(with("hammer", 4, 0, 0), "does not read 'pool_rows'");
    rejects(with("jailbreak", 16, 0, 0), "does not read 'pool_rows'");
    rejects(with("postponement", 16, 0, 0), "does not read 'pool_rows'");
    rejects(with("postponement", 0, 100, 0),
            "does not read 'budget' (got 100; it reads trials)");
    rejects(with("round-robin", 8, 64, 2), "does not read 'trials'");
    // Only the throughput attacks drive more than one bank.
    for (const char *pattern :
         {"hammer", "round-robin", "ratchet", "jailbreak", "feinting",
          "postponement"})
        rejects(with(pattern, 0, 0, 0, 4), "does not read 'banks' (got 4");
    rejects(with("tsa", 0, 100, 0, 4), "does not read 'budget'");
    rejects(with("kernel", 0, 0, 8), "does not read 'trials'");
    // The knobs a driver does read pass.
    for (const AttackConfig &cfg :
         {with("hammer", 0, 100, 0), with("round-robin", 8, 64, 0),
          with("ratchet", 32, 0, 0), with("jailbreak", 0, 1024, 0),
          with("feinting", 64, 0, 0), with("postponement", 0, 0, 8),
          with("kernel", 1, 0, 0, 4), with("tsa", 5, 0, 0, 17)}) {
        std::string err;
        EXPECT_TRUE(checkAttack(
            cfg,
            mitigation::Registry::parse(
                findAttackPattern(cfg.pattern)->defaultDesign()),
            &err))
            << err;
    }
}

/** checkAttack() of @p cfg against the pattern's own design, or the
 *  design @p spec names; its refusal in @p err. */
bool
checkAgainst(const AttackConfig &cfg, std::string *err = nullptr,
             const std::string &spec = "")
{
    return checkAttack(
        cfg,
        mitigation::Registry::parse(
            spec.empty() ? findAttackPattern(cfg.pattern)->defaultDesign()
                         : spec),
        err);
}

TEST(AttackPatterns, CheckRejectsAPoolThePatternCannotRun)
{
    // Every driver that reads pool_rows runs at most some pool; one row
    // more is refused up front, naming the knob, instead of clamped or
    // fatal() inside the driver.
    const auto check = [](const char *pattern, uint32_t banks,
                          uint32_t most) {
        AttackConfig cfg = patternConfig(pattern);
        cfg.banks = banks;
        cfg.poolRows = most;
        std::string err;
        EXPECT_TRUE(checkAgainst(cfg, &err)) << pattern << ": " << err;
        cfg.poolRows = most + 1;
        EXPECT_FALSE(checkAgainst(cfg, &err)) << pattern << " at " << banks;
        EXPECT_NE(err.find("runs a pool of at most " +
                           std::to_string(most) + " rows"),
                  std::string::npos)
            << err;
        EXPECT_NE(err.find("pool_rows=" + std::to_string(most + 1)),
                  std::string::npos)
            << err;
    };
    // Round-robin, ratchet and feinting: what fits in the 64K-row bank.
    check("round-robin", 0, 5461);
    check("ratchet", 0, 10918);
    check("feinting", 0, 10922);
    // The throughput attacks: pools every bank can raise to ATH = 64
    // in half the refresh window, at tRC per bank up to 17 banks and
    // at the tFAW limit beyond.
    check("kernel", 0, 4303);
    check("tsa", 0, 4303);
    check("tsa", 1, 4303);
    check("tsa", 17, 4303);
    check("tsa", dram::kTable3BanksPerSubchannel, 2330);
}

TEST(AttackPatterns, CheckRejectsALayoutTheBankCannotHold)
{
    // The limits of the knobs that lay rows out or count activations,
    // at the Table-3 geometry: the largest passes, one more is refused
    // with a message naming the knob.
    std::string err;
    // Postponement: trial t hammers row 4096 + 128 t.
    AttackConfig trials = patternConfig("postponement");
    trials.trials = 480;
    EXPECT_TRUE(checkAgainst(trials, &err)) << err;
    trials.trials = 481;
    EXPECT_FALSE(checkAgainst(trials, &err));
    EXPECT_NE(err.find("at most 480 trials"), std::string::npos) << err;
    EXPECT_NE(err.find("trials=481"), std::string::npos) << err;

    // Jailbreak: one row per queue entry from mid-bank, 8 rows apart.
    const AttackConfig jailbreak = patternConfig("jailbreak");
    EXPECT_TRUE(checkAgainst(jailbreak, &err, "panopticon:entries=4096"))
        << err;
    EXPECT_FALSE(checkAgainst(jailbreak, &err, "panopticon:entries=4097"));
    EXPECT_NE(err.find("at most 4096 entries"), std::string::npos) << err;
    EXPECT_NE(err.find("entries=4097"), std::string::npos) << err;

    // Jailbreak counts its budget in 32 bits: 2^32 is refused, not
    // clamped onto the cell of 2^32 - 1.
    AttackConfig budget = jailbreak;
    budget.budget = 0xffffffffULL;
    EXPECT_TRUE(checkAgainst(budget, &err)) << err;
    ++budget.budget;
    EXPECT_FALSE(checkAgainst(budget, &err));
    EXPECT_NE(err.find("budget=4294967296"), std::string::npos) << err;

    // The throughput attacks drive at most every bank of a sub-channel.
    for (const char *pattern : {"kernel", "tsa"}) {
        AttackConfig banks = patternConfig(pattern);
        banks.banks = dram::kTable3BanksPerSubchannel;
        EXPECT_TRUE(checkAgainst(banks, &err)) << err;
        ++banks.banks;
        EXPECT_FALSE(checkAgainst(banks, &err)) << pattern;
        EXPECT_NE(err.find("a sub-channel of at most 32 banks"),
                  std::string::npos)
            << err;
        EXPECT_NE(err.find("banks=33"), std::string::npos) << err;
    }
}

TEST(AttackPatterns, PlanIsWhatTheDriverRuns)
{
    // The plan resolves the defaults the driver runs and prices them:
    // ratchet's default pool is the Appendix-A optimum Nc.
    const auto moat = mitigation::Registry::parse("moat");
    const AttackPlan ratchet = planAttack(patternConfig("ratchet"), moat);
    EXPECT_EQ(ratchet.refusal, "");
    EXPECT_EQ(ratchet.knobs.poolRows,
              analysis::ratchetBound(kT, 64, 1).maxPoolRows);
    EXPECT_EQ(ratchet.acts, uint64_t{ratchet.knobs.poolRows} * 65);
    // The other defaults.
    const auto planned = [](const char *pattern) {
        return planAttack(patternConfig(pattern),
                          mitigation::Registry::parse(
                              findAttackPattern(pattern)->defaultDesign()))
            .knobs;
    };
    EXPECT_EQ(planned("hammer").budget, 4096u);
    EXPECT_EQ(planned("round-robin").poolRows, 8u);
    EXPECT_EQ(planned("round-robin").budget, 8u * 512);
    EXPECT_EQ(planned("jailbreak").budget, 128u * 10);
    EXPECT_EQ(planned("postponement").trials, 256u);
    EXPECT_EQ(planned("kernel").poolRows, 5u);
    EXPECT_EQ(planned("tsa").banks, 1u);
    // A refused request comes back with its reason and no price.
    const AttackPlan wrong =
        planAttack(patternConfig("ratchet"),
                   mitigation::Registry::parse("panopticon"));
    EXPECT_NE(wrong.refusal.find("targets the 'moat' design"),
              std::string::npos);
    EXPECT_EQ(wrong.acts, 0u);
}

TEST(AttackPatterns, LargestLayoutsRunToCompletion)
{
    // The largest postponement sweep and the deepest Jailbreak queue
    // the bank holds run through, every row inside the bank.
    AttackConfig trials = patternConfig("postponement");
    trials.trials = 480;
    const AttackResult p =
        runAttack(trials, mitigation::Registry::parse("panopticon"));
    EXPECT_GT(p.maxHammer, 128u);
    const AttackResult j =
        runAttack(patternConfig("jailbreak"),
                  mitigation::Registry::parse("panopticon:entries=4096"));
    EXPECT_GT(j.maxHammer, 128u);
    EXPECT_GT(j.totalActs, 128u * 4096);
}

TEST(AttackDriver, ResultNamesItsPatternAndDesign)
{
    AttackConfig cfg;
    cfg.budget = 64;
    const auto spec = mitigation::Registry::parse("moat:ath=32");
    const AttackResult r = runAttack(cfg, spec);
    EXPECT_EQ(r.pattern, "hammer");
    EXPECT_EQ(r.mitigator, spec.describe());
}

/** runAttack() of @p cfg against the design @p spec names. */
AttackResult
runAgainst(const AttackConfig &cfg, const std::string &spec)
{
    return runAttack(cfg, mitigation::Registry::parse(spec));
}

TEST(Jailbreak, DeterministicReaches1152)
{
    // Section 3.2: 128 + 8*128 = 1152 ACTs, 9x the threshold, with no
    // ALERT ever raised, at the paper's 1024-ACT hammer budget.
    AttackConfig cfg = patternConfig("jailbreak");
    cfg.budget = 1024;
    const AttackResult r = runAgainst(cfg, "panopticon");
    EXPECT_EQ(r.maxHammer, 1152u);
    EXPECT_EQ(r.alerts, 0u);
}

TEST(Jailbreak, DeterministicScalesWithQueueDepth)
{
    // The accrual while queued is queueEntries * threshold on top of
    // the initial threshold, plus up to one more threshold of ACTs
    // while the target's own mitigation is in flight.
    AttackConfig cfg = patternConfig("jailbreak");
    cfg.budget = 1024;
    const AttackResult r = runAgainst(cfg, "panopticon:entries=4");
    EXPECT_GE(r.maxHammer, 128u * 5);
    EXPECT_LE(r.maxHammer, 128u * 6 + 8);
    EXPECT_EQ(r.alerts, 0u);
}

TEST(Ratchet, MicroExampleMatchesFigure9)
{
    // Four rows, ABO level 4, a single-entry MOAT that mitigates one
    // row per ALERT: the last row reaches exactly ATH + 15.
    for (uint32_t ath : {32u, 64u, 128u}) {
        AttackConfig cfg = patternConfig("ratchet");
        cfg.aboLevel = abo::Level::L4;
        cfg.poolRows = 4;
        const AttackResult r = runAgainst(
            cfg, "moat:ath=" + std::to_string(ath) +
                     ",eth=" + std::to_string(ath / 2) + ",entries=1");
        EXPECT_EQ(r.maxHammer, ath + 15) << "ATH=" << ath;
    }
}

TEST(Ratchet, FullAttackApproachesAnalyticalBound)
{
    // ATH=64, L1: TRH_safe = 99; the simulated attack must come within
    // a few activations of the bound (and may slightly exceed it, the
    // model is approximate in F(N)).
    const AttackResult r = runAgainst(patternConfig("ratchet"), "moat");
    const double bound = analysis::ratchetBound(kT, 64, 1).safeTrh;
    EXPECT_GE(r.maxHammer, bound - 6);
    EXPECT_LE(r.maxHammer, bound + 6);
    // One ALERT per pool row (the torrent mitigates one row each).
    EXPECT_NEAR(static_cast<double>(r.alerts),
                static_cast<double>(analysis::ratchetBound(kT, 64, 1)
                                        .maxPoolRows),
                16.0);
}

TEST(Ratchet, SmallerPoolYieldsFewerExtraActs)
{
    AttackConfig small = patternConfig("ratchet");
    small.poolRows = 64;
    AttackConfig big = patternConfig("ratchet");
    big.poolRows = 2048;
    const auto rs = runAgainst(small, "moat");
    const auto rb = runAgainst(big, "moat");
    EXPECT_LT(rs.maxHammer, rb.maxHammer);
    EXPECT_GT(rs.maxHammer, 64u); // still above ATH
}

TEST(Feinting, Table2Rates)
{
    // Simulated feinting lands within 5% of the analytical bound for
    // the paper's five mitigation rates (Table 2).
    const double expected[] = {638, 1188, 1702, 2195, 2669};
    for (uint32_t k = 4; k <= 5; ++k) { // all five in the claims table
        const AttackResult r = runAgainst(
            patternConfig("feinting"),
            "ideal-prc:period=" + std::to_string(k));
        EXPECT_NEAR(r.maxHammer, expected[k - 1], expected[k - 1] * 0.05)
            << "k=" << k;
    }
}

TEST(Feinting, NoAlertsFromTransparentScheme)
{
    AttackConfig cfg = patternConfig("feinting");
    cfg.poolRows = 128; // quick run
    EXPECT_EQ(runAgainst(cfg, "ideal-prc:period=4").alerts, 0u);
}

TEST(Postponement, DrainAllBrokenAt328)
{
    // Figure 16: 128 + 200 = 328 activations (2.6x the threshold).
    // The window postponement opens is pinned against its no-postpone
    // control in SubChannel.PostponementWindowAllows201Acts.
    const AttackResult r =
        runAgainst(patternConfig("postponement"), "panopticon");
    EXPECT_GE(r.maxHammer, 320u);
    EXPECT_LE(r.maxHammer, 336u);
}

/** The throughput attack @p pattern on @p banks banks of @p pool rows
 *  each, against the default MOAT. */
AttackResult
throughputAttack(const char *pattern, uint32_t banks, uint32_t pool = 0)
{
    AttackConfig cfg = patternConfig(pattern);
    cfg.banks = banks;
    cfg.poolRows = pool;
    return runAgainst(cfg, "moat");
}

TEST(PerfAttack, SingleRowKernelLosesUnderTenPercent)
{
    const auto r = throughputAttack("kernel", 1, 1);
    EXPECT_GT(r.lossFraction, 0.02);
    EXPECT_LT(r.lossFraction, 0.12);
}

TEST(PerfAttack, FiveRowKernelLosesTenPercent)
{
    const auto r = throughputAttack("kernel", 1, 5);
    EXPECT_NEAR(r.lossFraction, 0.10, 0.03);
}

TEST(PerfAttack, SynchronizedMultiBankSameAsSingle)
{
    // Section 7.2: synchronized multi-bank attacks gain nothing.
    const auto r = throughputAttack("kernel", 4);
    EXPECT_LT(r.lossFraction, 0.2);
}

TEST(PerfAttack, TsaStaggeringBeatsSynchronized)
{
    const auto sync = throughputAttack("kernel", 4);
    const auto tsa = throughputAttack("tsa", 4);
    EXPECT_GT(tsa.lossFraction, 2 * sync.lossFraction);
}

TEST(PerfAttack, TsaLossGrowsWithBanks)
{
    double prev = 0;
    for (uint32_t k : {1u, 4u, 17u}) {
        const double loss = throughputAttack("tsa", k).lossFraction;
        EXPECT_GT(loss, prev);
        prev = loss;
    }
}

} // namespace
} // namespace moatsim::attacks
