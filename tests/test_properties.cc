/**
 * @file
 * Parameterized property tests: invariants that must hold across
 * configuration sweeps (gtest TEST_P suites).
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "analysis/ratchet_model.hh"
#include "attacks/attack.hh"
#include "common/rng.hh"
#include "dram/bank.hh"
#include "dram/security.hh"
#include "mitigation/mitigator.hh"
#include "mitigation/moat.hh"
#include "mitigation/null.hh"
#include "mitigation/registry.hh"
#include "subchannel/subchannel.hh"

namespace moatsim
{
namespace
{

using subchannel::SubChannel;
using subchannel::SubChannelConfig;

/* -------------------------------------------------------------------
 * Property: command timing invariants hold under random traffic.
 * ----------------------------------------------------------------- */

class TimingProperty : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(TimingProperty, RandomTrafficRespectsAllTimingRules)
{
    SubChannelConfig sc;
    sc.numBanks = 4;
    sc.seed = GetParam();
    SubChannel ch(sc, mitigation::NullMitigator{});
    Rng rng(GetParam());
    const Time tRC = ch.timing().tRC;
    const Time tRRD = ch.timing().tRRD;

    std::vector<Time> last_bank(4, -tRC);
    Time last_any = -tRRD;
    for (int i = 0; i < 3000; ++i) {
        const BankId b = static_cast<BankId>(rng.below(4));
        const RowId r = static_cast<RowId>(rng.below(1000));
        const Time t = ch.activate(b, r);
        EXPECT_GE(t - last_bank[b], tRC);
        EXPECT_GE(t - last_any, tRRD);
        last_bank[b] = t;
        last_any = t;
    }
    // REF cadence: one REF per elapsed tREFI.
    EXPECT_EQ(ch.stats().refs,
              static_cast<uint64_t>(ch.now() / ch.timing().tREFI));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimingProperty,
                         ::testing::Values(1, 2, 3, 17, 99));

/* -------------------------------------------------------------------
 * Property: MOAT's security guarantee. Under *adversarial* ratchet
 * traffic, no row ever exceeds the Appendix-A bound for its (ATH, L).
 * ----------------------------------------------------------------- */

class MoatGuarantee
    : public ::testing::TestWithParam<std::tuple<uint32_t, int>>
{
};

TEST_P(MoatGuarantee, RatchetStaysWithinAnalyticalBound)
{
    const auto [ath, level] = GetParam();
    attacks::AttackConfig cfg;
    cfg.pattern = "ratchet";
    cfg.aboLevel = static_cast<abo::Level>(level);
    cfg.poolRows = 512; // sub-optimal pool: must stay under the bound
    const auto r = attacks::runAttack(
        cfg, mitigation::Registry::parse(
                 "moat:ath=" + std::to_string(ath) +
                 ",eth=" + std::to_string(ath / 2) +
                 ",entries=" + std::to_string(level)));
    const auto bound =
        analysis::ratchetBound(cfg.timing, ath, level);
    EXPECT_LE(r.maxHammer, bound.safeTrh + 4)
        << "ATH=" << ath << " L=" << level;
    EXPECT_GT(r.maxHammer, ath); // the attack does exceed ATH itself
}

INSTANTIATE_TEST_SUITE_P(
    AthLevels, MoatGuarantee,
    ::testing::Combine(::testing::Values(32u, 64u, 128u),
                       ::testing::Values(1, 2, 4)));

/* -------------------------------------------------------------------
 * Property: MOAT under random benign traffic never lets any row's
 * hammer count grow past the stop-the-world bound by much, and every
 * ALERT mitigation resets the right counter.
 * ----------------------------------------------------------------- */

class MoatRandomTraffic : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(MoatRandomTraffic, HammerBoundedUnderHotSpotTraffic)
{
    SubChannelConfig sc;
    sc.numBanks = 1;
    sc.seed = GetParam();
    mitigation::MoatConfig moat;
    SubChannel ch(sc, mitigation::MoatMitigator(moat));
    Rng rng(GetParam() * 7919);
    // Hot-spot traffic: 8 hot rows get half the accesses.
    const RowId hot_base = 30000;
    for (int i = 0; i < 40000; ++i) {
        RowId r;
        if (rng.chance(0.5))
            r = hot_base + 8 * static_cast<RowId>(rng.below(8));
        else
            r = static_cast<RowId>(rng.below(60000));
        ch.activate(0, r);
    }
    // Hammer counts stay below the ratchet bound for ATH=64, L1 (99),
    // with margin for the randomness.
    EXPECT_LE(ch.security(0).maxHammer(), 99u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MoatRandomTraffic,
                         ::testing::Values(5, 23, 71));

/* -------------------------------------------------------------------
 * Property: MitigationJob refreshes exactly the victim set for any
 * blast radius and aggressor position.
 * ----------------------------------------------------------------- */

class JobProperty
    : public ::testing::TestWithParam<std::tuple<uint32_t, RowId>>
{
};

TEST_P(JobProperty, VictimSetExact)
{
    const auto [radius, aggressor] = GetParam();
    dram::TimingParams t;
    t.rowsPerBank = 64;
    t.refreshGroups = 8;
    dram::Bank bank(t);
    dram::SecurityMonitor security(64, radius);
    mitigation::MitigationStats stats;
    mitigation::MitigationContext ctx(bank, security, stats);

    // Damage every row, then mitigate and check exactly the victims
    // were refreshed.
    for (RowId r = 1; r + 1 < 64; ++r)
        security.onActivate(r);

    mitigation::MitigationJob job(aggressor, radius, true);
    job.runToCompletion(ctx, false);

    uint32_t expected_victims = 0;
    for (int64_t off = -static_cast<int64_t>(radius);
         off <= static_cast<int64_t>(radius); ++off) {
        if (off == 0)
            continue;
        const int64_t v = static_cast<int64_t>(aggressor) + off;
        if (v < 0 || v >= 64)
            continue;
        ++expected_victims;
        EXPECT_EQ(security.damage(static_cast<RowId>(v)), 0u)
            << "victim " << v;
    }
    EXPECT_EQ(stats.victimRefreshes, expected_victims);
    EXPECT_EQ(bank.counter(aggressor), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    RadiusPosition, JobProperty,
    ::testing::Combine(::testing::Values(1u, 2u, 3u),
                       ::testing::Values<RowId>(0, 1, 30, 62, 63)));

/* -------------------------------------------------------------------
 * Property: the analytical ratchet bound is monotone in ATH and
 * anti-monotone in level for every ATH in a fine sweep.
 * ----------------------------------------------------------------- */

class RatchetBoundSweep : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(RatchetBoundSweep, OrderedAcrossLevels)
{
    const uint32_t ath = GetParam();
    dram::TimingParams t;
    const double l1 = analysis::ratchetBound(t, ath, 1).safeTrh;
    const double l2 = analysis::ratchetBound(t, ath, 2).safeTrh;
    const double l4 = analysis::ratchetBound(t, ath, 4).safeTrh;
    EXPECT_GT(l1, l2);
    EXPECT_GT(l2, l4);
    EXPECT_GT(l4, static_cast<double>(ath));
}

INSTANTIATE_TEST_SUITE_P(AthSweep, RatchetBoundSweep,
                         ::testing::Range(8u, 129u, 8u));

/* -------------------------------------------------------------------
 * Property: SubChannel determinism — identical seeds and command
 * streams give identical timing and state.
 * ----------------------------------------------------------------- */

class Determinism : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(Determinism, SameSeedSameTimeline)
{
    auto run = [&](uint64_t seed) {
        SubChannelConfig sc;
        sc.numBanks = 2;
        sc.seed = seed;
        mitigation::MoatConfig moat;
        SubChannel ch(sc, mitigation::MoatMitigator(moat));
        Rng rng(seed);
        for (int i = 0; i < 5000; ++i) {
            ch.activate(static_cast<BankId>(rng.below(2)),
                        static_cast<RowId>(rng.below(4000)));
        }
        return std::make_tuple(ch.now(), ch.abo().alertCount(),
                               ch.mitigationStats().totalMitigations(),
                               ch.security(0).maxHammer());
    };
    EXPECT_EQ(run(GetParam()), run(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, Determinism,
                         ::testing::Values(11, 12, 13));

} // namespace
} // namespace moatsim
