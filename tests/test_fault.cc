/**
 * @file
 * The common/fault.hh contract: the site@rate[:seed] plan grammar
 * (with unknown-site and bad-rate rejection), deterministic seeded
 * firing sequences that reproduce across re-arms, rate-proportional
 * firing, wildcard site matching, failPoint() exceptions carrying
 * their site, per-spec evaluation counters, and a disarmed framework
 * that never fires.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/fault.hh"

namespace moatsim::fault
{
namespace
{

/** Arms a plan for the test body and disarms on scope exit, so no
 *  test leaks an armed plan into the rest of the binary. */
class ArmedScope
{
  public:
    explicit ArmedScope(const std::string &text) { arm(text); }
    ~ArmedScope() { disarm(); }
    ArmedScope(const ArmedScope &) = delete;
    ArmedScope &operator=(const ArmedScope &) = delete;
};

/** The fired/not-fired sequence of @p site's next @p n evaluations. */
std::vector<bool>
drawSequence(const char *site, size_t n)
{
    std::vector<bool> fired;
    fired.reserve(n);
    for (size_t i = 0; i < n; ++i)
        fired.push_back(shouldFail(site));
    return fired;
}

TEST(FaultPlan, ParsesSpecsRatesAndSeeds)
{
    Plan plan;
    std::string err;
    ASSERT_TRUE(tryParsePlan("serve.send@0.25:7,sweep.compute@1", &plan,
                             &err))
        << err;
    ASSERT_EQ(plan.specs.size(), 2u);
    EXPECT_EQ(plan.specs[0].site, "serve.send");
    EXPECT_DOUBLE_EQ(plan.specs[0].rate, 0.25);
    EXPECT_EQ(plan.specs[0].seed, 7u);
    EXPECT_EQ(plan.specs[1].site, "sweep.compute");
    EXPECT_DOUBLE_EQ(plan.specs[1].rate, 1.0);
    EXPECT_EQ(plan.specs[1].seed, 1u) << "default seed";
}

TEST(FaultPlan, RejectsMalformedText)
{
    Plan plan;
    std::string err;
    // A typo must not silently arm nothing: unknown sites are errors.
    EXPECT_FALSE(tryParsePlan("serve.snd@0.5", &plan, &err));
    EXPECT_NE(err.find("serve.snd"), std::string::npos) << err;
    EXPECT_FALSE(tryParsePlan("serve.send@1.5", &plan, &err))
        << "rate > 1";
    EXPECT_FALSE(tryParsePlan("serve.send@-0.1", &plan, &err))
        << "rate < 0";
    EXPECT_FALSE(tryParsePlan("serve.send", &plan, &err)) << "no rate";
    EXPECT_FALSE(tryParsePlan("serve.send@abc", &plan, &err));
    EXPECT_FALSE(tryParsePlan("serve.send@0.5:", &plan, &err))
        << "empty seed";
    // Seeds are digits only: strtoull used to wrap -1 to 2^64-1.
    EXPECT_FALSE(tryParsePlan("serve.send@0.5:-1", &plan, &err))
        << "negative seed";
    EXPECT_NE(err.find("seed"), std::string::npos) << err;
    EXPECT_FALSE(tryParsePlan("serve.send@0.5:18446744073709551616", &plan,
                              &err))
        << "seed beyond 64 bits";
    EXPECT_FALSE(tryParsePlan("serve.send@ 0.5", &plan, &err))
        << "leading space in the rate";
    EXPECT_FALSE(tryParsePlan("serve.send@nan", &plan, &err))
        << "NaN is not a rate in [0, 1]";
    EXPECT_FALSE(tryParsePlan("@0.5", &plan, &err)) << "empty site";
    EXPECT_FALSE(tryParsePlan(",", &plan, &err));
}

TEST(FaultPlan, AcceptsEveryKnownSiteAndWildcards)
{
    Plan plan;
    std::string err;
    EXPECT_FALSE(knownSites().empty());
    for (const auto &site : knownSites())
        EXPECT_TRUE(tryParsePlan(site + "@0.5", &plan, &err))
            << site << ": " << err;
    EXPECT_TRUE(tryParsePlan("serve.*@0.5", &plan, &err)) << err;
    EXPECT_TRUE(tryParsePlan("*@0.01", &plan, &err)) << err;
    EXPECT_FALSE(tryParsePlan("nosuch.*@0.5", &plan, &err))
        << "a wildcard must cover at least one known site";
}

TEST(Fault, DisarmedNeverFiresAndCountsNothing)
{
    disarm();
    EXPECT_FALSE(armed());
    for (int i = 0; i < 64; ++i)
        EXPECT_FALSE(shouldFail("sweep.compute"));
    EXPECT_NO_THROW(failPoint("sweep.compute"));
    EXPECT_TRUE(stats().empty());
}

TEST(Fault, FiringSequenceIsSeededAndReproducible)
{
    constexpr size_t kDraws = 256;
    std::vector<bool> first;
    {
        ArmedScope plan("sweep.compute@0.5:11");
        first = drawSequence("sweep.compute", kDraws);
    }
    std::vector<bool> again;
    {
        ArmedScope plan("sweep.compute@0.5:11");
        again = drawSequence("sweep.compute", kDraws);
    }
    std::vector<bool> reseeded;
    {
        ArmedScope plan("sweep.compute@0.5:12");
        reseeded = drawSequence("sweep.compute", kDraws);
    }
    EXPECT_EQ(first, again) << "same seed, same sequence";
    EXPECT_NE(first, reseeded) << "different seed, different sequence";
    // The sequence mixes fires and passes (rate 0.5 over 256 draws).
    EXPECT_NE(first, std::vector<bool>(kDraws, true));
    EXPECT_NE(first, std::vector<bool>(kDraws, false));
}

TEST(Fault, FiredFractionTracksTheRate)
{
    ArmedScope plan("serve.send@0.25:3");
    constexpr size_t kDraws = 4096;
    size_t fired = 0;
    for (size_t i = 0; i < kDraws; ++i)
        fired += shouldFail("serve.send") ? 1 : 0;
    // A crude band, but the draw is a pure hash so this never flakes.
    EXPECT_GT(fired, kDraws / 8) << "well above zero";
    EXPECT_LT(fired, kDraws / 2) << "well below half";
}

TEST(Fault, RateZeroNeverFiresRateOneAlwaysFires)
{
    ArmedScope plan("serve.send@0,serve.recv@1");
    for (int i = 0; i < 128; ++i) {
        EXPECT_FALSE(shouldFail("serve.send"));
        EXPECT_TRUE(shouldFail("serve.recv"));
    }
}

TEST(Fault, WildcardCoversEveryPrefixedSite)
{
    ArmedScope plan("serve.*@1");
    EXPECT_TRUE(shouldFail("serve.send"));
    EXPECT_TRUE(shouldFail("serve.recv"));
    EXPECT_TRUE(shouldFail("serve.accept"));
    EXPECT_FALSE(shouldFail("sweep.compute"))
        << "outside the prefix, never covered";
    EXPECT_FALSE(shouldFail("result-store.read"));
}

TEST(Fault, FailPointThrowsInjectedFaultCarryingItsSite)
{
    ArmedScope plan("trace-store.generate@1");
    try {
        failPoint("trace-store.generate");
        FAIL() << "rate 1 must throw";
    } catch (const InjectedFault &e) {
        EXPECT_EQ(e.site(), "trace-store.generate");
        EXPECT_NE(std::string(e.what()).find("trace-store.generate"),
                  std::string::npos);
    }
    EXPECT_NO_THROW(failPoint("serve.send")) << "uncovered site";
}

TEST(Fault, StatsCountEvaluationsAndFiresPerSpec)
{
    ArmedScope plan("sweep.compute@1:5,serve.send@0:5");
    for (int i = 0; i < 10; ++i)
        shouldFail("sweep.compute");
    for (int i = 0; i < 4; ++i)
        shouldFail("serve.send");
    shouldFail("serve.recv"); // uncovered: counts nowhere
    const auto st = stats();
    ASSERT_EQ(st.size(), 2u);
    EXPECT_EQ(st[0].site, "sweep.compute");
    EXPECT_EQ(st[0].evaluations, 10u);
    EXPECT_EQ(st[0].fired, 10u);
    EXPECT_EQ(st[1].site, "serve.send");
    EXPECT_EQ(st[1].evaluations, 4u);
    EXPECT_EQ(st[1].fired, 0u);
}

TEST(Fault, RearmingResetsCounters)
{
    ArmedScope plan("sweep.compute@0.5:9");
    drawSequence("sweep.compute", 32);
    arm("sweep.compute@0.5:9");
    const auto st = stats();
    ASSERT_EQ(st.size(), 1u);
    EXPECT_EQ(st[0].evaluations, 0u);
    EXPECT_EQ(st[0].fired, 0u);
}

} // namespace
} // namespace moatsim::fault
