/**
 * @file
 * The claims table (tests/claims/paper.jsonl) at the ctest window:
 * every row's request runs through the library runner with the perf
 * and co-attack window scaled to a quarter (attack rows unchanged), and
 * each row must come out as the table records -- the same outcome
 * `moatsim reproduce` finds at full scale. Then the runner's failure
 * paths: a malformed row, a metric that is no result field, and a row
 * on either wrong side of its band. None of them may fatal().
 */

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "sim/claims.hh"

namespace moatsim::sim
{
namespace
{

/** Fresh in-memory stores, immune to ambient env knobs. */
ExperimentStores
freshStores()
{
    ExperimentStores stores;
    ResultStore::Config results;
    results.enabled = true;
    stores.results = std::make_shared<ResultStore>(results);
    stores.traces = std::make_shared<workload::TraceStore>();
    stores.baselines = std::make_shared<BaselineCache>();
    return stores;
}

/** @p text decoded as a claims table; empty with @p err on failure. */
std::vector<Claim>
parse(const std::string &text, std::string *err = nullptr)
{
    std::istringstream in(text);
    std::vector<Claim> claims;
    if (!tryParseClaims(in, &claims, err))
        claims.clear();
    return claims;
}

/** A cheap claim row: 64 ACTs of hammer against the null design. */
std::string
hammerRow(const std::string &id, const std::string &claim)
{
    return "{\"id\":\"" + id + "\",\"source\":\"test\"," + claim +
           ",\"kind\":\"attack\",\"mitigator\":\"null\","
           "\"pattern\":\"hammer\",\"budget\":64}\n";
}

TEST(Claims, EveryRowHasItsRecordedOutcomeAtTheCtestWindow)
{
    std::ifstream in(MOATSIM_CLAIMS_FILE);
    ASSERT_TRUE(in) << MOATSIM_CLAIMS_FILE;
    std::vector<Claim> claims;
    std::string err;
    ASSERT_TRUE(tryParseClaims(in, &claims, &err)) << err;
    ASSERT_FALSE(claims.empty());
    for (Claim &c : claims) {
        if (c.request.kind != "attack")
            c.request.fraction *= 0.25;
    }
    const auto outcomes = runClaims(claims, freshStores(), 0);
    ASSERT_EQ(outcomes.size(), claims.size());
    for (size_t i = 0; i < claims.size(); ++i) {
        EXPECT_EQ(outcomes[i].outcome, claims[i].expect)
            << claims[i].id << ": measured " << outcomes[i].measured
            << " against [" << claims[i].lo << ", " << claims[i].hi
            << "] " << outcomes[i].error;
    }
}

TEST(Claims, MalformedRowsAreReportedWithTheirLineNumber)
{
    const std::string good =
        hammerRow("ok", "\"paper\":64,\"metric\":\"max_hammer\","
                        "\"reduce\":\"max\",\"hi\":100");
    const auto rejects = [&good](const std::string &bad,
                                 const std::string &needle) {
        std::string err;
        EXPECT_TRUE(parse("# a comment\n\n" + good + bad, &err).empty());
        EXPECT_EQ(err.rfind("line 4: ", 0), 0u) << err;
        EXPECT_NE(err.find(needle), std::string::npos) << err;
    };
    rejects(hammerRow("a", "\"paper\":\"x\",\"metric\":\"max_hammer\","
                           "\"hi\":1"),
            "field 'paper'");
    rejects(hammerRow("a", "\"metric\":\"max_hammer\",\"hi\":1"),
            "missing field 'paper'");
    rejects(hammerRow("a", "\"paper\":1,\"hi\":1"), "missing field 'metric'");
    rejects(hammerRow("a", "\"paper\":1,\"metric\":\"max_hammer\""),
            "a band needs 'lo', 'hi' or both");
    rejects(hammerRow("a", "\"paper\":1,\"metric\":\"max_hammer\","
                           "\"lo\":2,\"hi\":1"),
            "lo is above hi");
    rejects(hammerRow("a", "\"paper\":1,\"metric\":\"max_hammer\","
                           "\"hi\":1,\"reduce\":\"median\""),
            "reduce must be");
    rejects(hammerRow("a", "\"paper\":1,\"metric\":\"max_hammer\","
                           "\"hi\":1,\"expect\":\"maybe\""),
            "expect must be");
    rejects(hammerRow("ok", "\"paper\":1,\"metric\":\"max_hammer\","
                            "\"hi\":1"),
            "duplicate id \"ok\"");
    rejects(hammerRow("a", "\"paper\":1,\"metric\":\"max_hammer\","
                           "\"hi\":1,\"over\":\"nope\""),
            "over names no earlier row \"nope\"");
    // The request half goes through the serve daemon's own check.
    rejects("{\"id\":\"a\",\"source\":\"test\",\"paper\":1,"
            "\"metric\":\"max_hammer\",\"hi\":1,\"kind\":\"attack\","
            "\"pattern\":\"ratchet\",\"budget\":100}\n",
            "does not read 'budget'");
    rejects("{\"id\":\"a\",\"source\":\"test\",\"paper\":1,"
            "\"metric\":\"norm_perf\",\"hi\":1,\"level\":3}\n",
            "level must be 1, 2, or 4");
}

TEST(Claims, MetricThatIsNoNumericResultFieldIsAnError)
{
    const auto claims = parse(
        hammerRow("bogus", "\"paper\":1,\"metric\":\"bogus\",\"hi\":1") +
        hammerRow("text", "\"paper\":1,\"metric\":\"pattern\",\"hi\":1") +
        hammerRow("acts", "\"paper\":64,\"metric\":\"total_acts\","
                          "\"lo\":64,\"hi\":64"));
    ASSERT_EQ(claims.size(), 3u);
    const auto outcomes = runClaims(claims, freshStores(), 1);
    for (size_t i : {0, 1}) {
        EXPECT_EQ(outcomes[i].outcome, "error");
        EXPECT_NE(outcomes[i].error.find("is not a numeric field of attack "
                                         "result lines"),
                  std::string::npos)
            << outcomes[i].error;
    }
    // The three rows share one request, and the good one still holds.
    EXPECT_EQ(outcomes[2].outcome, "holds");
    EXPECT_EQ(outcomes[2].measured, 64.0);
}

TEST(Claims, RowsOnTheWrongSideOfTheirBandFailTheRun)
{
    const auto claims = parse(
        // A "holds" row that misses its band.
        hammerRow("missed", "\"paper\":64,\"metric\":\"total_acts\","
                            "\"lo\":1000,\"expect\":\"holds\"") +
        // A "deviates" row that has come inside its band.
        hammerRow("inside", "\"paper\":64,\"metric\":\"total_acts\","
                            "\"hi\":64,\"expect\":\"deviates\"") +
        // A ratio over another row: 64 / 64.
        hammerRow("ratio", "\"paper\":1,\"metric\":\"total_acts\","
                           "\"over\":\"inside\",\"lo\":1,\"hi\":1"));
    ASSERT_EQ(claims.size(), 3u);
    const auto outcomes = runClaims(claims, freshStores(), 1);
    EXPECT_EQ(outcomes[0].outcome, "deviates");
    EXPECT_NE(outcomes[0].outcome, claims[0].expect);
    EXPECT_EQ(outcomes[1].outcome, "holds");
    EXPECT_NE(outcomes[1].outcome, claims[1].expect);
    EXPECT_EQ(outcomes[2].outcome, "holds");
    EXPECT_EQ(outcomes[2].measured, 1.0);
}

} // namespace
} // namespace moatsim::sim
