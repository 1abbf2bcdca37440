/**
 * @file
 * The flat-JSON line codec (sim/result_io) on the records no golden
 * file covers: exact bytes of a throughput attack's result line and of
 * every kind of RunRequest line, every RunRequest field surviving
 * serialize -> parse, absent request fields keeping their defaults,
 * and the one strict number grammar every reader shares -- integers
 * are digits only and must fit their field, doubles are one whole
 * token with no leading whitespace.
 */

#include <gtest/gtest.h>

#include <string>

#include "attacks/attack.hh"
#include "sim/result_io.hh"
#include "sim/run_request.hh"

namespace moatsim::sim
{
namespace
{

// ------------------------------------------------------ exact bytes

TEST(ResultIoBytes, ThroughputAttackLine)
{
    // A throughput pattern's attack line ends with its loss; the
    // reader takes it back because the pattern says it is there.
    attacks::AttackResult r;
    r.pattern = "tsa";
    r.mitigator = "moat";
    r.maxHammer = 69;
    r.totalActs = 13150;
    r.alerts = 401;
    r.duration = 362590000;
    r.lossFraction = 0.1;
    const std::string line = toJsonLine(r);
    EXPECT_EQ(line,
              "{\"kind\":\"attack\",\"pattern\":\"tsa\","
              "\"mitigator\":\"moat\",\"max_hammer\":69,"
              "\"total_acts\":13150,\"alerts\":401,"
              "\"duration_ps\":362590000,"
              "\"loss_fraction\":0.10000000000000001}");
    const attacks::AttackResult back = attackResultOfJsonLine(line);
    EXPECT_EQ(back.pattern, "tsa");
    EXPECT_EQ(back.alerts, r.alerts);
    EXPECT_EQ(back.lossFraction, r.lossFraction);
    EXPECT_EQ(toJsonLine(back), line);
}

/** A perf request with every field off its default. */
RunRequest
perfRequest()
{
    RunRequest req;
    req.kind = "perf";
    req.mitigator = "moat:ath=96,eth=\"q\"";
    req.device = "device:org=8gb";
    req.workload = "roms";
    req.level = 2;
    req.fraction = 0.1;
    req.subchannels = 4;
    req.seed = 18446744073709551615ULL;
    req.jobs = 3;
    return req;
}

/** A coattack request with every field off its default. */
RunRequest
coattackRequest()
{
    RunRequest req = perfRequest();
    req.kind = "coattack";
    req.pattern = "feinting";
    req.poolRows = 5;
    req.budget = 1000;
    req.attackSubchannel = 1;
    req.attackBank = 31;
    req.attackSeed = 99;
    return req;
}

/** An attack request with every field it carries off its default. */
RunRequest
attackRequest()
{
    RunRequest req = perfRequest();
    req.kind = "attack";
    req.pattern = "postponement";
    req.poolRows = 5;
    req.budget = 1000;
    req.trials = 8;
    req.banks = 4;
    return req;
}

void
expectSameRequest(const RunRequest &a, const RunRequest &b)
{
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.mitigator, b.mitigator);
    EXPECT_EQ(a.device, b.device);
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.level, b.level);
    EXPECT_EQ(a.fraction, b.fraction);
    EXPECT_EQ(a.subchannels, b.subchannels);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.jobs, b.jobs);
    EXPECT_EQ(a.pattern, b.pattern);
    EXPECT_EQ(a.poolRows, b.poolRows);
    EXPECT_EQ(a.budget, b.budget);
    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.banks, b.banks);
    EXPECT_EQ(a.attackSubchannel, b.attackSubchannel);
    EXPECT_EQ(a.attackBank, b.attackBank);
    EXPECT_EQ(a.attackSeed, b.attackSeed);
}

TEST(RunRequestCodec, PerfLineBytesAndRoundTrip)
{
    const RunRequest req = perfRequest();
    const std::string line = toJsonLine(req);
    // The attack block is omitted for perf requests.
    EXPECT_EQ(line,
              "{\"kind\":\"perf\",\"mitigator\":\"moat:ath=96,eth=\\\"q\\\"\","
              "\"device\":\"device:org=8gb\",\"workload\":\"roms\","
              "\"level\":2,\"fraction\":0.10000000000000001,"
              "\"subchannels\":4,\"seed\":18446744073709551615,"
              "\"jobs\":3}");
    RunRequest back;
    std::string err;
    ASSERT_TRUE(tryRunRequestOfJsonLine(line, &back, &err)) << err;
    expectSameRequest(back, req);
    EXPECT_EQ(toJsonLine(back), line);
}

TEST(RunRequestCodec, CoattackLineBytesAndRoundTrip)
{
    const RunRequest req = coattackRequest();
    const std::string line = toJsonLine(req);
    EXPECT_EQ(line,
              "{\"kind\":\"coattack\","
              "\"mitigator\":\"moat:ath=96,eth=\\\"q\\\"\","
              "\"device\":\"device:org=8gb\",\"workload\":\"roms\","
              "\"level\":2,\"fraction\":0.10000000000000001,"
              "\"subchannels\":4,\"seed\":18446744073709551615,"
              "\"jobs\":3,\"pattern\":\"feinting\",\"pool_rows\":5,"
              "\"budget\":1000,\"attack_subchannel\":1,"
              "\"attack_bank\":31,\"attack_seed\":99}");
    RunRequest back;
    std::string err;
    ASSERT_TRUE(tryRunRequestOfJsonLine(line, &back, &err)) << err;
    expectSameRequest(back, req);
    EXPECT_EQ(toJsonLine(back), line);
}

TEST(RunRequestCodec, AttackLineBytesAndRoundTrip)
{
    const RunRequest req = attackRequest();
    const std::string line = toJsonLine(req);
    // The attack fields, then the phase trials and the banks; no
    // co-attack placement.
    EXPECT_EQ(line,
              "{\"kind\":\"attack\","
              "\"mitigator\":\"moat:ath=96,eth=\\\"q\\\"\","
              "\"device\":\"device:org=8gb\",\"workload\":\"roms\","
              "\"level\":2,\"fraction\":0.10000000000000001,"
              "\"subchannels\":4,\"seed\":18446744073709551615,"
              "\"jobs\":3,\"pattern\":\"postponement\",\"pool_rows\":5,"
              "\"budget\":1000,\"trials\":8,\"banks\":4}");
    RunRequest back;
    std::string err;
    ASSERT_TRUE(tryRunRequestOfJsonLine(line, &back, &err)) << err;
    expectSameRequest(back, req);
    EXPECT_EQ(toJsonLine(back), line);
}

TEST(RunRequestCodec, AbsentFieldsKeepTheirDefaults)
{
    RunRequest back;
    back.workload = "overwritten";
    std::string err;
    ASSERT_TRUE(tryRunRequestOfJsonLine("{\"kind\":\"coattack\"}", &back,
                                        &err))
        << err;
    RunRequest expected;
    expected.kind = "coattack";
    expectSameRequest(back, expected);
}

// ------------------------------------------------ strict number grammar

/** @p line with its first @p from replaced by @p to. */
std::string
replaced(std::string line, const std::string &from, const std::string &to)
{
    const size_t at = line.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return at == std::string::npos ? line : line.replace(at, from.size(), to);
}

TEST(ResultIoDeathTest, ResultLinesRejectLenientNumbers)
{
    PerfResult perf;
    perf.workload = "roms";
    perf.mitigator = "moat";
    perf.alerts = 3;
    perf.acts = 99;
    const std::string line = toJsonLine(perf);
    ASSERT_EQ(toJsonLine(perfResultOfJsonLine(line)), line);
    // strtoull wrapped the minus to 2^64-1 and skipped the space.
    EXPECT_EXIT(perfResultOfJsonLine(
                    replaced(line, "\"alerts\":3", "\"alerts\":-1")),
                testing::ExitedWithCode(1), "alerts");
    EXPECT_EXIT(perfResultOfJsonLine(
                    replaced(line, "\"acts\":99", "\"acts\": 99")),
                testing::ExitedWithCode(1), "acts");

    CoAttackResult co;
    co.workload = "roms";
    co.mitigator = "moat";
    co.pattern = "hammer";
    co.attackerMaxHammer = 4294967295U;
    const std::string co_line = toJsonLine(co);
    ASSERT_EQ(coAttackResultOfJsonLine(co_line).attackerMaxHammer,
              4294967295U);
    // The security metric used to be truncated to 32 bits: 69.
    EXPECT_EXIT(coAttackResultOfJsonLine(replaced(
                    co_line, "\"attacker_max_hammer\":4294967295",
                    "\"attacker_max_hammer\":4294967365")),
                testing::ExitedWithCode(1), "attacker_max_hammer");
}

TEST(ResultIoDeathTest, AttackLineBytesAndRoundTrip)
{
    attacks::AttackResult r;
    r.pattern = "ratchet";
    r.mitigator = "moat:ath=96";
    r.maxHammer = 131;
    r.totalActs = 710665;
    r.alerts = 5130;
    r.duration = 43512345000;
    const std::string line = toJsonLine(r);
    EXPECT_EQ(line,
              "{\"kind\":\"attack\",\"pattern\":\"ratchet\","
              "\"mitigator\":\"moat:ath=96\",\"max_hammer\":131,"
              "\"total_acts\":710665,\"alerts\":5130,"
              "\"duration_ps\":43512345000}");
    const attacks::AttackResult back = attackResultOfJsonLine(line);
    EXPECT_EQ(back.pattern, r.pattern);
    EXPECT_EQ(back.maxHammer, r.maxHammer);
    EXPECT_EQ(back.duration, r.duration);
    EXPECT_EQ(toJsonLine(back), line);
    EXPECT_EXIT(attackResultOfJsonLine(
                    replaced(line, ",\"alerts\":5130", "")),
                testing::ExitedWithCode(1), "alerts");
    EXPECT_EXIT(attackResultOfJsonLine(replaced(
                    line, "\"kind\":\"attack\"", "\"kind\":\"perf\"")),
                testing::ExitedWithCode(1), "not a attack line");
}

TEST(ResultIoDeathTest, ResultLinesRejectWrongShapes)
{
    PerfResult perf;
    perf.workload = "roms";
    perf.mitigator = "moat";
    perf.perSubchannel.resize(2);
    const std::string line = toJsonLine(perf);
    EXPECT_EXIT(perfResultOfJsonLine(
                    replaced(line, "\"alerts\":0", "\"alerts\":\"0\"")),
                testing::ExitedWithCode(1), "alerts");
    EXPECT_EXIT(perfResultOfJsonLine(
                    replaced(line, "\"sc_alerts\":[0,0]", "\"sc_alerts\":[0]")),
                testing::ExitedWithCode(1), "sc_alerts");
    EXPECT_EXIT(perfResultOfJsonLine(replaced(line, "\"sc_acts\":[0,0]",
                                              "\"sc_acts\":[0,]")),
                testing::ExitedWithCode(1), "sc_acts");
    EXPECT_EXIT(perfResultOfJsonLine(replaced(line, ",\"norm_perf\":1", "")),
                testing::ExitedWithCode(1), "norm_perf");
}

TEST(RunRequestCodec, LeadingSpaceIsRejectedForEveryNumber)
{
    RunRequest req;
    std::string err;
    // Doubles and integers follow one grammar: before, the double
    // reader let strtod skip the space the integer reader refused.
    EXPECT_FALSE(tryRunRequestOfJsonLine(
        "{\"kind\":\"perf\",\"fraction\": 0.5}", &req, &err));
    EXPECT_NE(err.find("fraction"), std::string::npos) << err;
    EXPECT_FALSE(tryRunRequestOfJsonLine(
        "{\"kind\":\"perf\",\"level\": 2}", &req, &err));
    EXPECT_NE(err.find("level"), std::string::npos) << err;
    EXPECT_FALSE(tryRunRequestOfJsonLine(
        "{\"kind\":\"perf\",\"seed\":-1}", &req, &err));
    EXPECT_FALSE(tryRunRequestOfJsonLine(
        "{\"kind\":\"perf\",\"jobs\":4294967296}", &req, &err));
    EXPECT_FALSE(tryRunRequestOfJsonLine(
        "{\"kind\":\"perf\",\"level\":2147483648}", &req, &err));
    EXPECT_FALSE(tryRunRequestOfJsonLine(
        "{\"kind\":\"perf\",\"fraction\":0.5x}", &req, &err));
    ASSERT_TRUE(tryRunRequestOfJsonLine(
        "{\"kind\":\"perf\",\"fraction\":0.5,\"level\":2}", &req, &err))
        << err;
    EXPECT_EQ(req.fraction, 0.5);
    EXPECT_EQ(req.level, 2);
}

} // namespace
} // namespace moatsim::sim
