/**
 * @file
 * The `moatsim serve` contract: a served request's cells are
 * byte-identical to a direct in-process run, concurrent clients
 * asking for the same cells compute each distinct cell exactly once
 * (the shared ResultStore's single-flight), malformed or invalid
 * requests get protocol errors without killing the daemon, the
 * admission budget never starves a lone oversize request, and the
 * self-healing loop: injected compute faults fail one request with a
 * retryable error while the daemon keeps serving, transient accept
 * errors are survived and counted, the deterministic retry backoff is
 * a pure function of (seed, attempt), and a chaos run under an armed
 * fault plan converges byte-identically to a clean run.
 */

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "attacks/attack.hh"
#include "common/fault.hh"
#include "dram/timing.hh"
#include "sim/experiment.hh"
#include "sim/result_io.hh"
#include "sim/run_request.hh"
#include "sim/serve.hh"
#include "subchannel/counter_slab.hh"

namespace moatsim::sim
{
namespace
{

/** A deliberately tiny request: one workload, one sub-channel, a
 *  1/64 window, serial execution. */
RunRequest
smallRequest()
{
    RunRequest req;
    req.kind = "perf";
    req.workload = "x264";
    req.fraction = 0.015625;
    req.subchannels = 1;
    req.jobs = 1;
    return req;
}

std::string
socketPathOf(const std::string &name)
{
    return (std::filesystem::path(::testing::TempDir()) / name).string();
}

/** In-memory result store, explicit (immune to ambient env knobs). */
ServeConfig
smallServeConfig(const std::string &socket)
{
    ServeConfig sc;
    sc.socketPath = socket;
    sc.resultStore = ResultStore::Config{};
    sc.resultStore.enabled = true;
    return sc;
}

/** A connected AF_UNIX client socket to @p socket, or -1. */
int
connectRaw(const std::string &socket)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket.c_str(), sizeof(addr.sun_path) - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd >= 0 && ::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                             sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** Send @p request on a fresh connection and return the raw reply
 *  lines up to and including the first line that is not a cell. */
std::vector<std::string>
rawExchange(const std::string &socket, const std::string &request)
{
    std::vector<std::string> lines;
    const int fd = connectRaw(socket);
    if (fd < 0)
        return lines;
    const std::string out = request + "\n";
    if (::send(fd, out.data(), out.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(out.size())) {
        ::close(fd);
        return lines;
    }
    std::string buf;
    char chunk[4096];
    bool finished = false;
    while (!finished) {
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0)
            break;
        buf.append(chunk, static_cast<size_t>(n));
        size_t nl = 0;
        while (!finished && (nl = buf.find('\n')) != std::string::npos) {
            lines.push_back(buf.substr(0, nl));
            buf.erase(0, nl + 1);
            finished = lines.back().rfind("{\"kind\":\"cell\"", 0) != 0;
        }
    }
    ::close(fd);
    return lines;
}

/** @p s as a JSON string literal; result lines hold no backslashes or
 *  control characters, so quoting the quotes is the whole escape. */
std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

// ------------------------------------------------------- request keys

TEST(RequestKey, SchedulingKnobsDoNotPerturbTheKey)
{
    // The key is the serve protocol's dedupe identity: two requests
    // that must produce identical bytes must collide, however they
    // are scheduled (keylint enforces the exemptions statically).
    const RunRequest base = smallRequest();
    RunRequest other = base;
    other.jobs = 16;
    EXPECT_EQ(requestKey(base), requestKey(other));
}

TEST(RequestKey, ResultShapingFieldsPerturbTheKey)
{
    const RunRequest base = smallRequest();
    const uint64_t k = requestKey(base);
    RunRequest r = base;
    r.mitigator = "moat:eth=256";
    EXPECT_NE(requestKey(r), k);
    r = base;
    r.fraction = 0.03125;
    EXPECT_NE(requestKey(r), k);
    r = base;
    r.seed = 8;
    EXPECT_NE(requestKey(r), k);
    r = base;
    r.level = 2;
    EXPECT_NE(requestKey(r), k);
    r = base;
    r.device = "device:org=64gb";
    EXPECT_NE(requestKey(r), k);
}

TEST(RequestKey, AttackFieldsCountOnlyForCoattack)
{
    // toJsonLine() omits the attack block for perf requests; the key
    // mirrors that, so a perf request ignores attack-field noise...
    const RunRequest base = smallRequest();
    RunRequest r = base;
    r.pattern = "rowpress";
    r.attackSeed = 99;
    EXPECT_EQ(requestKey(base), requestKey(r));
    // ...while a coattack request folds the full scenario.
    RunRequest ca = base;
    ca.kind = "coattack";
    RunRequest ca2 = ca;
    ca2.pattern = "rowpress";
    EXPECT_NE(requestKey(ca), requestKey(ca2));
    EXPECT_NE(requestKey(ca), requestKey(base));
}

TEST(RequestKey, AttackRequestsFoldTheirOwnFields)
{
    RunRequest a = smallRequest();
    a.kind = "attack";
    a.pattern = "postponement";
    RunRequest b = a;
    b.trials = 8;
    EXPECT_NE(requestKey(a), requestKey(b));
    RunRequest banks = a;
    banks.pattern = "tsa";
    RunRequest banks2 = banks;
    banks2.banks = 4;
    EXPECT_NE(requestKey(banks), requestKey(banks2));
    // Placement belongs to co-attacks; an attack ignores it...
    b = a;
    b.attackBank = 3;
    EXPECT_EQ(requestKey(a), requestKey(b));
    // ...and a co-attack ignores the phase trials.
    RunRequest ca = smallRequest();
    ca.kind = "coattack";
    RunRequest ca2 = ca;
    ca2.trials = 8;
    EXPECT_EQ(requestKey(ca), requestKey(ca2));
    // The line carries the attack fields and decodes back to them.
    RunRequest back;
    ASSERT_TRUE(tryRunRequestOfJsonLine(toJsonLine(b), &back));
    EXPECT_EQ(toJsonLine(back), toJsonLine(b));
    EXPECT_EQ(back.trials, b.trials);
    EXPECT_EQ(back.pattern, "postponement");
}

TEST(Serve, RoundTripMatchesDirectRun)
{
    const std::string socket = socketPathOf("moatsim_serve_rt.sock");
    Server server(smallServeConfig(socket));
    server.start();
    std::thread loop([&server] { server.serveForever(); });

    const RunRequest req = smallRequest();
    const ServeReply reply = serveRequest(socket, req);
    ASSERT_TRUE(reply.ok) << reply.error;
    ASSERT_EQ(reply.cells.size(), 1u);
    EXPECT_NE(reply.done.find("\"kind\":\"done\""), std::string::npos);
    EXPECT_NE(reply.done.find("\"cells\":1"), std::string::npos);
    // The done line reports the request's content-address, zero-padded
    // hex64, so clients can correlate sweeps across sessions.
    char key_hex[32];
    std::snprintf(key_hex, sizeof key_hex, "\"request\":\"%016llx\"",
                  static_cast<unsigned long long>(requestKey(req)));
    EXPECT_NE(reply.done.find(key_hex), std::string::npos);

    // The same request run directly, store disabled: same bytes.
    ExperimentConfig ec = experimentConfigOf(req);
    ec.resultStore = ResultStore::Config{};
    Experiment direct(ec);
    const auto results = direct.run();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(reply.cells[0], toJsonLine(results[0]));

    const auto bye = serveRequestLine(socket, "{\"kind\":\"shutdown\"}");
    EXPECT_TRUE(bye.ok) << bye.error;
    EXPECT_NE(bye.done.find("\"kind\":\"bye\""), std::string::npos);
    loop.join();
}

TEST(Serve, ConcurrentClientsComputeEachCellOnce)
{
    const std::string socket = socketPathOf("moatsim_serve_dedupe.sock");
    Server server(smallServeConfig(socket));
    server.start();
    std::thread loop([&server] { server.serveForever(); });

    constexpr int kClients = 4;
    std::vector<ServeReply> replies(kClients);
    {
        std::vector<std::thread> clients;
        clients.reserve(kClients);
        for (int i = 0; i < kClients; ++i) {
            clients.emplace_back([&replies, &socket, i] {
                replies[i] = serveRequest(socket, smallRequest());
            });
        }
        for (auto &c : clients)
            c.join();
    }

    for (int i = 0; i < kClients; ++i) {
        ASSERT_TRUE(replies[i].ok) << "client " << i << ": "
                                   << replies[i].error;
        ASSERT_EQ(replies[i].cells.size(), 1u) << "client " << i;
        EXPECT_EQ(replies[i].cells[0], replies[0].cells[0])
            << "client " << i;
    }
    // One distinct cell across 4 requests: one compute, three-plus
    // hits (in-flight or resolved, both count as dedupe).
    const auto st = server.resultStore()->stats();
    EXPECT_EQ(st.computes, 1u);
    EXPECT_EQ(st.hits, static_cast<uint64_t>(kClients - 1));
    // Its baseline came from exactly one place: a null replay if the
    // cell ALERTed, the cell's own replay if it did not.
    const bool alerted = perfResultOfJsonLine(replies[0].cells[0]).alerts > 0;
    const auto stats = serveRequestLine(socket, "{\"kind\":\"stats\"}");
    ASSERT_TRUE(stats.ok) << stats.error;
    EXPECT_NE(stats.done.find(alerted ? "\"baseline_replays\":1,"
                                        "\"baseline_adopted\":0"
                                      : "\"baseline_replays\":0,"
                                        "\"baseline_adopted\":1"),
              std::string::npos)
        << stats.done;

    const auto bye = serveRequestLine(socket, "{\"kind\":\"shutdown\"}");
    EXPECT_TRUE(bye.ok) << bye.error;
    loop.join();
}

/** The unsigned field @p key of a stats reply; fails the test and
 *  returns 0 when it is absent. */
uint64_t
statsField(const std::string &stats, const std::string &key)
{
    const std::string tag = "\"" + key + "\":";
    const size_t at = stats.find(tag);
    EXPECT_NE(at, std::string::npos) << key << " in " << stats;
    return at == std::string::npos
               ? 0
               : std::stoull(stats.substr(at + tag.size()));
}

TEST(Serve, StatsReportTheCounterSlabPool)
{
    const std::string socket = socketPathOf("moatsim_serve_slabs.sock");
    Server server(smallServeConfig(socket));
    server.start();
    std::thread loop([&server] { server.serveForever(); });

    const auto before = serveRequestLine(socket, "{\"kind\":\"stats\"}");
    ASSERT_TRUE(before.ok) << before.error;
    // Two fresh cells, one after the other: the second sub-channel
    // takes the slab the first one released.
    for (const uint64_t seed : {41u, 42u}) {
        RunRequest req = smallRequest();
        req.seed = seed;
        const auto reply = serveRequest(socket, req);
        ASSERT_TRUE(reply.ok) << reply.error;
        ASSERT_EQ(reply.cells.size(), 1u);
    }
    const auto after = serveRequestLine(socket, "{\"kind\":\"stats\"}");
    ASSERT_TRUE(after.ok) << after.error;
    EXPECT_EQ(statsField(after.done, "computes"), 2u) << after.done;
    EXPECT_GT(statsField(after.done, "slab_reuses"),
              statsField(before.done, "slab_reuses"))
        << after.done;
    // The pool is process-wide: the counters only ever grow.
    EXPECT_GE(statsField(after.done, "slab_allocs"),
              statsField(before.done, "slab_allocs"));
    EXPECT_GT(statsField(after.done, "slab_pooled_bytes"), 0u) << after.done;

    const auto bye = serveRequestLine(socket, "{\"kind\":\"shutdown\"}");
    EXPECT_TRUE(bye.ok) << bye.error;
    loop.join();
}

TEST(Serve, RejectsBadRequestsWithoutDying)
{
    const std::string socket = socketPathOf("moatsim_serve_bad.sock");
    Server server(smallServeConfig(socket));
    server.start();
    std::thread loop([&server] { server.serveForever(); });

    const auto unknownWorkload = serveRequestLine(
        socket, "{\"kind\":\"perf\",\"workload\":\"nope\"}");
    EXPECT_FALSE(unknownWorkload.ok);
    EXPECT_NE(unknownWorkload.error.find("workload"), std::string::npos)
        << unknownWorkload.error;

    const auto noKind = serveRequestLine(socket, "{\"nokind\":1}");
    EXPECT_FALSE(noKind.ok);

    const auto unknownKind =
        serveRequestLine(socket, "{\"kind\":\"frobnicate\"}");
    EXPECT_FALSE(unknownKind.ok);
    EXPECT_NE(unknownKind.error.find("frobnicate"), std::string::npos);

    const auto badLevel = serveRequestLine(
        socket, "{\"kind\":\"perf\",\"level\":3}");
    EXPECT_FALSE(badLevel.ok);
    EXPECT_NE(badLevel.error.find("level"), std::string::npos);

    // A co-attack budget whose stream outruns the trace sort's range
    // is refused up front, not fatal() inside the compute.
    const auto longAttack = serveRequestLine(
        socket, "{\"kind\":\"coattack\",\"budget\":2000000}");
    EXPECT_FALSE(longAttack.ok);
    EXPECT_FALSE(longAttack.retryable);
    EXPECT_NE(longAttack.error.find("budget of 2000000 activations"),
              std::string::npos)
        << longAttack.error;

    // So is a co-attack whose pattern has no trace shape: the
    // throughput attacks run isolated only.
    for (const std::string pattern : {"tsa", "kernel"}) {
        const auto unshaped = serveRequestLine(
            socket,
            "{\"kind\":\"coattack\",\"pattern\":\"" + pattern + "\"}");
        EXPECT_FALSE(unshaped.ok) << pattern;
        EXPECT_FALSE(unshaped.retryable);
        EXPECT_NE(unshaped.error.find("has no co-attack trace"),
                  std::string::npos)
            << unshaped.error;
    }
    // And a pool that does not fit the bank, co-attack or isolated.
    const auto wideCoattack = serveRequestLine(
        socket, "{\"kind\":\"coattack\",\"pattern\":\"round-robin\","
                "\"pool_rows\":100000}");
    EXPECT_FALSE(wideCoattack.ok);
    EXPECT_FALSE(wideCoattack.retryable);
    EXPECT_NE(wideCoattack.error.find("does not fit in the bank"),
              std::string::npos)
        << wideCoattack.error;
    for (const std::string pattern : {"round-robin", "tsa"}) {
        const auto wideAttack = serveRequestLine(
            socket, "{\"kind\":\"attack\",\"pattern\":\"" + pattern +
                        "\",\"pool_rows\":100000}");
        EXPECT_FALSE(wideAttack.ok) << pattern;
        EXPECT_FALSE(wideAttack.retryable);
        EXPECT_NE(wideAttack.error.find("runs a pool of at most"),
                  std::string::npos)
            << wideAttack.error;
    }

    // And traces that do not fit the system: four sub-channels of 32
    // banks (or three, for a co-attack) on a 64-bank system.
    for (const std::string request :
         {"{\"kind\":\"perf\",\"workload\":\"roms\",\"fraction\":0.001,"
          "\"subchannels\":4}",
          "{\"kind\":\"coattack\",\"workload\":\"roms\",\"fraction\":0.001,"
          "\"subchannels\":3}"}) {
        const auto tooWide = serveRequestLine(socket, request);
        EXPECT_FALSE(tooWide.ok) << request;
        EXPECT_FALSE(tooWide.retryable);
        EXPECT_NE(tooWide.error.find("exceed the system's 64 banks"),
                  std::string::npos)
            << tooWide.error;
    }

    // Row layouts past the end of the bank, and a ratchet that fits no
    // pool in the refresh window: each is the plan's refusal, naming
    // the knob, not a crash or a fatal() inside the driver.
    const std::pair<const char *, const char *> layouts[] = {
        {"{\"kind\":\"attack\",\"pattern\":\"postponement\","
         "\"mitigator\":\"panopticon\",\"trials\":600}",
         "at most 480 trials"},
        {"{\"kind\":\"attack\",\"pattern\":\"jailbreak\","
         "\"mitigator\":\"panopticon:entries=5000\"}",
         "at most 4096 entries"},
        {"{\"kind\":\"attack\",\"pattern\":\"ratchet\","
         "\"mitigator\":\"moat:ath=1000000\"}",
         "default pool_rows, the Appendix-A Nc, is 0"}};
    for (const auto &[request, needle] : layouts) {
        const auto refused = serveRequestLine(socket, request);
        EXPECT_FALSE(refused.ok) << request;
        EXPECT_FALSE(refused.retryable);
        EXPECT_NE(refused.error.find(needle), std::string::npos)
            << refused.error;
    }

    // A design spec the constructor cannot build is refused at parse
    // time, in every request kind.
    const std::pair<const char *, const char *> unbuildable[] = {
        {"panopticon:entries=0", "entries must be at least 1"},
        {"panopticon:threshold=0", "threshold must be at least 1"},
        {"panopticon-counter:slack=0", "slack must be at least 1"},
        {"moat:entries=0", "entries must be at least 1"},
        {"moat:ath=16", "must not exceed ath (16)"},
        {"ideal-prc:period=0", "period must be at least 1"}};
    for (const std::string kind : {"perf", "coattack", "attack"}) {
        for (const auto &[spec, needle] : unbuildable) {
            const auto refused = serveRequestLine(
                socket, "{\"kind\":\"" + kind +
                            "\",\"workload\":\"xz\",\"fraction\":0.001,"
                            "\"mitigator\":\"" + spec + "\"}");
            EXPECT_FALSE(refused.ok) << kind << " " << spec;
            EXPECT_FALSE(refused.retryable);
            EXPECT_NE(refused.error.find(needle), std::string::npos)
                << refused.error;
        }
    }

    // The daemon survived all of it.
    const auto stats = serveRequestLine(socket, "{\"kind\":\"stats\"}");
    ASSERT_TRUE(stats.ok) << stats.error;
    EXPECT_NE(stats.done.find("\"kind\":\"stats\""), std::string::npos);
    EXPECT_NE(stats.done.find("\"computes\":0"), std::string::npos);

    const auto bye = serveRequestLine(socket, "{\"kind\":\"shutdown\"}");
    EXPECT_TRUE(bye.ok) << bye.error;
    loop.join();
}

TEST(Serve, MismatchedAttackIsRejectedAndTheDaemonStaysUp)
{
    const std::string socket = socketPathOf("moatsim_serve_attack_bad.sock");
    Server server(smallServeConfig(socket));
    server.start();
    std::thread loop([&server] { server.serveForever(); });

    // The pattern table rejects the request before anything runs: an
    // error line, not a fatal() that would take the daemon down.
    const auto bad = serveRequestLine(
        socket,
        "{\"kind\":\"attack\",\"pattern\":\"ratchet\","
        "\"mitigator\":\"panopticon\"}");
    EXPECT_FALSE(bad.ok);
    EXPECT_FALSE(bad.retryable);
    EXPECT_NE(bad.error.find("targets the 'moat' design"), std::string::npos)
        << bad.error;
    // So is a knob the pattern's driver never reads: it would only key
    // a duplicate of the default cell.
    const auto unread = serveRequestLine(
        socket,
        "{\"kind\":\"attack\",\"pattern\":\"ratchet\","
        "\"mitigator\":\"moat\",\"budget\":100}");
    EXPECT_FALSE(unread.ok);
    EXPECT_FALSE(unread.retryable);
    EXPECT_NE(unread.error.find("does not read 'budget'"), std::string::npos)
        << unread.error;
    // Banks are a throughput attack's knob, and no more of them than
    // the device's sub-channel has.
    const auto banks = serveRequestLine(
        socket, "{\"kind\":\"attack\",\"pattern\":\"ratchet\","
                "\"mitigator\":\"moat\",\"banks\":4}");
    EXPECT_FALSE(banks.ok);
    EXPECT_NE(banks.error.find("does not read 'banks'"), std::string::npos)
        << banks.error;
    const auto tooMany = serveRequestLine(
        socket, "{\"kind\":\"attack\",\"pattern\":\"tsa\",\"banks\":33}");
    EXPECT_FALSE(tooMany.ok);
    EXPECT_FALSE(tooMany.retryable);
    EXPECT_NE(tooMany.error.find("a sub-channel of at most 32 banks"),
              std::string::npos)
        << tooMany.error;
    EXPECT_NE(tooMany.error.find("banks=33"), std::string::npos)
        << tooMany.error;

    const auto stats = serveRequestLine(socket, "{\"kind\":\"stats\"}");
    ASSERT_TRUE(stats.ok) << stats.error;
    EXPECT_NE(stats.done.find("\"computes\":0"), std::string::npos);

    const auto bye = serveRequestLine(socket, "{\"kind\":\"shutdown\"}");
    EXPECT_TRUE(bye.ok) << bye.error;
    loop.join();
}

/** A small Figure-10-style point: ratchet against MOAT at @p ath. */
RunRequest
ratchetRequest(uint32_t ath)
{
    RunRequest req;
    req.kind = "attack";
    req.pattern = "ratchet";
    req.mitigator = "moat:ath=" + std::to_string(ath) +
                    ",eth=" + std::to_string(ath / 2);
    req.poolRows = 32;
    return req;
}

TEST(Serve, AttackCellMatchesDirectRun)
{
    const std::string socket = socketPathOf("moatsim_serve_attack.sock");
    Server server(smallServeConfig(socket));
    server.start();
    std::thread loop([&server] { server.serveForever(); });

    // A throughput attack's banks cross the socket with the request,
    // and its line comes back with its loss.
    RunRequest tsa;
    tsa.kind = "attack";
    tsa.pattern = "tsa";
    tsa.banks = 4;
    for (const RunRequest &req : {ratchetRequest(64), tsa}) {
        const ServeReply reply = serveRequest(socket, req);
        ASSERT_TRUE(reply.ok) << reply.error;
        ASSERT_EQ(reply.cells.size(), 1u);
        const AttackCell cell = attackCellOf(req);
        EXPECT_EQ(cell.attack.banks, req.banks);
        EXPECT_EQ(reply.cells[0], toJsonLine(attacks::runAttack(
                                      cell.attack, cell.mitigator)));
    }
    EXPECT_NE(serveRequest(socket, tsa).cells[0].find("\"loss_fraction\":"),
              std::string::npos);

    const auto bye = serveRequestLine(socket, "{\"kind\":\"shutdown\"}");
    EXPECT_TRUE(bye.ok) << bye.error;
    loop.join();
}

TEST(Serve, AttackCostCountsTheActivationsItAsksFor)
{
    // The largest throughput attack a request can name (32 banks of
    // 2330 rows: one row more is refused) runs for tens of seconds, and
    // must cost more than the default perf request over every
    // workload, which runs for a few.
    RunRequest tsa;
    tsa.kind = "attack";
    tsa.pattern = "tsa";
    tsa.banks = dram::kTable3BanksPerSubchannel;
    tsa.poolRows = 2330;
    ASSERT_TRUE(validateRunRequest(tsa));
    EXPECT_GT(estimatedCost(tsa), estimatedCost(RunRequest{}));
    auto wider = tsa;
    ++wider.poolRows;
    EXPECT_FALSE(validateRunRequest(wider));

    // The price follows the knobs: a kernel at one bank and its
    // default pool costs a small fraction of a unit, a hammer budget a
    // thousand times the default costs a thousand times as much.
    RunRequest kernel = tsa;
    kernel.pattern = "kernel";
    kernel.banks = 0;
    kernel.poolRows = 0;
    EXPECT_LT(estimatedCost(kernel), estimatedCost(tsa) / 1000);
    RunRequest hammer;
    hammer.kind = "attack";
    const double unit = estimatedCost(hammer);
    EXPECT_GT(unit, 0.0);
    hammer.budget = 4096 * 1000;
    EXPECT_DOUBLE_EQ(estimatedCost(hammer), 1000 * unit);

    // Every pattern prices its default request.
    for (const attacks::AttackPattern &p : attacks::attackPatterns()) {
        RunRequest req;
        req.kind = "attack";
        req.pattern = p.name;
        req.mitigator = p.defaultDesign();
        ASSERT_TRUE(validateRunRequest(req)) << p.name;
        EXPECT_GT(estimatedCost(req), 0.0) << p.name;
    }
}

TEST(Serve, WarmAttackSweepIsServedFromTheStore)
{
    // Every attack request costs something, so admission counts it
    // against the budget of two.
    for (const uint32_t ath : {32u, 64u, 128u})
        EXPECT_GT(estimatedCost(ratchetRequest(ath)), 0.0);

    const auto dir = std::filesystem::path(::testing::TempDir()) /
                     "moatsim_serve_attack_store";
    std::filesystem::remove_all(dir);
    std::vector<std::string> cold;
    for (const bool warm : {false, true}) {
        const std::string socket = socketPathOf("moatsim_serve_fig10.sock");
        ServeConfig sc = smallServeConfig(socket);
        sc.resultStore.dir = dir.string();
        sc.maxCost = 2.0;
        Server server(sc);
        server.start();
        std::thread loop([&server] { server.serveForever(); });

        std::vector<std::string> lines;
        for (const uint32_t ath : {32u, 64u, 128u}) {
            const ServeReply reply = serveRequest(socket, ratchetRequest(ath));
            ASSERT_TRUE(reply.ok) << reply.error;
            ASSERT_EQ(reply.cells.size(), 1u);
            lines.push_back(reply.cells[0]);
        }
        const auto stats = serveRequestLine(socket, "{\"kind\":\"stats\"}");
        ASSERT_TRUE(stats.ok) << stats.error;
        EXPECT_NE(stats.done.find(warm ? "\"computes\":0"
                                       : "\"computes\":3"),
                  std::string::npos)
            << stats.done;
        if (warm)
            EXPECT_EQ(lines, cold);
        else
            cold = lines;

        const auto bye =
            serveRequestLine(socket, "{\"kind\":\"shutdown\"}");
        EXPECT_TRUE(bye.ok) << bye.error;
        loop.join();
    }
    std::filesystem::remove_all(dir);
}

TEST(Serve, OversizeRequestIsStillAdmittedAndMaxRequestsStops)
{
    const std::string socket = socketPathOf("moatsim_serve_admit.sock");
    ServeConfig sc = smallServeConfig(socket);
    // A budget far below any request's cost: the lone request must
    // still run (admission only queues against other running work).
    sc.maxCost = 1e-6;
    // ... and the server must exit on its own after serving it.
    sc.maxRequests = 1;
    Server server(sc);
    server.start();
    std::thread loop([&server] { server.serveForever(); });

    const ServeReply reply = serveRequest(socket, smallRequest());
    ASSERT_TRUE(reply.ok) << reply.error;
    ASSERT_EQ(reply.cells.size(), 1u);
    loop.join(); // maxRequests reached; no shutdown request needed
}

// ------------------------------------------------------- self-healing

TEST(Serve, TransientAcceptErrnosAreClassified)
{
    EXPECT_TRUE(transientAcceptError(EMFILE));
    EXPECT_TRUE(transientAcceptError(ENFILE));
    EXPECT_TRUE(transientAcceptError(ECONNABORTED));
    EXPECT_TRUE(transientAcceptError(ENOBUFS));
    EXPECT_TRUE(transientAcceptError(ENOMEM));
    EXPECT_FALSE(transientAcceptError(EBADF)) << "fatal listener error";
    EXPECT_FALSE(transientAcceptError(EINVAL));
}

TEST(Serve, RetryBackoffIsSeededDeterministicAndBounded)
{
    for (unsigned attempt = 0; attempt < 12; ++attempt) {
        const uint64_t ms = retryBackoffMs(7, attempt);
        EXPECT_EQ(ms, retryBackoffMs(7, attempt)) << "pure function";
        EXPECT_GT(ms, 0u);
        EXPECT_LE(ms, 250u) << "capped";
    }
    // Different seeds pace differently somewhere in the sequence.
    bool differs = false;
    for (unsigned attempt = 0; attempt < 12; ++attempt)
        differs |= retryBackoffMs(7, attempt) != retryBackoffMs(8, attempt);
    EXPECT_TRUE(differs);
}

TEST(Serve, InjectedComputeFaultFailsRetryablyAndDaemonSurvives)
{
    const std::string socket = socketPathOf("moatsim_serve_fault.sock");
    Server server(smallServeConfig(socket));
    server.start();
    std::thread loop([&server] { server.serveForever(); });

    fault::arm("sweep.compute@1");
    const ServeReply hurt = serveRequest(socket, smallRequest());
    fault::disarm();
    EXPECT_FALSE(hurt.ok);
    EXPECT_TRUE(hurt.retryable) << hurt.error;
    EXPECT_NE(hurt.error.find("cell compute failed"), std::string::npos)
        << hurt.error;
    EXPECT_NE(hurt.error.find("sweep.compute"), std::string::npos)
        << hurt.error;

    // The daemon outlived the fault: the same request now succeeds,
    // and the stats line counts the compute failure.
    const ServeReply fine = serveRequest(socket, smallRequest());
    ASSERT_TRUE(fine.ok) << fine.error;
    ASSERT_EQ(fine.cells.size(), 1u);
    const auto stats = serveRequestLine(socket, "{\"kind\":\"stats\"}");
    ASSERT_TRUE(stats.ok) << stats.error;
    EXPECT_NE(stats.done.find("\"compute_failures\":1"),
              std::string::npos)
        << stats.done;

    const auto bye = serveRequestLine(socket, "{\"kind\":\"shutdown\"}");
    EXPECT_TRUE(bye.ok) << bye.error;
    loop.join();
}

/** Lines of /proc/self/maps (one per mapping), or 0 without procfs. */
size_t
mappingCount()
{
    std::ifstream maps("/proc/self/maps");
    size_t lines = 0;
    for (std::string line; std::getline(maps, line);)
        ++lines;
    return lines;
}

TEST(Serve, FinishedConnectionThreadsAreJoined)
{
    // Each unjoined thread keeps its stack and guard page mapped (two
    // mappings), so 64 connection threads left unjoined until
    // shutdown would add about 128 mappings.
    if (mappingCount() == 0)
        GTEST_SKIP() << "no /proc/self/maps";
    const std::string socket = socketPathOf("moatsim_serve_reap.sock");
    Server server(smallServeConfig(socket));
    server.start();
    std::thread loop([&server] { server.serveForever(); });

    // One warm-up connection maps whatever the first handler needs.
    ASSERT_TRUE(serveRequestLine(socket, "{\"kind\":\"stats\"}").ok);
    const size_t before = mappingCount();
    for (int i = 0; i < 64; ++i) {
        const auto stats =
            serveRequestLine(socket, "{\"kind\":\"stats\"}");
        ASSERT_TRUE(stats.ok) << "connection " << i << ": " << stats.error;
    }
    const size_t after = mappingCount();
    EXPECT_LT(after, before + 16)
        << "mappings grew from " << before << " to " << after;

    const auto bye = serveRequestLine(socket, "{\"kind\":\"shutdown\"}");
    EXPECT_TRUE(bye.ok) << bye.error;
    loop.join();
}

TEST(Serve, InjectedAcceptFaultsBackOffAndKeepServing)
{
    const std::string socket = socketPathOf("moatsim_serve_accept.sock");
    Server server(smallServeConfig(socket));
    server.start();
    fault::arm("serve.accept@0.5:2");
    std::thread loop([&server] { server.serveForever(); });

    // Every request lands despite the accept loop stumbling: a faulted
    // accept leaves the pending connection queued, backs off, and
    // retries, so clients only see added latency.
    for (int i = 0; i < 3; ++i) {
        const ServeReply reply = serveRequest(socket, smallRequest());
        ASSERT_TRUE(reply.ok) << "request " << i << ": " << reply.error;
    }
    fault::disarm();

    const auto stats = serveRequestLine(socket, "{\"kind\":\"stats\"}");
    ASSERT_TRUE(stats.ok) << stats.error;
    const size_t at = stats.done.find("\"accept_retries\":");
    ASSERT_NE(at, std::string::npos) << stats.done;
    EXPECT_NE(stats.done.find("\"accept_retries\":0"), at)
        << "the survived retries must be counted: " << stats.done;

    const auto bye = serveRequestLine(socket, "{\"kind\":\"shutdown\"}");
    EXPECT_TRUE(bye.ok) << bye.error;
    loop.join();
}

TEST(Serve, ChaosRunConvergesByteIdenticallyToACleanRun)
{
    // The clean reference, computed before any fault is armed.
    const RunRequest req = smallRequest();
    ExperimentConfig ec = experimentConfigOf(req);
    ec.resultStore = ResultStore::Config{};
    Experiment direct(ec);
    const auto results = direct.run();
    ASSERT_EQ(results.size(), 1u);
    const std::string clean = toJsonLine(results[0]);

    const std::string socket = socketPathOf("moatsim_serve_chaos.sock");
    Server server(smallServeConfig(socket));
    server.start();
    std::thread loop([&server] { server.serveForever(); });

    // Chaos: half the cell computes throw and some server sends are
    // dropped, yet seeded client retries converge -- the shared store
    // caches every cell that ever finished, so each attempt only
    // recomputes what actually failed.
    fault::arm("sweep.compute@0.5:3,serve.send@0.1:4");
    RetryPolicy policy;
    policy.retries = 25;
    policy.seed = 7;
    const ServeReply reply = serveRequestWithRetries(socket, req, policy);
    fault::disarm();

    ASSERT_TRUE(reply.ok)
        << "after " << reply.attempts << " attempts: " << reply.error;
    EXPECT_GT(reply.attempts, 1u) << "the chaos plan must actually bite";
    ASSERT_EQ(reply.cells.size(), 1u);
    EXPECT_EQ(reply.cells[0], clean) << "chaos converges to clean bytes";

    const auto bye = serveRequestLine(socket, "{\"kind\":\"shutdown\"}");
    EXPECT_TRUE(bye.ok) << bye.error;
    loop.join();
}

// ---------------------------------------------------- protocol bytes

TEST(ServeBytes, FreshStatsAndByeLines)
{
    const std::string socket = socketPathOf("moatsim_serve_bytes_stats.sock");
    Server server(smallServeConfig(socket));
    server.start();
    std::thread loop([&server] { server.serveForever(); });

    // The counter-slab pool is process-wide, so its fields carry what
    // earlier tests left; nothing computes while the line is built.
    const auto slabs = subchannel::CounterSlab::poolStats();
    EXPECT_EQ(rawExchange(socket, "{\"kind\":\"stats\"}"),
              std::vector<std::string>{
                  "{\"kind\":\"stats\",\"entries\":0,\"hits\":0,"
                  "\"misses\":0,\"computes\":0,\"loaded\":0,"
                  "\"corrupt\":0,\"quarantined\":0,\"compactions\":0,"
                  "\"append_failures\":0,\"in_flight\":0,"
                  "\"trace_hits\":0,\"trace_misses\":0,"
                  "\"baseline_replays\":0,\"baseline_adopted\":0,"
                  "\"active\":0,"
                  "\"accept_retries\":0,\"compute_failures\":0,"
                  "\"admitted_cost\":0,\"slab_pooled_bytes\":" +
                  std::to_string(slabs.pooledBytes) +
                  ",\"slab_reuses\":" + std::to_string(slabs.reuses) +
                  ",\"slab_allocs\":" + std::to_string(slabs.allocs) +
                  "}"});
    EXPECT_EQ(rawExchange(socket, "{\"kind\":\"shutdown\"}"),
              std::vector<std::string>{"{\"kind\":\"bye\"}"});
    loop.join();
}

TEST(ServeBytes, CellDoneAndErrorLines)
{
    const RunRequest req = smallRequest();
    ExperimentConfig ec = experimentConfigOf(req);
    ec.resultStore = ResultStore::Config{};
    Experiment direct(ec);
    const auto results = direct.run();
    ASSERT_EQ(results.size(), 1u);

    const std::string socket = socketPathOf("moatsim_serve_bytes_cell.sock");
    Server server(smallServeConfig(socket));
    server.start();
    std::thread loop([&server] { server.serveForever(); });

    // One cell, then the done line with the cost and the request key.
    EXPECT_EQ(rawExchange(socket, toJsonLine(req)),
              (std::vector<std::string>{
                  "{\"kind\":\"cell\",\"index\":0,\"payload\":" +
                      quoted(toJsonLine(results[0])) + "}",
                  "{\"kind\":\"done\",\"cells\":1,"
                  "\"cost\":0.0093749999999999997,"
                  "\"request\":\"20716cc4e6ec37f3\"}"}));

    // A rejection carries no retryable tag; its message is escaped.
    EXPECT_EQ(rawExchange(socket, "{\"kind\":\"frobnicate\"}"),
              std::vector<std::string>{
                  "{\"kind\":\"error\",\"message\":"
                  "\"unknown request kind \\\"frobnicate\\\"\"}"});

    // A failed compute is tagged retryable (a fresh seed, so the cell
    // is not already in the store).
    RunRequest fresh = req;
    fresh.seed = 8;
    fault::arm("sweep.compute@1");
    const auto hurt = rawExchange(socket, toJsonLine(fresh));
    fault::disarm();
    EXPECT_EQ(hurt, std::vector<std::string>{
                        "{\"kind\":\"error\",\"message\":\"cell compute "
                        "failed: injected fault at site sweep.compute\","
                        "\"retryable\":true}"});

    EXPECT_EQ(rawExchange(socket, "{\"kind\":\"shutdown\"}").size(), 1u);
    loop.join();
}

// ------------------------------------------------- client reply check

/** A fake daemon: answers each of the next connections with one canned
 *  reply (raw protocol bytes) after reading the request line. */
class FakeServer
{
  public:
    FakeServer(const std::string &socket, std::vector<std::string> replies)
    {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, socket.c_str(),
                     sizeof(addr.sun_path) - 1);
        ::unlink(socket.c_str());
        listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<const sockaddr *>(&addr),
                         sizeof(addr)),
                  0);
        EXPECT_EQ(::listen(listen_fd_, 4), 0);
        thread_ = std::thread([this, replies = std::move(replies)] {
            for (const auto &reply : replies) {
                const int fd = ::accept(listen_fd_, nullptr, nullptr);
                if (fd < 0)
                    return;
                char c = 0;
                while (::recv(fd, &c, 1, 0) == 1 && c != '\n') {
                }
                ::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
                ::close(fd);
            }
        });
    }
    ~FakeServer()
    {
        thread_.join();
        ::close(listen_fd_);
    }
    FakeServer(const FakeServer &) = delete;
    FakeServer &operator=(const FakeServer &) = delete;

  private:
    int listen_fd_ = -1;
    std::thread thread_;
};

/** A raw cell line and a raw done line. */
std::string
cell(const std::string &index, const std::string &payload)
{
    return "{\"kind\":\"cell\",\"index\":" + index + ",\"payload\":\"" +
           payload + "\"}\n";
}

std::string
done(const std::string &cells)
{
    return "{\"kind\":\"done\",\"cells\":" + cells +
           ",\"cost\":1,\"request\":\"0000000000000000\"}\n";
}

TEST(ServeClient, MalformedRepliesFailRetryablyWithoutThrowing)
{
    const std::string socket = socketPathOf("moatsim_serve_fake.sock");
    const std::vector<std::string> malformed = {
        // An index far past the cell count: the client used to resize
        // its cell vector to it and throw std::length_error.
        cell("999999999999999999", "p") + done("1"),
        // Cells 0 and 1 never arrive: used to return ok with two
        // empty cells.
        cell("2", "c") + done("3"),
        // One index twice.
        cell("0", "a") + cell("0", "b") + done("2"),
        // A count the cells received cannot cover.
        done("999999999999999999"),
        // An index that is not a number.
        cell("-1", "p") + done("1"),
    };
    std::vector<std::string> replies = malformed;
    // The positive control: out-of-order cells are put back in order.
    replies.push_back(cell("1", "b") + cell("0", "a") + done("2"));
    FakeServer fake(socket, replies);

    for (size_t i = 0; i < malformed.size(); ++i) {
        ServeReply reply;
        EXPECT_NO_THROW(reply = serveRequest(socket, smallRequest()))
            << malformed[i];
        EXPECT_FALSE(reply.ok) << malformed[i];
        EXPECT_TRUE(reply.retryable) << malformed[i];
        EXPECT_NE(reply.error.find("malformed reply"), std::string::npos)
            << reply.error;
        EXPECT_TRUE(reply.cells.empty()) << malformed[i];
    }
    const ServeReply good = serveRequest(socket, smallRequest());
    ASSERT_TRUE(good.ok) << good.error;
    EXPECT_EQ(good.cells, (std::vector<std::string>{"a", "b"}));
}

} // namespace
} // namespace moatsim::sim
