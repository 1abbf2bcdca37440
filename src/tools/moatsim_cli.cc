/**
 * @file
 * moatsim command-line driver.
 *
 * One binary to run any of the library's experiments without writing
 * code. Every experiment subcommand accepts
 *
 *   --mitigator name[:key=value,...]
 *
 * naming any registered design (see `moatsim list-mitigators`), e.g.
 * `--mitigator moat:ath=128,eth=64` or `--mitigator panopticon`.
 *
 * Every command also accepts `--faults site@rate[:seed],...` (or the
 * MOATSIM_FAULTS environment variable) arming deterministic fault
 * injection at the named I/O sites (common/fault.hh; catalog in
 * README.md "Failure model") -- the chaos knob behind the serve/client
 * convergence smoke.
 *
 * `perf`, `coattack` and `attack` decode their flags into a
 * sim::RunRequest and check it with sim::validateRunRequest -- the
 * serve daemon's own check -- so a request the socket API rejects (say
 * `--fraction 0`, or `--pattern ratchet --mitigator panopticon`) fails
 * here too, by fatal() with the validator's message.
 *
 *   moatsim bound   [--ath N] [--level 1|2|4]        Appendix-A bound
 *   moatsim attack  [--pattern P] [--mitigator S] [--ath N] [--eth N]
 *                   [--device D] [--level 1|2|4] [--pool N] [--acts N]
 *                   [--trials N] [--banks N]
 *                   one isolated attack cell: P is hammer (default),
 *                   round-robin, ratchet, jailbreak, feinting,
 *                   postponement, or one of the throughput attacks
 *                   kernel and tsa, which also report the share of ACT
 *                   throughput their ALERTs cost. Without --mitigator
 *                   (or --ath/--eth) a pattern runs against the design
 *                   it targets (moat for the generic ones); design
 *                   knobs are spec keys, e.g.
 *                   panopticon:entries=16,threshold=64 or
 *                   ideal-prc:period=8. --acts N is the activation
 *                   budget, --trials N the phase trials of
 *                   postponement, --banks N the banks kernel and tsa
 *                   drive at once (e.g. `--pattern tsa --banks 17`,
 *                   the tFAW limit), and --device D runs under that
 *                   device grade's timings. Defaults (limits) at the
 *                   Table-3 geometry and ATH 64: hammer --acts 4096;
 *                   round-robin --pool 8 (5461), --acts 512 per row;
 *                   ratchet --pool 7325, the Appendix-A Nc of `moatsim
 *                   bound` (10918); jailbreak --acts threshold x
 *                   (entries + 2) (2^32 - 1), entries at most 4096;
 *                   feinting --pool one per mitigation period (10922);
 *                   postponement --trials 256 (480); kernel and tsa
 *                   --pool 5 (4303 up to 17 banks, 2330 at 32),
 *                   --banks 1 (32). Past a limit the request is
 *                   refused, naming the knob.
 *   moatsim perf    [--workload NAME|all] [--mitigator S] [--ath N]
 *                   [--eth N] [--level 1|2|4] [--fraction F]
 *                   [--subchannels N] [--device D[;D...]] [--jobs N]
 *                   [--jsonl FILE] [--trace-seed N]
 *                   [--result-store 0|1|DIR]
 *                   --subchannels N simulates the full system as N
 *                   sub-channels (default 2, the Table-3 baseline)
 *                   and reports per-sub-channel ALERT/mitigation
 *                   breakdowns; --device D runs on a named device
 *                   grade (see `moatsim list-devices`) -- a
 *                   semicolon-separated list sweeps the device axis,
 *                   one experiment per grade, all appending to the
 *                   same --jsonl file; --jobs N fans the sweep across
 *                   N workers (0 = hardware concurrency; results are
 *                   bit-identical at any value); --jsonl appends one
 *                   structured JSON line per result; --result-store
 *                   overrides MOATSIM_RESULT_STORE ("0" = off, "1" =
 *                   in-memory, DIR = persistent shards) and a summary
 *                   "result store: hits=... computes=..." line lands
 *                   on stderr after the sweep
 *   moatsim coattack [--pattern P] [--workload NAME|all]
 *                   [--mitigator S] [--device D] [--level 1|2|4]
 *                   [--fraction F] [--subchannels N] [--pool N]
 *                   [--acts N] [--attack-subchannel I] [--attack-bank B]
 *                   [--seed N] [--jobs N] [--jsonl FILE]
 *                   [--trace-seed N] [--result-store 0|1|DIR]
 *                   adversary-under-load scenario: the attack pattern
 *                   (any but kernel and tsa) is synthesized as one
 *                   more core's activation trace and co-scheduled
 *                   with the workload's benign cores on the full
 *                   multi-sub-channel System;
 *                   reports the attacker's maxHammer under contention,
 *                   the victims' slowdown vs an attack-free co-run of
 *                   the same design, and the ALERT/RFM activity with
 *                   the attack-free counts alongside
 *   moatsim serve   --socket PATH [--max-cost C] [--max-requests N]
 *                   [--drain-cells N] [--result-store 0|1|DIR]
 *                   sweep-as-a-service daemon: listens on an AF_UNIX
 *                   socket for line-oriented JSON run requests (the
 *                   same flags' JSON form; see sim/serve.hh for the
 *                   protocol), sharing one trace store, result store,
 *                   and baseline cache across all clients so
 *                   concurrent requests for the same cells compute
 *                   each cell once; --max-cost bounds the estimated
 *                   cost of concurrently running requests;
 *                   --max-requests N exits after N run requests;
 *                   --drain-cells N bounds how many more cells each
 *                   in-flight reply may stream after a shutdown
 *                   begins (0 = drain fully)
 *   moatsim client  --socket PATH [--kind perf|coattack|attack]
 *                   [--stats] [--shutdown] [--retries N]
 *                   [--retry-seed S] [--jsonl FILE] [request flags]
 *                   thin client: sends one request to a serve daemon
 *                   and prints the per-cell result JSONL in request
 *                   order (byte-identical to the direct CLI's --jsonl
 *                   output); --stats prints the daemon's store and
 *                   admission counters; --shutdown stops the daemon;
 *                   --retries N re-sends on retryable failures with a
 *                   deterministic seeded backoff, converging
 *                   byte-identically (the daemon's result store makes
 *                   replayed cells free)
 *   moatsim reproduce [--claims FILE] [--jobs N] [--jsonl FILE]
 *                   [--result-store 0|1|DIR]
 *                   check the paper's claims: run every row of the
 *                   claims table (default tests/claims/paper.jsonl;
 *                   format in sim/claims.hh) through the serve
 *                   daemon's request path, sharing one set of stores
 *                   (in memory unless --result-store says otherwise),
 *                   and print each row's paper value, measured value,
 *                   band and outcome; --jsonl appends every result
 *                   line. Exit 1 when a row comes out other than the
 *                   table records: a "holds" row outside its band, or a
 *                   "deviates" row now inside it.
 *   moatsim store fsck --dir DIR [--repair]
 *                   scan a persistent result-store shard directory:
 *                   every record must decode and match its checksums;
 *                   --repair quarantines damaged records
 *                   (quarantine.jsonl) and compacts the shards
 *                   atomically. Exit 1 = damage found without
 *                   --repair.
 *   moatsim replay  --trace FILE [--mitigator S] [--ath N] [--eth N]
 *                   [--subchannels N] [--postpone]
 *                   traces carrying a sub-channel column replay on a
 *                   multi-sub-channel System automatically
 *   moatsim list-mitigators
 *   moatsim list-devices
 *   moatsim list-workloads
 *
 * Flags may be boolean (`--postpone` with no value) or valued
 * (`--ath 128`); a valued flag with a missing value is reported by
 * name.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "analysis/ratchet_model.hh"
#include "common/args.hh"
#include "common/fault.hh"
#include "common/logging.hh"
#include "common/spec_text.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "dram/device.hh"
#include "mitigation/registry.hh"
#include "sim/claims.hh"
#include "sim/experiment.hh"
#include "sim/result_io.hh"
#include "sim/run_request.hh"
#include "sim/serve.hh"
#include "sim/system.hh"
#include "workload/trace_io.hh"

using namespace moatsim;

namespace
{

/**
 * The --device grades to run: canonicalized DeviceSpec texts, one per
 * semicolon-separated list entry (semicolons, because device specs
 * carry commas internally). An absent flag yields one empty string --
 * the hand-assembled default pipeline, bit-identical to the
 * pre-device-model behavior.
 */
std::vector<std::string>
deviceListArg(const Args &args)
{
    const std::string text = args.get("device", "");
    if (text.empty())
        return {""};
    std::vector<std::string> out;
    for (const std::string &item : splitList(text, ';')) {
        if (item.empty())
            fatal("--device: empty spec in list '" + text + "'");
        out.push_back(dram::DeviceSpec::parse(item).describe());
    }
    return out;
}

/** The single --device grade (canonicalized), or "" when absent. */
std::string
deviceArg(const Args &args)
{
    const std::string text = args.get("device", "");
    if (text.empty())
        return "";
    return dram::DeviceSpec::parse(text).describe();
}

int
cmdBound(const Args &args)
{
    dram::TimingParams t;
    const auto b = analysis::ratchetBound(
        t, args.getUint32("ath", 64),
        static_cast<int>(args.getPositive("level", 1)));
    std::printf("ATH=%u level=%d: TRH_safe=%.1f (pool Nc=%lu, "
                "tA2A=%.0f ns, %u ACTs per ALERT window)\n",
                b.ath, b.level, b.safeTrh,
                static_cast<unsigned long>(b.maxPoolRows),
                toNs(b.alertToAlert), b.actsPerWindow);
    return 0;
}

int
cmdAttack(const Args &args)
{
    sim::RunRequest req = sim::runRequestOfArgs("attack", args);
    req.device = deviceArg(args);
    std::string err;
    if (!sim::validateRunRequest(req, &err))
        fatal(err);
    sim::SweepEngine engine(sim::SweepConfig{});
    const auto r = engine.runCell(sim::attackCellOf(req));
    std::printf("%s vs %s%s%s: max ACTs=%u, %lu total ACTs, %lu ALERTs, "
                "%.2f ms\n",
                r.pattern.c_str(), r.mitigator.c_str(),
                req.device.empty() ? "" : " on ", req.device.c_str(),
                r.maxHammer, static_cast<unsigned long>(r.totalActs),
                static_cast<unsigned long>(r.alerts), toMs(r.duration));
    if (attacks::findAttackPattern(r.pattern)->throughput)
        std::printf("throughput loss %s\n",
                    formatPercent(r.lossFraction, 1).c_str());
    return 0;
}

/** The --result-store override, or the environment's default. */
sim::ResultStore::Config
resultStoreArg(const Args &args)
{
    if (!args.has("result-store"))
        return sim::ResultStore::envConfig();
    // A bare --result-store means "1": enabled, in-memory only.
    return sim::ResultStore::configOf(args.get("result-store", "1"));
}

/** The post-run store summary verify.sh's warm smoke greps for. */
void
printResultStoreStats(const sim::ResultStore &store)
{
    if (!store.enabled())
        return;
    const auto st = store.stats();
    std::fprintf(stderr,
                 "result store: hits=%llu misses=%llu computes=%llu "
                 "loaded=%llu corrupt=%llu quarantined=%llu "
                 "append_failures=%llu entries=%zu\n",
                 static_cast<unsigned long long>(st.hits),
                 static_cast<unsigned long long>(st.misses),
                 static_cast<unsigned long long>(st.computes),
                 static_cast<unsigned long long>(st.loaded),
                 static_cast<unsigned long long>(st.corrupt),
                 static_cast<unsigned long long>(st.quarantined),
                 static_cast<unsigned long long>(st.appendFailures),
                 st.entries);
}

/**
 * Hands @p write the --jsonl file opened for append, or returns false
 * when --jsonl is absent; fatal()s when the file cannot be opened.
 */
template <class Write>
bool
appendJsonl(const Args &args, const Write &write)
{
    const std::string path = args.get("jsonl", "");
    if (path.empty())
        return false;
    std::ofstream os(path, std::ios::app);
    if (!os)
        fatal("cannot open --jsonl file " + path);
    write(os);
    return true;
}

/** "a / b / c" column joining one value per sub-channel. */
std::string
perSubchannelColumn(const std::vector<sim::SubChannelPerf> &per,
                    double sim::SubChannelPerf::*field, int digits)
{
    std::string out;
    for (const auto &p : per) {
        if (!out.empty())
            out += " / ";
        out += formatFixed(p.*field, digits);
    }
    return out;
}

int
cmdPerf(const Args &args)
{
    // One shared RunRequest codec for the CLI, the in-process API,
    // and the serve protocol (sim/run_request.hh); the --device list
    // is CLI sugar, one request per grade.
    const sim::RunRequest base = sim::runRequestOfArgs("perf", args);

    // One result store across the whole device sweep (and, when
    // --result-store names a directory, across CLI invocations).
    sim::ExperimentStores stores;
    stores.results =
        std::make_shared<sim::ResultStore>(resultStoreArg(args));

    // The device axis: each named grade is its own experiment (its
    // timings and topology reshape every trace), all results landing in
    // one table sequence and one --jsonl file.
    for (const std::string &device : deviceListArg(args)) {
        sim::RunRequest req = base;
        req.device = device;
        // The daemon's own check: a request the socket API rejects
        // never runs from the command line either.
        std::string err;
        if (!sim::validateRunRequest(req, &err))
            fatal(err);
        const sim::ExperimentConfig ec = sim::experimentConfigOf(req);
        sim::Experiment exp(ec, stores);
        const auto results = exp.run();

        const uint32_t slots = sim::slotCountOf(req);
        if (device.empty()) {
            std::printf("mitigator: %s (%u sub-channels)\n",
                        ec.mitigator.describe().c_str(),
                        ec.tracegen.subchannels);
        } else {
            const auto dm = dram::DeviceSpec::parse(device).resolve();
            std::printf("mitigator: %s on %s (%u channel(s) x %u rank(s) "
                        "x %u sub-channels = %u slots)\n",
                        ec.mitigator.describe().c_str(), device.c_str(),
                        dm.channels(), dm.ranks(),
                        ec.tracegen.subchannels, slots);
        }
        const bool multi = slots > 1;
        std::vector<std::string> cols = {"workload", "slowdown",
                                         "ALERTs/tREFI",
                                         "mitigations/bank/tREFW"};
        if (multi) {
            cols.push_back("per-sc ALERTs/tREFI");
            cols.push_back("per-sc mitigations");
        }
        TablePrinter t(cols);
        for (const auto &r : results) {
            std::vector<std::string> row = {
                r.workload, formatPercent(1.0 - r.normPerf),
                formatFixed(r.alertsPerRefi, 4),
                formatFixed(r.mitigationsPerBankPerRefw, 0)};
            if (multi) {
                row.push_back(perSubchannelColumn(
                    r.perSubchannel, &sim::SubChannelPerf::alertsPerRefi,
                    4));
                row.push_back(perSubchannelColumn(
                    r.perSubchannel,
                    &sim::SubChannelPerf::mitigationsPerBankPerRefw, 0));
            }
            t.addRow(row);
        }
        t.print(std::cout);
        appendJsonl(args, [&](std::ostream &os) {
            sim::writeJsonLines(os, results);
        });
    }
    printResultStoreStats(*stores.results);
    return 0;
}

int
cmdCoattack(const Args &args)
{
    sim::RunRequest req = sim::runRequestOfArgs("coattack", args);
    req.device = deviceArg(args);
    std::string err;
    if (!sim::validateRunRequest(req, &err))
        fatal(err);
    const uint32_t slots = sim::slotCountOf(req);

    sim::ExperimentStores stores;
    stores.results =
        std::make_shared<sim::ResultStore>(resultStoreArg(args));
    const sim::ExperimentConfig ec = sim::experimentConfigOf(req);
    sim::Experiment exp(ec, stores);

    const sim::CoAttackScenario attack = sim::coAttackScenarioOf(req);
    const auto results = exp.runCoAttack(attack);

    std::printf("%s attacker vs %s%s%s on %u sub-channel slot%s "
                "(ABO L%d)\n",
                attack.pattern.c_str(), ec.mitigator.describe().c_str(),
                ec.device.empty() ? "" : " on ", ec.device.c_str(),
                slots, slots == 1 ? "" : "s", req.level);
    TablePrinter t({"workload", "attacker max ACTs", "attacker ACTs",
                    "victim slowdown", "ALERTs (attack-free)",
                    "RFMs (attack-free)"});
    for (const auto &r : results) {
        t.addRow({r.workload, std::to_string(r.attackerMaxHammer),
                  std::to_string(r.attackerActs),
                  formatFixed(r.victimSlowdown, 4) + "x",
                  std::to_string(r.alerts) + " (" +
                      std::to_string(r.attackFreeAlerts) + ")",
                  std::to_string(r.rfms) + " (" +
                      std::to_string(r.attackFreeRfms) + ")"});
    }
    t.print(std::cout);
    appendJsonl(args, [&](std::ostream &os) {
        sim::writeJsonLines(os, results);
    });
    printResultStoreStats(*stores.results);
    return 0;
}

/** A claims-table number: six significant digits, "-" for none. */
std::string
claimNumber(double v)
{
    if (std::isnan(v))
        return "-";
    std::ostringstream os;
    os << v;
    return os.str();
}

int
cmdReproduce(const Args &args)
{
    const std::string path = args.get("claims", "tests/claims/paper.jsonl");
    std::ifstream in(path);
    if (!in)
        fatal("cannot open --claims file " + path);
    std::vector<sim::Claim> claims;
    std::string err;
    if (!sim::tryParseClaims(in, &claims, &err))
        fatal(path + ": " + err);

    // Rows share cells, so without --result-store they are still
    // cached in memory.
    sim::ResultStore::Config store = resultStoreArg(args);
    if (!args.has("result-store"))
        store.enabled = true;
    sim::ExperimentStores stores;
    stores.traces = std::make_shared<workload::TraceStore>();
    stores.results = std::make_shared<sim::ResultStore>(store);
    stores.baselines = std::make_shared<sim::BaselineCache>();
    const unsigned jobs = args.getUint32("jobs", 0);
    std::vector<sim::ClaimOutcome> outcomes;
    if (!appendJsonl(args, [&](std::ostream &os) {
            outcomes = sim::runClaims(claims, stores, jobs, &os);
        }))
        outcomes = sim::runClaims(claims, stores, jobs);

    TablePrinter t({"claim", "paper", "measured", "band", "outcome"});
    std::map<std::string, size_t> counts;
    size_t unexpected = 0;
    for (size_t i = 0; i < claims.size(); ++i) {
        const sim::Claim &c = claims[i];
        const sim::ClaimOutcome &o = outcomes[i];
        std::string band = "[" + claimNumber(c.lo) + ", " +
                           claimNumber(c.hi) + "]";
        if (std::isinf(c.lo))
            band = "<= " + claimNumber(c.hi);
        else if (std::isinf(c.hi))
            band = ">= " + claimNumber(c.lo);
        std::string outcome =
            o.outcome == "error" ? "error: " + o.error : o.outcome;
        ++counts[o.outcome];
        if (o.outcome != c.expect) {
            ++unexpected;
            outcome += " (table expects " + c.expect + ")";
        }
        t.addRow({c.id, claimNumber(c.paper), claimNumber(o.measured), band,
                  outcome});
    }
    t.print(std::cout);
    std::printf("%zu claims: %zu hold, %zu deviate, %zu errors; %zu not "
                "as the table records\n",
                claims.size(), counts["holds"], counts["deviates"],
                counts["error"], unexpected);
    printResultStoreStats(*stores.results);
    return unexpected == 0 ? 0 : 1;
}

int
cmdServe(const Args &args)
{
    sim::ServeConfig sc;
    sc.socketPath = args.get("socket", "");
    if (sc.socketPath.empty())
        fatal("serve requires --socket PATH");
    sc.maxCost = args.getDouble("max-cost", 0.0);
    sc.maxRequests = args.getInt("max-requests", 0);
    sc.drainCells = args.getInt("drain-cells", 0);
    sc.resultStore = resultStoreArg(args);

    sim::Server server(sc);
    server.start();
    std::fprintf(stderr, "moatsim serve: listening on %s\n",
                 sc.socketPath.c_str());
    server.serveForever();
    printResultStoreStats(*server.resultStore());
    return 0;
}

int
cmdClient(const Args &args)
{
    const std::string socket = args.get("socket", "");
    if (socket.empty())
        fatal("client requires --socket PATH");
    if (args.getBool("shutdown", false) || args.getBool("stats", false)) {
        const char *kind =
            args.getBool("shutdown", false) ? "shutdown" : "stats";
        const auto reply = sim::serveRequestLine(
            socket, std::string("{\"kind\":\"") + kind + "\"}");
        if (!reply.ok)
            fatal("client: " + reply.error);
        std::printf("%s\n", reply.done.c_str());
        return 0;
    }

    sim::RunRequest req =
        sim::runRequestOfArgs(args.get("kind", "perf"), args);
    req.device = deviceArg(args);
    // --retries re-sends on retryable failures (daemon restarting,
    // injected faults, truncated reply streams) with a deterministic
    // seeded backoff; the daemon's result store makes every retry
    // recompute only the cells that actually failed, so the final
    // output is byte-identical to a clean run.
    sim::RetryPolicy policy;
    policy.retries = args.getUint32("retries", 0);
    policy.seed = args.getInt("retry-seed", 1);
    const auto reply = sim::serveRequestWithRetries(socket, req, policy);
    if (!reply.ok)
        fatal("client: " + reply.error +
              (reply.attempts > 1
                   ? " (after " + std::to_string(reply.attempts) +
                         " attempts)"
                   : ""));
    if (reply.attempts > 1)
        std::fprintf(stderr, "client: converged after %u attempts\n",
                     reply.attempts);

    // The cells come back in request order, so this stream is
    // byte-identical to what the direct CLI's --jsonl would append.
    const bool appended = appendJsonl(args, [&](std::ostream &os) {
        for (const auto &cell : reply.cells)
            os << cell << "\n";
    });
    if (!appended) {
        for (const auto &cell : reply.cells)
            std::printf("%s\n", cell.c_str());
    }
    std::fprintf(stderr, "client: %s\n", reply.done.c_str());
    return 0;
}

int
cmdStoreFsck(const Args &args)
{
    const std::string dir = args.get("dir", "");
    if (dir.empty())
        fatal("store fsck requires --dir DIR (the shard directory)");
    const bool repair = args.getBool("repair", false);
    const auto report = sim::ResultStore::fsck(dir, repair);
    std::printf("fsck %s: shards=%llu valid=%llu corrupt=%llu "
                "duplicates=%llu repaired=%llu\n",
                dir.c_str(),
                static_cast<unsigned long long>(report.shards),
                static_cast<unsigned long long>(report.valid),
                static_cast<unsigned long long>(report.corrupt),
                static_cast<unsigned long long>(report.duplicates),
                static_cast<unsigned long long>(report.repaired));
    if (report.corrupt > 0) {
        if (!repair) {
            std::printf("store is damaged; re-run with --repair to "
                        "quarantine and compact\n");
            return 1;
        }
        std::printf("damaged records moved to %s/quarantine.jsonl; "
                    "the affected cells will recompute\n",
                    dir.c_str());
    }
    return 0;
}

int
cmdReplay(const Args &args)
{
    const std::string path = args.get("trace", "");
    if (path.empty())
        fatal("replay requires --trace FILE");
    const auto traces = workload::loadTraces(path);

    // The trace's sub-channel column sizes the replayed System;
    // --subchannels overrides (e.g. to fold a trace onto one channel).
    uint32_t nsc = 1;
    for (const auto &t : traces) {
        for (const auto &e : t.events)
            nsc = std::max(nsc, uint32_t{e.subchannel} + 1);
    }
    nsc = args.getPositive("subchannels", nsc);

    const auto spec = sim::mitigatorOfArgs(args, abo::Level::L1);
    sim::SystemConfig sys;
    sys.channel.securityEnabled = true;
    sys.subchannels = nsc;
    sim::System system(sys, spec.factory());
    // Sub-channel slots wrap onto the system; banks and rows must fit.
    workload::checkTraceFits(traces, system.subchannel(0).numBanks(),
                             system.subchannel(0).timing().rowsPerBank);
    // Boolean flag: replay under attacker-controlled REF postponement.
    system.setPostponeRefresh(args.getBool("postpone", false));
    const auto res = sim::runSystem(system, traces);
    std::printf("Replayed %lu activations from %zu cores on %u "
                "sub-channel%s against %s: %lu ALERTs, %lu mitigations, "
                "max unmitigated ACTs on any row %u\n",
                static_cast<unsigned long>(res.totalActs), traces.size(),
                nsc, nsc == 1 ? "" : "s", spec.describe().c_str(),
                static_cast<unsigned long>(res.alerts),
                static_cast<unsigned long>(
                    system.mitigationStats().totalMitigations()),
                system.maxHammerAnyBank());
    if (nsc > 1) {
        for (uint32_t i = 0; i < nsc; ++i) {
            const auto &u = res.perSubchannel[i];
            std::printf("  sub-channel %u: %lu ACTs, %lu REFs, %lu "
                        "ALERTs, %lu mitigations\n",
                        i, static_cast<unsigned long>(u.acts),
                        static_cast<unsigned long>(u.refs),
                        static_cast<unsigned long>(u.alerts),
                        static_cast<unsigned long>(
                            u.mitigation.totalMitigations()));
        }
    }
    return 0;
}

int
cmdListMitigators()
{
    // Per-chip figures use the default device grade's bank count --
    // the same DeviceModel geometry the storage model consumes.
    const dram::DeviceModel device;
    TablePrinter t({"name", "SRAM B/bank", "SRAM B/chip",
                    "parameters (default)"});
    for (const auto &name : mitigation::Registry::names()) {
        const auto &desc = mitigation::Registry::descriptor(name);
        std::string params =
            joinNames(desc.params, [](const mitigation::ParamInfo &p) {
                return p.key + "=" + p.defaultValue;
            });
        if (params.empty())
            params = "(none)";
        const auto spec = mitigation::Registry::parse(name);
        t.addRow({name, std::to_string(spec.sramBytesPerBank()),
                  std::to_string(spec.sramBytesPerBank() *
                                 device.banksPerSubchannel()),
                  params});
    }
    t.print(std::cout);

    std::cout << "\n";
    for (const auto &name : mitigation::Registry::names()) {
        const auto &desc = mitigation::Registry::descriptor(name);
        std::cout << name << ": " << desc.summary << "\n";
        for (const auto &p : desc.params)
            std::cout << "  " << p.key << " -- " << p.doc << "\n";
    }
    std::cout << "\nselect one with --mitigator name[:key=value,...], "
                 "e.g. --mitigator moat:ath=128,eth=64\n";
    return 0;
}

int
cmdListDevices()
{
    TablePrinter orgs({"org", "rows/bank", "banks/sub-ch", "ranks",
                       "channels", "summary"});
    for (const auto &o : dram::deviceOrgs()) {
        orgs.addRow({o.name, std::to_string(o.rowsPerBank),
                     std::to_string(o.banksPerSubchannel()),
                     std::to_string(o.ranks), std::to_string(o.channels),
                     o.summary});
    }
    orgs.print(std::cout);

    std::cout << "\n";
    TablePrinter speeds({"speed", "tRC ns", "tREFI ns", "tRFC ns",
                         "tREFW ms", "tRFM ns", "summary"});
    for (const auto &s : dram::deviceSpeeds()) {
        speeds.addRow({s.name, formatFixed(toNs(s.tRC), 0),
                       formatFixed(toNs(s.tREFI), 0),
                       formatFixed(toNs(s.tRFC), 0),
                       formatFixed(toMs(s.tREFW), 0),
                       formatFixed(toNs(s.tRFM), 0), s.summary});
    }
    speeds.print(std::cout);

    std::cout << "\nselect with --device device:org=NAME,speed=NAME "
                 "(either key may be omitted; defaults are org=" +
                     dram::defaultDeviceOrg() +
                     ", speed=" + dram::defaultDeviceSpeed() +
                     " -- the paper's Table-3 system)\n";
    return 0;
}

int
cmdListWorkloads()
{
    TablePrinter t({"name", "suite", "ACT-PKI", "ACT-32+", "ACT-64+",
                    "ACT-128+"});
    for (const auto &w : workload::table4Workloads()) {
        t.addRow({w.name, w.isGap ? "GAP" : "SPEC-2017",
                  formatFixed(w.actPki, 1), std::to_string(w.act32),
                  std::to_string(w.act64), std::to_string(w.act128)});
    }
    t.print(std::cout);
    return 0;
}

void
usage()
{
    std::fprintf(
        stderr,
        "usage: moatsim <command> [--flag [value] ...]\n"
        "commands: bound attack coattack perf reproduce serve\n"
        "          client store replay list-mitigators list-devices\n"
        "          list-workloads\n"
        "reproduce checks the paper's claims table (--claims FILE,\n"
        "default tests/claims/paper.jsonl) and exits 1 when a row\n"
        "comes out other than the table records;\n"
        "attack runs one isolated pattern (--pattern P); perf and\n"
        "coattack accept --jobs N (parallel sweep; 0 = hardware\n"
        "concurrency, results bit-identical at any value); all three\n"
        "accept --device D naming a DDR5 device grade (run\n"
        "'moatsim list-devices'; perf takes a semicolon-separated\n"
        "list to sweep the device axis); perf and coattack accept\n"
        "--jsonl FILE for structured results and --subchannels N\n"
        "(default 2) for the full-system simulation\n"
        "(MOATSIM_TRACE_STORE=0 disables the shared trace cache --\n"
        "results are bit-identical); all three reject the same requests\n"
        "the serve daemon rejects; coattack\n"
        "co-schedules an attack pattern with the workload's cores and\n"
        "reports attacker maxHammer plus victim slowdown;\n"
        "--result-store 0|1|DIR (or MOATSIM_RESULT_STORE) caches\n"
        "whole result cells -- DIR persists them, so a warm re-run\n"
        "recomputes nothing and is byte-identical; serve runs the\n"
        "sweep daemon on --socket PATH and client talks to it\n"
        "(--retries N re-sends on retryable failures with a seeded\n"
        "deterministic backoff); store fsck --dir DIR [--repair]\n"
        "scans the result-store shards and quarantines damage; every\n"
        "command accepts --faults site@rate[:seed],... (or\n"
        "MOATSIM_FAULTS) to arm deterministic fault injection -- see\n"
        "README.md \"Failure model\" for the site catalog;\n"
        "every experiment accepts --mitigator name[:k=v,...]; run\n"
        "'moatsim list-mitigators' for the registered designs and see\n"
        "the file header of src/tools/moatsim_cli.cc for all flags\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 1;
    }
    const std::string cmd = argv[1];
    // Chaos knob, armed before any store or daemon is built:
    // MOATSIM_FAULTS first, then --faults overriding it.
    fault::armFromEnv();
    if (cmd == "store") {
        // Subcommand grammar: `moatsim store fsck --flags`; the flag
        // parse starts after the subcommand token.
        if (argc < 3) {
            usage();
            return 1;
        }
        const std::string sub = argv[2];
        const Args sargs(argc, argv, 3);
        if (sargs.has("faults"))
            fault::arm(sargs.get("faults", ""));
        if (sub == "fsck")
            return cmdStoreFsck(sargs);
        fatal("unknown store subcommand '" + sub + "' (try fsck)");
    }
    const Args args(argc, argv, 2);
    if (args.has("faults"))
        fault::arm(args.get("faults", ""));
    if (cmd == "bound")
        return cmdBound(args);
    if (cmd == "attack")
        return cmdAttack(args);
    if (cmd == "coattack")
        return cmdCoattack(args);
    if (cmd == "perf")
        return cmdPerf(args);
    if (cmd == "reproduce")
        return cmdReproduce(args);
    if (cmd == "serve")
        return cmdServe(args);
    if (cmd == "client")
        return cmdClient(args);
    if (cmd == "replay")
        return cmdReplay(args);
    if (cmd == "list-mitigators")
        return cmdListMitigators();
    if (cmd == "list-devices")
        return cmdListDevices();
    if (cmd == "list-workloads")
        return cmdListWorkloads();
    usage();
    return 1;
}
