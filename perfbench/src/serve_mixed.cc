/**
 * @file
 * serve-mixed: a `moatsim serve` daemon under a closed loop of
 * sim::serveRequest calls.
 *
 * The run pre-fills a persistent result store (untimed, through the
 * direct Experiment path, which also yields every warm cell's reference
 * bytes) and then measures "sessions": copy the pristine store, launch
 * the daemon on the copy (set-up time = launch until the socket
 * accepts, which includes the shard load), send one warm probe request
 * (first_cell_ms), then drive a fixed, seeded request sequence from
 * --jobs client threads, each sending its next request only after the
 * previous reply. Every session starts from the same store, so fresh
 * cells are fresh in every session and sessions are repeat trials of
 * one load. The daemon is restarted per session because it keeps one
 * unjoined thread per connection until it exits.
 */

#include <csignal>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>

#include "common/hash.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "mitigation/registry.hh"
#include "pipeline.hh"
#include "sim/experiment.hh"
#include "sim/result_io.hh"
#include "sim/run_request.hh"
#include "sim/serve.hh"
#include "workload/spec.hh"
#include "workloads.hh"

namespace moatbench
{

using namespace moatsim;

namespace
{

/** Cells are small: 1/1024 of a tREFW (about eight tREFI). */
constexpr double kFraction = 1.0 / 1024.0;
/** Warm perf design points per trace seed (MOAT ATH = 32 + 4k). */
constexpr int kWarmPoints = 40;
/** Warm co-attack cells per (workload, trace seed): attack seeds. */
constexpr uint64_t kWarmAttackSeeds = 8;
constexpr size_t kRequestsPerSession = 2000;
/** Launches that only measure set-up and the first request. */
constexpr int kSetupOnlyLaunches = 8;
/** Relative to the working directory, so it always fits AF_UNIX. */
const char *const kSocket = "serve.sock";
const char *const kPristine = "store-pristine";
const char *const kLive = "store-live";

std::string
perfMitigator(int ath)
{
    return "moat:ath=" + std::to_string(ath) +
           ",eth=" + std::to_string(ath / 2);
}

sim::RunRequest
baseRequest(const std::string &kind, uint64_t trace_seed)
{
    sim::RunRequest r;
    r.kind = kind;
    r.mitigator = kind == "perf" ? perfMitigator(32) : "moat";
    r.fraction = kFraction;
    r.subchannels = 2;
    r.seed = trace_seed;
    r.jobs = 1;
    r.pattern = "hammer";
    return r;
}

/** Identity of one served cell (request minus its workload selection,
 *  plus the workload). */
std::string
cellId(const sim::RunRequest &r, const std::string &workload)
{
    return r.kind + "|" + r.mitigator + "|" + std::to_string(r.seed) + "|" +
           std::to_string(r.kind == "coattack" ? r.attackSeed : 0) + "|" +
           workload;
}

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names;
    for (const auto &w : workload::table4Workloads())
        names.push_back(w.name);
    return names;
}

struct Request
{
    sim::RunRequest req;
    std::string line;
    /** Reference payloads in index order. */
    std::vector<std::string> expected;
    bool fresh = false;
};

/** Fill @p dir with the warm cells; returns their reference bytes. */
std::map<std::string, std::string>
prefill(const RunOptions &opts, const std::vector<uint64_t> &trace_seeds)
{
    sim::ResultStore::Config sc;
    sc.enabled = true;
    sc.dir = kPristine;
    removeTree(kPristine);
    sim::ExperimentStores stores;
    stores.results = std::make_shared<sim::ResultStore>(sc);
    stores.traces = std::make_shared<workload::TraceStore>();
    const auto names = workloadNames();
    std::map<std::string, std::string> ref;
    for (const uint64_t t : trace_seeds) {
        sim::RunRequest perf = baseRequest("perf", t);
        perf.jobs = opts.jobs;
        sim::Experiment exp(sim::experimentConfigOf(perf), stores);

        std::vector<sim::SweepPoint> points;
        for (int k = 0; k < kWarmPoints; ++k)
            points.push_back({mitigation::Registry::parse(
                                  perfMitigator(32 + 4 * k)),
                              abo::Level::L1});
        const auto perf_results = exp.runMatrix(points);
        for (int k = 0; k < kWarmPoints; ++k) {
            perf.mitigator = perfMitigator(32 + 4 * k);
            for (size_t w = 0; w < names.size(); ++w)
                ref[cellId(perf, names[w])] =
                    sim::toJsonLine(perf_results[k][w]);
        }

        sim::RunRequest co = baseRequest("coattack", t);
        std::vector<sim::CoAttackPoint> co_points;
        for (uint64_t a = 1; a <= kWarmAttackSeeds; ++a) {
            co.attackSeed = a;
            co_points.push_back({mitigation::Registry::parse(co.mitigator),
                                 abo::Level::L1,
                                 sim::coAttackScenarioOf(co)});
        }
        const auto co_results = exp.runCoAttackMatrix(co_points);
        for (uint64_t a = 1; a <= kWarmAttackSeeds; ++a) {
            co.attackSeed = a;
            for (size_t w = 0; w < names.size(); ++w)
                ref[cellId(co, names[w])] =
                    sim::toJsonLine(co_results[a - 1][w]);
        }
    }
    return ref;
}

/** The seeded request sequence: ~70% warm single cells (a quarter of
 *  them co-attack), ~20% warm 21-cell perf sweeps, ~10% fresh perf
 *  cells. Fresh co-attack cells are left out: each allocates the
 *  security oracle twice, which would make simulation, not the store
 *  and serve path, the load. */
std::vector<Request>
requestSequence(const RunOptions &opts,
                const std::vector<uint64_t> &trace_seeds,
                const std::map<std::string, std::string> &ref)
{
    Rng rng(hashCombine(opts.seed, stableHash64("serve-mixed")));
    const auto names = workloadNames();
    std::vector<Request> out;
    size_t fresh = 0;
    for (size_t i = 0; i < kRequestsPerSession; ++i) {
        const uint64_t roll = rng.below(100);
        const uint64_t t = trace_seeds[rng.below(trace_seeds.size())];
        const std::string w = names[rng.below(names.size())];
        Request r;
        if (roll < 10) {
            // Fresh cells cycle through every (workload, trace seed)
            // pair, so at every seed a session generates the same
            // number of cold traces; their design points sit between
            // the warm ones (ATH = 2 mod 4).
            r.fresh = true;
            r.req = baseRequest(
                "perf",
                trace_seeds[(fresh / names.size()) % trace_seeds.size()]);
            r.req.mitigator = perfMitigator(34 + 4 * static_cast<int>(fresh));
            r.req.workload = names[fresh % names.size()];
            ++fresh;
        } else if (roll < 30) {
            r.req = baseRequest("perf", t);
            r.req.mitigator = perfMitigator(
                32 + 4 * static_cast<int>(rng.below(kWarmPoints)));
            r.req.workload = "all";
            for (const auto &name : names)
                r.expected.push_back(ref.at(cellId(r.req, name)));
        } else {
            if (rng.below(4) == 0) {
                r.req = baseRequest("coattack", t);
                r.req.attackSeed = 1 + rng.below(kWarmAttackSeeds);
            } else {
                r.req = baseRequest("perf", t);
                r.req.mitigator = perfMitigator(
                    32 + 4 * static_cast<int>(rng.below(kWarmPoints)));
            }
            r.req.workload = w;
            r.expected.push_back(ref.at(cellId(r.req, w)));
        }
        r.line = sim::toJsonLine(r.req);
        out.push_back(std::move(r));
    }
    return out;
}

/** Fresh cells' reference bytes through the direct Experiment path
 *  (result store off), one Experiment per request as the daemon
 *  builds them. */
void
freshReferences(const RunOptions &opts, std::vector<Request> &reqs)
{
    sim::ExperimentStores stores;
    stores.traces = std::make_shared<workload::TraceStore>();
    stores.baselines = std::make_shared<sim::BaselineCache>();
    ThreadPool pool(opts.jobs);
    for (auto &r : reqs) {
        if (!r.fresh)
            continue;
        pool.submit([&r, &stores] {
            sim::ExperimentConfig ec = sim::experimentConfigOf(r.req);
            ec.resultStore.enabled = false;
            sim::Experiment exp(ec, stores);
            r.expected = {sim::toJsonLine(exp.run().at(0))};
        });
    }
    pool.wait();
}

/** The fresh cells again through the traced pipeline; returns how
 *  many differ from the direct path's bytes. */
uint64_t
tracedFreshCells(const RunOptions &opts, const std::vector<Request> &reqs,
                 const std::vector<uint64_t> &trace_seeds, Ledger &ledger,
                 Counters &counters, LayerTotals &totals)
{
    std::map<uint64_t, std::unique_ptr<TracedPipeline>> pipes;
    for (const uint64_t t : trace_seeds)
        pipes[t] = std::make_unique<TracedPipeline>(
            sim::experimentConfigOf(baseRequest("perf", t)).tracegen,
            counters);
    std::atomic<uint64_t> bad{0};
    const auto t0 = Clock::now();
    {
        ThreadPool pool(opts.jobs);
        for (size_t i = 0; i < reqs.size(); ++i) {
            if (!reqs[i].fresh)
                continue;
            pool.submit([&, i] {
                const Request &r = reqs[i];
                TracedPipeline &pipe = *pipes.at(r.req.seed);
                const auto &spec = workload::findWorkload(r.req.workload);
                const auto mit = mitigation::Registry::parse(r.req.mitigator);
                auto buf =
                    std::make_unique<SpanBuf>(static_cast<uint32_t>(i));
                std::string line;
                {
                    ScopedSpan root(*buf, "cell");
                    line = sim::toJsonLine(
                        pipe.perfCell({spec, mit, abo::Level::L1}, *buf));
                }
                if (line != r.expected.at(0))
                    ++bad;
                ledger.add(std::move(buf));
            });
        }
        pool.wait();
    }
    totals.sweepWallMs = msBetween(t0, Clock::now());
    totals.workers = opts.jobs;
    return bad;
}

bool
tryConnect()
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, kSocket, sizeof(addr.sun_path) - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return false;
    const bool ok = ::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                              sizeof(addr)) == 0;
    ::close(fd);
    return ok;
}

/** A launched daemon; killed and reaped if not shut down cleanly. */
class Daemon
{
  public:
    Daemon(const RunOptions &opts, double *setup_ms)
    {
        copyTree(kPristine, kLive);
        ::unlink(kSocket);
        const auto t0 = Clock::now();
        pid_ = spawnProcess({opts.moatsim, "serve", "--socket", kSocket,
                             "--result-store", kLive},
                            "serve.log");
        while (!tryConnect()) {
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                fatal("moatsim serve exited at start-up; see serve.log");
            }
            if (msBetween(t0, Clock::now()) > 60000.0)
                fatal("moatsim serve did not accept within 60 s");
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        *setup_ms = msBetween(t0, Clock::now());
    }

    ~Daemon()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            waitProcess(pid_);
        }
    }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    double peakRss() const { return peakRssMiB(std::to_string(pid_)); }

    /** Ask the daemon to stop and wait for it; its exit status. */
    int shutdown()
    {
        sim::serveRequestLine(kSocket, "{\"kind\":\"shutdown\"}");
        const int rc = waitProcess(pid_);
        pid_ = -1;
        return rc;
    }

  private:
    pid_t pid_ = -1;
};

/** The daemon's counters (`{"kind":"stats"}`), by field name. */
std::map<std::string, uint64_t>
daemonStats()
{
    const sim::ServeReply reply =
        sim::serveRequestLine(kSocket, "{\"kind\":\"stats\"}");
    std::map<std::string, uint64_t> out;
    for (const char *key :
         {"hits", "misses", "computes", "loaded", "corrupt", "trace_hits",
          "trace_misses", "accept_retries", "compute_failures"}) {
        std::string text;
        if (!reply.ok || !sim::tryJsonField(reply.done, key, &text))
            fatal(std::string("serve stats reply lacks '") + key + "'");
        out[key] = std::stoull(text);
    }
    return out;
}

/** One request, read line by line so each protocol phase gets a span. */
std::vector<std::string>
tracedRequest(const std::string &line, SpanBuf &buf, Counters &counters,
              bool *ok)
{
    *ok = false;
    std::vector<std::string> cells;
    int fd = -1;
    {
        ScopedSpan span(buf, "serve.connect");
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, kSocket, sizeof(addr.sun_path) - 1);
        fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd >= 0 &&
            ::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            ::close(fd);
            fd = -1;
        }
    }
    if (fd < 0)
        return cells;
    size_t phase = buf.open("serve.first_cell");
    bool first = true;
    bool done = false;
    const std::string out = line + "\n";
    if (::send(fd, out.data(), out.size(), MSG_NOSIGNAL) ==
        static_cast<ssize_t>(out.size())) {
        std::string pending;
        char chunk[65536];
        while (!done) {
            const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
            if (n <= 0)
                break;
            pending.append(chunk, static_cast<size_t>(n));
            size_t nl = 0;
            while (!done && (nl = pending.find('\n')) != std::string::npos) {
                const std::string reply = pending.substr(0, nl);
                pending.erase(0, nl + 1);
                std::string kind;
                {
                    ScopedSpan io(buf, "result_io");
                    counters.resultIoBytes += reply.size();
                    sim::tryJsonField(reply, "kind", &kind);
                    if (kind == "cell") {
                        std::string index;
                        std::string payload;
                        sim::tryJsonField(reply, "index", &index);
                        sim::tryJsonField(reply, "payload", &payload);
                        const size_t i = std::stoul(index);
                        if (i >= cells.size())
                            cells.resize(i + 1);
                        cells[i] = std::move(payload);
                    }
                }
                if (kind == "cell" && first) {
                    first = false;
                    buf.close(phase);
                    phase = buf.open("serve.stream");
                } else if (kind != "cell") {
                    done = true;
                    *ok = kind == "done";
                }
            }
        }
    }
    buf.close(phase);
    ::close(fd);
    return cells;
}

struct Session
{
    double loopMs = 0.0;
    uint64_t cells = 0;
    double rssMiB = 0.0;
    std::vector<double> latencies;
    std::map<std::string, uint64_t> statsBefore;
    std::map<std::string, uint64_t> statsAfter;
};

/** Drive @p reqs from opts.jobs connections; counts into @p report.
 *  With @p ledger, requests go through the traced client. */
void
closedLoop(const RunOptions &opts, const std::vector<Request> &reqs,
           Session &s, Report &report, Ledger *ledger, Counters *counters)
{
    std::atomic<size_t> next{0};
    std::atomic<uint64_t> failed{0};
    std::atomic<uint64_t> cells{0};
    std::vector<std::vector<double>> lat(opts.jobs);
    const auto t0 = Clock::now();
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < opts.jobs; ++c) {
        clients.emplace_back([&, c] {
            size_t i = 0;
            while ((i = next++) < reqs.size()) {
                const Request &r = reqs[i];
                const auto a = Clock::now();
                bool ok = false;
                std::vector<std::string> got;
                if (ledger != nullptr) {
                    auto buf =
                        std::make_unique<SpanBuf>(static_cast<uint32_t>(i));
                    {
                        ScopedSpan root(*buf, "serve.request");
                        got = tracedRequest(r.line, *buf, *counters, &ok);
                    }
                    ledger->add(std::move(buf));
                } else {
                    sim::ServeReply reply = sim::serveRequest(kSocket, r.req);
                    ok = reply.ok;
                    got = std::move(reply.cells);
                }
                lat[c].push_back(msBetween(a, Clock::now()));
                cells += got.size();
                if (!ok || got != r.expected)
                    ++failed;
            }
        });
    }
    for (auto &t : clients)
        t.join();
    s.loopMs = msBetween(t0, Clock::now());
    s.cells = cells;
    for (const auto &l : lat)
        s.latencies.insert(s.latencies.end(), l.begin(), l.end());
    report.attempted += reqs.size();
    report.failed += failed;
}

/** The warm probe request each fresh daemon serves first. */
Request
probeRequest(const std::vector<Request> &reqs)
{
    for (const auto &r : reqs) {
        if (!r.fresh && r.expected.size() == 1 && r.req.kind == "perf")
            return r;
    }
    fatal("request sequence has no warm single-cell perf request");
}

/** Send the probe request; its latency in ms (failures counted). */
double
firstRequest(const Request &probe, Report &report)
{
    const auto t0 = Clock::now();
    const sim::ServeReply reply = sim::serveRequest(kSocket, probe.req);
    const double ms = msBetween(t0, Clock::now());
    ++report.attempted;
    if (!reply.ok || reply.cells != probe.expected)
        ++report.failed;
    return ms;
}

/** In-process load of the same shard copy, then every served cell
 *  through getOrCompute (warm: a read; fresh: an append). */
void
storeCheck(const std::vector<Request> &reqs, Ledger &ledger,
           LayerTotals &totals, Report &report)
{
    const auto names = workloadNames();
    std::vector<std::vector<uint64_t>> keys(reqs.size());
    const sim::CoreModel core{};
    for (size_t i = 0; i < reqs.size(); ++i) {
        const auto &req = reqs[i].req;
        const auto tg = sim::experimentConfigOf(req).tracegen;
        const auto mit = mitigation::Registry::parse(req.mitigator);
        const auto selected = req.workload == "all"
                                  ? names
                                  : std::vector<std::string>{req.workload};
        for (const auto &w : selected) {
            const auto &spec = workload::findWorkload(w);
            keys[i].push_back(
                req.kind == "perf"
                    ? sim::perfCellKey(tg, core, spec, mit, abo::Level::L1)
                    : sim::coAttackCellKey(tg, core,
                                           {spec, mit, abo::Level::L1,
                                            sim::coAttackScenarioOf(req)}));
        }
    }
    copyTree(kPristine, "store-check");
    sim::ResultStore::Config sc;
    sc.enabled = true;
    sc.dir = "store-check";
    uint64_t bad = 0;
    auto buf = std::make_unique<SpanBuf>(0);
    std::unique_ptr<sim::ResultStore> store;
    {
        ScopedSpan root(*buf, "store.check");
        {
            ScopedSpan load(*buf, "result_store.load");
            store = std::make_unique<sim::ResultStore>(sc);
        }
        for (size_t i = 0; i < reqs.size(); ++i) {
            for (size_t c = 0; c < keys[i].size(); ++c) {
                std::shared_ptr<const std::string> payload;
                {
                    ScopedSpan span(*buf, "result_store");
                    payload = store->getOrCompute(
                        keys[i][c], [&] { return reqs[i].expected[c]; });
                }
                if (*payload != reqs[i].expected[c])
                    ++bad;
            }
        }
    }
    ledger.add(std::move(buf));
    const auto stats = store->stats();
    totals.storeCorrupt += stats.corrupt;
    if (bad > 0)
        report.problems.push_back(std::to_string(bad) +
                                  " cells read back from the shard copy "
                                  "differ from the reference");
    report.context.integer("inprocess_store_loaded", stats.loaded)
        .integer("inprocess_store_hits", stats.hits)
        .integer("inprocess_store_computes", stats.computes);
}

} // namespace

Report
runServeMixed(const RunOptions &opts)
{
    Report report;
    const std::vector<uint64_t> trace_seeds = {opts.seed, opts.seed + 1};
    const auto ref = prefill(opts, trace_seeds);
    std::vector<Request> reqs = requestSequence(opts, trace_seeds, ref);
    freshReferences(opts, reqs);
    const Request probe = probeRequest(reqs);

    std::vector<double> setup;
    std::vector<double> firsts;
    for (int i = 0; i < kSetupOnlyLaunches; ++i) {
        double ms = 0.0;
        Daemon daemon(opts, &ms);
        setup.push_back(ms);
        firsts.push_back(firstRequest(probe, report));
        daemon.shutdown();
    }

    std::vector<Session> sessions;
    uint64_t corrupt = 0;
    const auto start = Clock::now();
    while (sessions.size() < 3 ||
           msBetween(start, Clock::now()) < opts.seconds * 1000.0) {
        Session s;
        double ms = 0.0;
        Daemon daemon(opts, &ms);
        setup.push_back(ms);
        firsts.push_back(firstRequest(probe, report));
        closedLoop(opts, reqs, s, report, nullptr, nullptr);
        s.statsAfter = daemonStats();
        s.rssMiB = daemon.peakRss();
        corrupt += s.statsAfter["corrupt"];
        if (daemon.shutdown() != 0)
            report.problems.push_back("moatsim serve exited non-zero");
        sessions.push_back(std::move(s));
    }
    if (corrupt > 0)
        report.problems.push_back("daemon reported corrupt store records");

    std::vector<double> rates;
    std::vector<double> rss;
    std::vector<double> loops;
    std::vector<double> latencies;
    for (const auto &s : sessions) {
        rates.push_back(static_cast<double>(s.cells) / (s.loopMs / 1000.0));
        rss.push_back(s.rssMiB);
        loops.push_back(s.loopMs);
        latencies.insert(latencies.end(), s.latencies.begin(),
                         s.latencies.end());
    }
    size_t fresh = 0;
    for (const auto &r : reqs)
        fresh += r.fresh ? 1 : 0;
    const double tail = tailPercentileFor(latencies.size());
    std::string loop_list = "[";
    std::string rss_list = "[";
    for (size_t i = 0; i < sessions.size(); ++i) {
        loop_list += (i ? "," : "") + sim::jsonDouble(loops[i]);
        rss_list += (i ? "," : "") + sim::jsonDouble(rss[i]);
    }
    report.context.raw("session_loop_ms", loop_list + "]")
        .raw("session_peak_rss_mib", rss_list + "]");
    report.context.integer("sessions", sessions.size())
        .integer("requests_per_session", reqs.size())
        .integer("fresh_requests_per_session", fresh)
        .integer("warm_cells", ref.size())
        .integer("latency_samples", latencies.size())
        .num("request_ms_p99_is_percentile", tail)
        .integer("setup_samples", setup.size())
        .num("session_loop_ms_median", median(loops))
        .integer("daemon_loaded", sessions.back().statsAfter["loaded"])
        .integer("daemon_computes", sessions.back().statsAfter["computes"]);

    if (!opts.trace) {
        report.metric("setup_s", median(setup) / 1000.0, "s");
        report.metric("cells_per_s", median(rates), "cells/s");
        report.metric("first_cell_ms", interquartileMean(firsts), "ms");
        report.metric("request_ms_p50", percentile(latencies, 50.0), "ms");
        report.metric("request_ms_p99", percentile(latencies, tail), "ms");
        report.metric("peak_rss_mb", median(rss), "MiB");
        return report;
    }

    // Traced pass: one more session through the traced client, with the
    // daemon's counters before and after, then the in-process store
    // check and the fresh cells through the traced pipeline.
    Ledger client_ledger;
    Ledger store_ledger;
    Ledger sweep_ledger;
    Counters counters;
    LayerTotals totals;
    Session traced;
    {
        double ms = 0.0;
        Daemon daemon(opts, &ms);
        firstRequest(probe, report);
        traced.statsBefore = daemonStats();
        closedLoop(opts, reqs, traced, report, &client_ledger, &counters);
        traced.statsAfter = daemonStats();
        daemon.shutdown();
    }
    const auto delta = [&](const char *key) {
        return traced.statsAfter[key] - traced.statsBefore[key];
    };
    storeCheck(reqs, store_ledger, totals, report);
    const uint64_t bad = tracedFreshCells(opts, reqs, trace_seeds,
                                          sweep_ledger, counters, totals);
    if (bad > 0)
        report.problems.push_back("traced fresh cells differ from the "
                                  "direct path in " +
                                  std::to_string(bad) + " cells");
    client_ledger.write("spans-client.jsonl");
    store_ledger.write("spans-store.jsonl");
    sweep_ledger.write("spans-sweep.jsonl");

    for (const Ledger *l : {&client_ledger, &store_ledger, &sweep_ledger}) {
        for (const auto &[name, ms] : l->selfMs())
            totals.selfMs[name] += ms;
        totals.busyMs += l->busyMs();
    }
    totals.sweepBusyMs = sweep_ledger.busyMs();
    totals.storeLoaded = traced.statsAfter["loaded"];
    totals.storeHits = delta("hits");
    totals.storeMisses = delta("misses");
    totals.storeComputes = delta("computes");
    totals.storeCorrupt += traced.statsAfter["corrupt"];
    totals.computeFailures = traced.statsAfter["compute_failures"];
    totals.acceptRetries = traced.statsAfter["accept_retries"];
    totals.overhead = traced.loopMs / median(loops) - 1.0;
    report.context.integer("inprocess_trace_misses", counters.traceMisses)
        .integer("inprocess_trace_hits", counters.traceHits);
    counters.traceHits = delta("trace_hits");
    counters.traceMisses = delta("trace_misses");
    addLayerMetrics(report, totals, counters);
    return report;
}

} // namespace moatbench
