/**
 * @file
 * matrix-sweep and coattack-cold: in-process sweeps with fresh stores.
 *
 * A run repeats one sweep ("pass") until --seconds of passes have run,
 * each on a fresh Experiment (fresh trace store, fresh in-memory result
 * store, fresh baseline caches), and reports medians over the passes.
 * A "request" here is one cell of the sweep call: its latency is the
 * time from the call until that cell reaches the engine's CellSink.
 */

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <mutex>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "mitigation/registry.hh"
#include "pipeline.hh"
#include "sim/experiment.hh"
#include "sim/result_io.hh"
#include "sim/run_request.hh"
#include "workload/spec.hh"
#include "workloads.hh"

namespace moatbench
{

using namespace moatsim;

namespace
{

/** Simulated window of both in-process workloads (1/32 tREFW). */
constexpr double kFraction = 1.0 / 32.0;

/** matrix-sweep's MOAT (ATH, ETH) grid, all at ABO L1. */
const std::vector<std::pair<int, int>> kMatrixPoints = {
    {64, 32}, {64, 16}, {128, 64}, {128, 32}};

bool
isCoAttack(const RunOptions &opts)
{
    return opts.workload == "coattack-cold";
}

std::string
pointText(const std::pair<int, int> &p)
{
    return "moat:ath=" + std::to_string(p.first) +
           ",eth=" + std::to_string(p.second);
}

/** The mitigator the CLI builds from @p text at ABO L1 (MOAT-L
 *  entries bound to the level, as `moatsim perf --mitigator` does). */
mitigation::MitigatorSpec
cliMitigator(const std::string &text)
{
    return sim::withMoatLevelEntries(mitigation::Registry::parse(text),
                                     abo::Level::L1);
}

sim::ExperimentConfig
experimentConfig(const RunOptions &opts)
{
    sim::ExperimentConfig ec;
    ec.tracegen.windowFraction = kFraction;
    ec.tracegen.subchannels = 2;
    ec.tracegen.seed = opts.seed;
    ec.workload = "all";
    ec.jobs = opts.jobs;
    ec.mitigator = cliMitigator("moat");
    ec.resultStore.enabled = true;
    return ec;
}

sim::CoAttackScenario
scenario(const RunOptions &opts)
{
    sim::CoAttackScenario s;
    s.pattern = "hammer";
    s.seed = opts.seed;
    return s;
}

std::vector<sim::SweepCell>
matrixCells()
{
    const auto all = workload::table4Workloads();
    std::vector<std::pair<mitigation::MitigatorSpec, abo::Level>> pts;
    for (const auto &p : kMatrixPoints)
        pts.emplace_back(cliMitigator(pointText(p)), abo::Level::L1);
    return sim::crossCells({all.begin(), all.end()}, pts);
}

std::vector<sim::CoAttackCell>
coAttackCells(const RunOptions &opts)
{
    const auto all = workload::table4Workloads();
    return sim::crossCoAttackCells({all.begin(), all.end()},
                                   {cliMitigator("moat")}, abo::Level::L1,
                                   scenario(opts));
}

/** The direct path's bytes: the CLI with --jsonl, no result store. */
std::vector<std::string>
cliReference(const RunOptions &opts)
{
    const std::string out = "reference.jsonl";
    const std::string log = "reference.log";
    std::vector<std::vector<std::string>> runs;
    const std::vector<std::string> common = {
        "--workload",    "all",
        "--fraction",    sim::jsonDouble(kFraction),
        "--subchannels", "2",
        "--trace-seed",  std::to_string(opts.seed),
        "--jobs",        std::to_string(opts.jobs),
        "--result-store", "0",
        "--jsonl",       out};
    if (isCoAttack(opts)) {
        std::vector<std::string> argv = {opts.moatsim, "coattack",
                                         "--mitigator", "moat",
                                         "--pattern", "hammer",
                                         "--seed", std::to_string(opts.seed)};
        argv.insert(argv.end(), common.begin(), common.end());
        runs.push_back(argv);
    } else {
        for (const auto &p : kMatrixPoints) {
            std::vector<std::string> argv = {opts.moatsim, "perf",
                                             "--mitigator", pointText(p)};
            argv.insert(argv.end(), common.begin(), common.end());
            runs.push_back(argv);
        }
    }
    removeTree(out);
    for (const auto &argv : runs) {
        if (waitProcess(spawnProcess(argv, log)) != 0)
            fatal("reference run failed; see " + log);
    }
    return splitLines(readFile(out));
}

struct Pass
{
    double wallMs = 0.0;
    std::vector<double> cellMs;
    std::vector<std::string> lines;
};

/** Where a first-cell probe writes its latency. */
const char *const kFirstCell = "first_cell";

/**
 * One untraced pass through the engines, on a fresh Experiment. With
 * @p first_only the process writes the first cell's latency to
 * kFirstCell and exits the moment that cell reaches the sink, so a
 * first-cell sample costs only the time to it.
 */
Pass
untracedPass(const RunOptions &opts, bool first_only = false)
{
    sim::Experiment exp(experimentConfig(opts));
    Pass pass;
    std::mutex first_mu;
    const auto t0 = Clock::now();
    const auto record = [&](size_t i) {
        const double ms = msBetween(t0, Clock::now());
        if (first_only) {
            // A later cell blocks here until the process is gone.
            const std::lock_guard<std::mutex> lock(first_mu);
            std::ofstream(kFirstCell) << sim::jsonDouble(ms) << "\n";
            std::_Exit(0);
        }
        pass.cellMs[i] = ms;
    };
    if (isCoAttack(opts)) {
        const auto cells = coAttackCells(opts);
        pass.cellMs.assign(cells.size(), 0.0);
        const auto results = exp.runCoAttack(
            scenario(opts),
            [&](size_t i, const sim::CoAttackResult &) { record(i); });
        pass.wallMs = msBetween(t0, Clock::now());
        for (const auto &r : results)
            pass.lines.push_back(sim::toJsonLine(r));
    } else {
        // Exactly the call Experiment::runMatrix makes, with a sink.
        const auto cells = matrixCells();
        pass.cellMs.assign(cells.size(), 0.0);
        const auto results = exp.engine().run(
            cells, [&](size_t i, const sim::PerfResult &) { record(i); });
        pass.wallMs = msBetween(t0, Clock::now());
        for (const auto &r : results)
            pass.lines.push_back(sim::toJsonLine(r));
    }
    return pass;
}

/** The same cells through the traced pipeline on the same workers. */
Pass
tracedPass(const RunOptions &opts, Ledger &ledger, Counters &counters,
           LayerTotals &totals)
{
    const sim::ExperimentConfig ec = experimentConfig(opts);
    TracedPipeline pipe(ec.tracegen, counters);
    const bool co = isCoAttack(opts);
    const auto perf_cells = co ? std::vector<sim::SweepCell>{} : matrixCells();
    const auto co_cells =
        co ? coAttackCells(opts) : std::vector<sim::CoAttackCell>{};
    const size_t n = co ? co_cells.size() : perf_cells.size();

    Pass pass;
    std::vector<std::string> lines(n);
    const unsigned workers =
        std::min(opts.jobs, static_cast<unsigned>(std::max<size_t>(n, 1)));
    const auto t0 = Clock::now();
    {
        ThreadPool pool(workers);
        for (size_t i = 0; i < n; ++i) {
            pool.submit([&, i] {
                auto buf =
                    std::make_unique<SpanBuf>(static_cast<uint32_t>(i));
                try {
                    ScopedSpan root(*buf, "cell");
                    lines[i] = co ? sim::toJsonLine(
                                        pipe.coAttackCell(co_cells[i], *buf))
                                  : sim::toJsonLine(
                                        pipe.perfCell(perf_cells[i], *buf));
                } catch (const std::exception &) {
                    // An empty line fails the byte check below.
                }
                ledger.add(std::move(buf));
            });
        }
        pool.wait();
    }
    pass.wallMs = msBetween(t0, Clock::now());
    pass.lines = std::move(lines);

    const auto stats = pipe.store().stats();
    totals.workers = workers;
    totals.sweepWallMs = pass.wallMs;
    totals.storeLoadMs = pipe.storeLoadMs();
    totals.storeLoaded = stats.loaded;
    totals.storeHits = stats.hits;
    totals.storeMisses = stats.misses;
    totals.storeComputes = stats.computes;
    totals.storeCorrupt = stats.corrupt;
    return pass;
}

/** Mismatched cells of @p lines against @p ref. */
uint64_t
mismatches(const std::vector<std::string> &lines,
           const std::vector<std::string> &ref)
{
    uint64_t bad = 0;
    for (size_t i = 0; i < std::max(lines.size(), ref.size()); ++i) {
        if (i >= lines.size() || i >= ref.size() || lines[i] != ref[i])
            ++bad;
    }
    return bad;
}

/** Model outputs of the reference cells (context, never scored). */
void
modelContext(const RunOptions &opts, const std::vector<std::string> &ref,
             JsonObject &ctx)
{
    if (isCoAttack(opts)) {
        double slow = 0.0;
        double apr = 0.0;
        double free_apr = 0.0;
        uint64_t worst = 0;
        for (const auto &line : ref) {
            const auto r = sim::coAttackResultOfJsonLine(line);
            slow += r.victimSlowdown;
            apr += r.alertsPerRefi;
            free_apr += r.attackFreeAlertsPerRefi;
            worst = std::max<uint64_t>(worst, r.attackerMaxHammer);
        }
        const double n =
            static_cast<double>(std::max<size_t>(ref.size(), 1));
        ctx.num("model_mean_victim_slowdown", slow / n)
            .num("model_alerts_per_refi", apr / n)
            .num("model_attack_free_alerts_per_refi", free_apr / n)
            .integer("model_worst_attacker_max_hammer", worst);
        return;
    }
    const size_t per_point = workload::table4Workloads().size();
    std::string points = "[";
    std::string slow = "[";
    std::string apr = "[";
    for (size_t p = 0; p < kMatrixPoints.size(); ++p) {
        std::vector<sim::PerfResult> rs;
        for (size_t w = 0; w < per_point && p * per_point + w < ref.size();
             ++w)
            rs.push_back(sim::perfResultOfJsonLine(ref[p * per_point + w]));
        const std::string sep = p ? "," : "";
        points += sep + sim::jsonQuote(pointText(kMatrixPoints[p]));
        slow += sep + sim::jsonDouble(1.0 - sim::meanNormPerf(rs));
        apr += sep + sim::jsonDouble(sim::meanAlertsPerRefi(rs));
    }
    ctx.raw("model_points", points + "]")
        .raw("model_mean_slowdown", slow + "]")
        .raw("model_alerts_per_refi", apr + "]");
}

/** File names a pass child writes into the working directory. */
const char *const kPassLines = "pass.jsonl";
const char *const kPassTimes = "pass.times";
const char *const kPassMetrics = "pass.metrics";
const char *const kPassProblems = "pass.problems";

/** What the parent reads back from one pass child. */
struct ChildPass
{
    Pass pass;
    double peakMiB = 0.0;
    std::vector<std::pair<std::string, std::string>> metrics;
    std::vector<std::string> problems;
};

/**
 * Run one pass in a fresh process, so every pass starts cold (as a
 * `moatsim perf` invocation does) and its peak resident set is its
 * own. A traced pass compares its wall time with @p untraced_ms.
 */
ChildPass
spawnPass(const RunOptions &opts, bool traced, double untraced_ms)
{
    for (const char *f : {kPassLines, kPassTimes, kPassMetrics, kPassProblems})
        removeTree(f);
    const pid_t pid = spawnProcess(
        {opts.self, "pass", "--workload", opts.workload, "--seed",
         std::to_string(opts.seed), "--jobs", std::to_string(opts.jobs),
         "--trace", traced ? "1" : "0", "--untraced-ms",
         sim::jsonDouble(untraced_ms)},
        "pass.log");
    ChildPass out;
    if (waitProcess(pid, &out.peakMiB) != 0)
        fatal("pass process failed; see pass.log");
    out.pass.lines = splitLines(readFile(kPassLines));
    const auto times = splitLines(readFile(kPassTimes));
    out.pass.wallMs = std::stod(times.at(0));
    for (size_t i = 1; i < times.size(); ++i)
        out.pass.cellMs.push_back(std::stod(times[i]));
    if (traced) {
        for (const auto &line : splitLines(readFile(kPassMetrics))) {
            const size_t tab = line.find('\t');
            out.metrics.emplace_back(line.substr(0, tab),
                                     line.substr(tab + 1));
        }
        out.problems = splitLines(readFile(kPassProblems));
    }
    return out;
}

/** First-cell latencies of @p count probe processes, in ms. */
std::vector<double>
firstCellProbes(const RunOptions &opts, int count)
{
    std::vector<double> ms;
    for (int i = 0; i < count; ++i) {
        removeTree(kFirstCell);
        const pid_t pid = spawnProcess(
            {opts.self, "first-cell-probe", "--workload", opts.workload,
             "--seed", std::to_string(opts.seed), "--jobs",
             std::to_string(opts.jobs)},
            "probe.log");
        if (waitProcess(pid) != 0)
            fatal("first-cell probe failed; see probe.log");
        ms.push_back(std::stod(readFile(kFirstCell)));
    }
    return ms;
}

} // namespace

int
firstCellProbe(const RunOptions &opts)
{
    untracedPass(opts, true);
    fatal("first-cell probe: the sweep delivered no cell");
}

int
runPassChild(const RunOptions &opts, double untraced_ms)
{
    Pass pass;
    Report report;
    if (opts.trace) {
        Ledger ledger;
        Counters counters;
        LayerTotals totals;
        pass = tracedPass(opts, ledger, counters, totals);
        ledger.write("spans.jsonl");
        totals.selfMs = ledger.selfMs();
        totals.busyMs = ledger.busyMs();
        totals.sweepBusyMs = totals.busyMs;
        totals.overhead = pass.wallMs / untraced_ms - 1.0;
        addLayerMetrics(report, totals, counters);
    } else {
        pass = untracedPass(opts);
    }
    std::ofstream lines(kPassLines);
    for (const auto &l : pass.lines)
        lines << l << "\n";
    std::ofstream times(kPassTimes);
    times << sim::jsonDouble(pass.wallMs) << "\n";
    for (const double ms : pass.cellMs)
        times << sim::jsonDouble(ms) << "\n";
    std::ofstream metrics(kPassMetrics);
    for (const auto &[name, json] : report.metrics)
        metrics << name << "\t" << json << "\n";
    std::ofstream problems(kPassProblems);
    for (const auto &p : report.problems)
        problems << p << "\n";
    return 0;
}

int
setupProbe(const RunOptions &opts, const std::string &ready_file)
{
    // What a sweep has built before its first cell can run: the
    // experiment with its stores and engines, and the worker pool.
    sim::Experiment exp(experimentConfig(opts));
    ThreadPool pool(exp.engine().jobs());
    pool.submit([] {});
    pool.wait();
    const int64_t ready = nowNs();
    std::ofstream(ready_file) << ready << "\n";
    return 0;
}

std::vector<double>
setupProbes(const RunOptions &opts, int count)
{
    std::vector<double> ms;
    const std::string ready = "ready";
    for (int i = 0; i < count; ++i) {
        removeTree(ready);
        const int64_t t0 = nowNs();
        const pid_t pid = spawnProcess(
            {opts.self, "setup-probe", "--workload", opts.workload, "--seed",
             std::to_string(opts.seed), "--jobs", std::to_string(opts.jobs),
             "--ready-file", ready},
            "probe.log");
        if (waitProcess(pid) != 0)
            fatal("set-up probe failed; see probe.log");
        const int64_t t1 = std::stoll(readFile(ready));
        ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    }
    return ms;
}

Report
runInproc(const RunOptions &opts)
{
    Report report;
    const std::vector<std::string> ref = cliReference(opts);

    // Set-up and first-cell probes run between passes, on a machine as
    // warm as the one the passes see. Which cell arrives first depends
    // on a start-up race between the sweep's submissions and the pool's
    // workers, so first-cell latency is multimodal (about 40 to 300 ms
    // on matrix-sweep); one sample per pass is too few for a steady
    // median, and a probe costs only the time to its first cell.
    std::vector<ChildPass> passes;
    std::vector<double> setup;
    std::vector<double> firsts;
    const auto start = Clock::now();
    while (passes.size() < 3 ||
           msBetween(start, Clock::now()) < opts.seconds * 1000.0) {
        passes.push_back(spawnPass(opts, false, 0.0));
        const Pass &p = passes.back().pass;
        report.attempted += p.lines.size();
        report.failed += mismatches(p.lines, ref);
        firsts.push_back(
            *std::min_element(p.cellMs.begin(), p.cellMs.end()));
        const auto probes = setupProbes(opts, 4);
        setup.insert(setup.end(), probes.begin(), probes.end());
        const auto first_probes = firstCellProbes(opts, 4);
        firsts.insert(firsts.end(), first_probes.begin(), first_probes.end());
    }

    std::vector<double> rates;
    std::vector<double> walls;
    std::vector<double> peaks;
    std::vector<double> latencies;
    for (const auto &c : passes) {
        const Pass &p = c.pass;
        walls.push_back(p.wallMs);
        peaks.push_back(c.peakMiB);
        rates.push_back(static_cast<double>(p.lines.size()) /
                        (p.wallMs / 1000.0));
        latencies.insert(latencies.end(), p.cellMs.begin(), p.cellMs.end());
    }
    const double tail = tailPercentileFor(latencies.size());
    std::string pass_walls = "[";
    for (size_t i = 0; i < walls.size(); ++i)
        pass_walls += (i ? "," : "") + sim::jsonDouble(walls[i]);
    std::string first_list = "[";
    for (size_t i = 0; i < firsts.size(); ++i)
        first_list += (i ? "," : "") + sim::jsonDouble(firsts[i]);
    report.context.integer("passes", passes.size())
        .integer("cells_per_pass", ref.size())
        .integer("latency_samples", latencies.size())
        .num("request_ms_p99_is_percentile", tail)
        .integer("setup_samples", setup.size())
        .integer("first_cell_samples", firsts.size())
        .raw("pass_wall_ms", pass_walls + "]")
        .raw("first_cell_ms_samples", first_list + "]");
    modelContext(opts, ref, report.context);

    if (!opts.trace) {
        report.metric("setup_s", median(setup) / 1000.0, "s");
        report.metric("cells_per_s", median(rates), "cells/s");
        report.metric("first_cell_ms", median(firsts), "ms");
        report.metric("request_ms_p50", percentile(latencies, 50.0), "ms");
        report.metric("request_ms_p99", percentile(latencies, tail), "ms");
        report.metric("peak_rss_mb", median(peaks), "MiB");
        return report;
    }

    ChildPass traced = spawnPass(opts, true, median(walls));
    report.attempted += traced.pass.lines.size();
    const uint64_t bad = mismatches(traced.pass.lines, ref);
    report.failed += bad;
    if (bad > 0)
        report.problems.push_back("traced pass output differs from the "
                                  "untraced run in " +
                                  std::to_string(bad) + " cells");
    report.metrics = std::move(traced.metrics);
    report.problems.insert(report.problems.end(), traced.problems.begin(),
                           traced.problems.end());
    return report;
}

} // namespace moatbench
