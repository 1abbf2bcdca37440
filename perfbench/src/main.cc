/**
 * @file
 * moatbench: the measuring half of the moatsim benchmark.
 *
 *   moatbench run --workload W --seed N --seconds S --trace 0|1
 *                 --jobs J --moatsim PATH
 *       runs one workload in the current directory and prints a
 *       one-line JSON report (counts, metrics, context) as the last
 *       line of stdout;
 *   moatbench pass --workload W --seed N --jobs J --trace 0|1
 *                  --untraced-ms MS
 *       one in-process pass, in a process of its own (run re-launches
 *       the binary in this mode for every matrix-sweep and
 *       coattack-cold pass);
 *   moatbench setup-probe --workload W --seed N --jobs J --ready-file F
 *       builds what the workload needs before its first cell and
 *       writes the ready time (set-up time probes re-launch the
 *       binary in this mode);
 *   moatbench first-cell-probe --workload W --seed N --jobs J
 *       runs the untraced sweep only until its first cell arrives and
 *       writes that cell's latency (first-cell probes re-launch the
 *       binary in this mode).
 *
 * perfbench/run.py builds this binary and the moatsim CLI, pins the
 * environment, and turns the report into the benchmark's result line.
 */

#include <iostream>
#include <map>
#include <string>

#include "common/logging.hh"
#include "sim/result_io.hh"
#include "workloads.hh"

using namespace moatbench;

namespace moatbench
{

void
addLayerMetrics(Report &report, const LayerTotals &t, const Counters &c)
{
    const auto self = [&](const char *name) {
        const auto it = t.selfMs.find(name);
        return it == t.selfMs.end() ? 0.0 : it->second;
    };
    const auto count = [&](const char *name, uint64_t v) {
        report.metric(name, static_cast<double>(v), "count");
    };
    const auto ms = [&](const char *metric, const char *span) {
        report.metric(metric, self(span), "ms");
    };

    count("tracegen.calls", c.tracegenCalls);
    count("tracegen.events", c.tracegenEvents);
    ms("tracegen.ms", "tracegen");
    ms("traceset.flatten_ms", "traceset.flatten");
    count("trace_store.hits", c.traceHits);
    count("trace_store.misses", c.traceMisses);
    ms("trace_store.wait_ms", "trace_store.wait");
    ms("attack_trace.ms", "attack_trace");
    count("attack_trace.events", c.attackEvents);
    count("baseline.computes", c.baselineComputes);
    ms("baseline.ms", "baseline");
    ms("baseline.wait_ms", "baseline.wait");
    ms("replay.ms", "replay");
    count("replay.acts", c.replayActs);
    count("replay.alerts", c.replayAlerts);
    count("replay.rfms", c.replayRfms);
    const double replay_ms = self("replay");
    report.metric("replay.acts_per_s",
                  replay_ms > 0.0 ? static_cast<double>(c.replayActs) /
                                        (replay_ms / 1000.0)
                                  : 0.0,
                  "acts/s");
    count("coattack.baseline_computes", c.coBaselineComputes);
    ms("coattack.baseline_ms", "coattack.baseline");
    ms("coattack.baseline_wait_ms", "coattack.baseline_wait");
    ms("result_io.ms", "result_io");
    count("result_io.bytes", c.resultIoBytes);
    report.metric("result_store.load_ms",
                  t.storeLoadMs + self("result_store.load"), "ms");
    count("result_store.loaded", t.storeLoaded);
    count("result_store.hits", t.storeHits);
    count("result_store.misses", t.storeMisses);
    count("result_store.computes", t.storeComputes);
    ms("result_store.overhead_ms", "result_store");
    count("result_store.corrupt", t.storeCorrupt);
    report.metric("sweep.busy_ms", t.sweepBusyMs, "ms");
    report.metric("sweep.utilization",
                  t.sweepWallMs > 0.0
                      ? t.sweepBusyMs / (t.sweepWallMs * t.workers)
                      : 0.0,
                  "fraction");
    ms("serve.connect_ms", "serve.connect");
    ms("serve.first_cell_ms", "serve.first_cell");
    ms("serve.stream_ms", "serve.stream");
    count("serve.compute_failures", t.computeFailures);
    count("serve.accept_retries", t.acceptRetries);

    const double other = self("other");
    const double coverage = t.busyMs > 0.0 ? 1.0 - other / t.busyMs : 0.0;
    report.metric("other.ms", other, "ms");
    report.metric("trace.coverage", coverage, "fraction");
    report.metric("trace.overhead", t.overhead, "fraction");
    if (coverage < 0.9)
        report.problems.push_back("layer self times cover only " +
                                  moatsim::sim::jsonDouble(coverage) +
                                  " of the traced busy time (< 0.9)");
    if (t.storeCorrupt > 0)
        report.problems.push_back("result store reported corrupt records");
}

} // namespace moatbench

namespace
{

std::map<std::string, std::string>
parseFlags(int argc, char **argv)
{
    std::map<std::string, std::string> flags;
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        if (key.rfind("--", 0) != 0)
            moatsim::fatal("unexpected argument '" + key + "'");
        flags[key.substr(2)] = argv[i + 1];
    }
    return flags;
}

std::string
need(const std::map<std::string, std::string> &flags, const std::string &k)
{
    const auto it = flags.find(k);
    if (it == flags.end())
        moatsim::fatal("missing --" + k);
    return it->second;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        moatsim::fatal("usage: moatbench run|setup-probe --workload W ...");
    const std::string mode = argv[1];
    const auto flags = parseFlags(argc, argv);

    RunOptions opts;
    opts.self = argv[0];
    opts.workload = need(flags, "workload");
    opts.seed = std::stoull(need(flags, "seed"));
    opts.jobs = static_cast<unsigned>(std::stoul(need(flags, "jobs")));
    if (opts.workload != "matrix-sweep" && opts.workload != "coattack-cold" &&
        opts.workload != "serve-mixed")
        moatsim::fatal("unknown workload '" + opts.workload + "'");
    if (mode == "setup-probe")
        return setupProbe(opts, need(flags, "ready-file"));
    if (mode == "first-cell-probe")
        return firstCellProbe(opts);
    opts.trace = need(flags, "trace") == "1";
    if (mode == "pass")
        return runPassChild(opts, std::stod(need(flags, "untraced-ms")));
    if (mode != "run")
        moatsim::fatal("unknown mode '" + mode + "'");

    opts.seconds = std::stod(need(flags, "seconds"));
    opts.moatsim = need(flags, "moatsim");

    Report report = opts.workload == "serve-mixed" ? runServeMixed(opts)
                                                   : runInproc(opts);

    std::string metrics;
    for (const auto &[name, json] : report.metrics)
        metrics += (metrics.empty() ? "" : ",") +
                   moatsim::sim::jsonQuote(name) + ":" + json;
    std::string problems;
    for (const auto &p : report.problems)
        problems += (problems.empty() ? "" : ",") + moatsim::sim::jsonQuote(p);
    std::cout << JsonObject()
                     .integer("attempted", report.attempted)
                     .integer("failed", report.failed)
                     .raw("problems", "[" + problems + "]")
                     .raw("metrics", "{" + metrics + "}")
                     .raw("context", report.context.text())
                     .text()
              << std::endl;
    return 0;
}
