/**
 * @file
 * The three benchmark workloads and what they report.
 *
 *  - matrix-sweep: the Table-4 suite x four MOAT (ATH, ETH) points at
 *    ABO L1 on the Table-3 two-sub-channel system, through the
 *    SweepEngine path Experiment::runMatrix takes, with fresh stores.
 *  - coattack-cold: the Table-4 suite x moat x the hammer pattern,
 *    through Experiment::runCoAttack, with fresh stores.
 *  - serve-mixed: a `moatsim serve` daemon on a copy of a pre-filled
 *    persistent result store, driven by a closed loop of sim::serveRequest
 *    calls (about 90% warm cells, 10% fresh ones).
 *
 * A run works in its current directory (stores, sockets, reference
 * and span files). Every workload checks every result byte against the
 * direct path (the `moatsim perf|coattack --jsonl` CLI for the
 * in-process workloads, an Experiment run for served cells) and counts
 * mismatches as failures.
 */

#ifndef MOATBENCH_WORKLOADS_HH
#define MOATBENCH_WORKLOADS_HH

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "trace.hh"
#include "util.hh"

namespace moatbench
{

/** Command-line options of one measured run. */
struct RunOptions
{
    std::string workload;
    uint64_t seed = 7;
    double seconds = 10.0;
    bool trace = false;
    /** Workers (in-process) or client connections (serve). */
    unsigned jobs = 4;
    /** The moatsim CLI binary (reference runs, serve daemon). */
    std::string moatsim;
    /** This binary (passes and set-up probes re-launch it). */
    std::string self;
};

/** What one run prints: counts, metrics, and context for humans. */
struct Report
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Failed checks that are not cells (coverage, store health). */
    std::vector<std::string> problems;
    std::vector<std::pair<std::string, std::string>> metrics;
    JsonObject context;

    void metric(const std::string &name, double value,
                const std::string &unit)
    {
        metrics.emplace_back(name, metricJson(value, unit));
    }
};

/** Layer totals of one traced pass, ready to become metrics. */
struct LayerTotals
{
    /** Self time per span name in ms ("other" = root remainder). */
    std::map<std::string, double> selfMs;
    /** Sum of root span durations in ms. */
    double busyMs = 0.0;
    /** Busy and wall time of the pass's worker pool, and its size. */
    double sweepBusyMs = 0.0;
    double sweepWallMs = 0.0;
    unsigned workers = 1;
    double storeLoadMs = 0.0;
    uint64_t storeLoaded = 0;
    uint64_t storeHits = 0;
    uint64_t storeMisses = 0;
    uint64_t storeComputes = 0;
    uint64_t storeCorrupt = 0;
    uint64_t computeFailures = 0;
    uint64_t acceptRetries = 0;
    /** Traced wall time over the untraced median, minus one. */
    double overhead = 0.0;
};

/** Add every per-layer metric to @p report; flags coverage < 90%. */
void addLayerMetrics(Report &report, const LayerTotals &totals,
                     const Counters &counters);

/** Time from spawning @p opts.self in probe mode until it reports
 *  ready, in ms, over @p count launches. */
std::vector<double> setupProbes(const RunOptions &opts, int count);

/** Probe mode: build what the workload needs before its first cell,
 *  then write the ready time to @p ready_file. */
int setupProbe(const RunOptions &opts, const std::string &ready_file);

/** Probe mode: run the untraced sweep until its first cell reaches the
 *  sink, write that cell's latency to a file and exit. */
int firstCellProbe(const RunOptions &opts);

/** Pass mode: one in-process pass (traced when opts.trace), written
 *  to files in the working directory for the parent run to read. */
int runPassChild(const RunOptions &opts, double untraced_ms);

Report runInproc(const RunOptions &opts);
Report runServeMixed(const RunOptions &opts);

} // namespace moatbench

#endif // MOATBENCH_WORKLOADS_HH
