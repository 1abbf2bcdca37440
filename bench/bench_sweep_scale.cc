/**
 * @file
 * End-to-end matrix-sweep throughput bench: cells per second of
 * simulator wall time on the Table-5-shaped matrix (every Table-4
 * workload x four MOAT ETH points on the 2-sub-channel system).
 *
 * Runs the identical matrix twice through the SweepEngine, sharing one
 * workload::TraceStore and one in-memory sim::ResultStore:
 *
 *  - cold: fresh stores -- each distinct trace is generated once
 *    (baselines included) and every cell is simulated;
 *  - warm: the same matrix again, served entirely from the result
 *    store (no cell recomputes, no trace generates).
 *
 * Both runs must produce byte-identical JSONL and the warm run must
 * recompute nothing (checked here; the bench fails otherwise). It
 * reports cold and warm cells/sec, generateTraces() calls, and the
 * trace store's hit rate, so a regression is attributable at a glance.
 */

#include <chrono>
#include <iostream>
#include <sstream>

#include "bench_util.hh"
#include "sim/sweep.hh"

using namespace moatsim;

namespace
{

struct MatrixRun
{
    std::vector<sim::PerfResult> results;
    double seconds = 0.0;
    /** generateTraces() invocations this run performed. */
    uint64_t genCalls = 0;
};

MatrixRun
runMatrix(const sim::SweepConfig &config,
          const std::vector<sim::SweepCell> &cells)
{
    sim::SweepEngine engine(config);
    MatrixRun out;
    const uint64_t gen0 = workload::traceGenInvocations();
    const auto t0 = std::chrono::steady_clock::now();
    out.results = engine.run(cells);
    const auto t1 = std::chrono::steady_clock::now();
    out.seconds = std::chrono::duration<double>(t1 - t0).count();
    out.genCalls = workload::traceGenInvocations() - gen0;
    return out;
}

std::string
jsonlOf(const std::vector<sim::PerfResult> &results)
{
    std::ostringstream os;
    sim::writeJsonLines(os, results);
    return os.str();
}

} // namespace

int
main()
{
    bench::header(
        "Matrix-sweep throughput (cells/sec of simulator wall time)",
        "Cold (fresh trace and result stores) and warm (result-store "
        "hits) runs of the Table-5-shaped matrix.");

    const auto workloads = workload::table4Workloads();
    std::vector<std::pair<mitigation::MitigatorSpec, abo::Level>> points;
    for (const uint32_t eth : {0u, 16u, 32u, 48u}) {
        points.emplace_back(
            mitigation::Registry::parse("moat:ath=64,eth=" +
                                        std::to_string(eth)),
            abo::Level::L1);
    }
    const auto cells = sim::crossCells(
        {workloads.begin(), workloads.end()}, points);

    // The store configs are pinned explicitly (not read from the
    // environment) so an ambient MOATSIM_TRACE_STORE=0 or
    // MOATSIM_RESULT_STORE cannot change what is measured.
    sim::SweepConfig config;
    config.tracegen.windowFraction = 0.0625 * bench::benchScale();
    config.tracegen.subchannels = 2; // Table-3 full system
    config.jobs = bench::jobs();
    config.traceStore =
        std::make_shared<workload::TraceStore>(workload::TraceStore::Config{});
    sim::ResultStore::Config rs_on;
    rs_on.enabled = true;
    config.resultStore = std::make_shared<sim::ResultStore>(rs_on);

    const MatrixRun cold = runMatrix(config, cells);
    const auto store = config.traceStore->stats();
    const uint64_t computes_cold = config.resultStore->stats().computes;
    const MatrixRun warm = runMatrix(config, cells);
    const uint64_t warm_recomputes =
        config.resultStore->stats().computes - computes_cold;

    if (jsonlOf(cold.results) != jsonlOf(warm.results)) {
        std::cerr << "FATAL: cold and warm matrix runs diverged (results "
                     "must be bit-identical whether computed or served "
                     "from the result store)\n";
        return 1;
    }
    if (warm_recomputes != 0) {
        std::cerr << "FATAL: warm result-store run recomputed "
                  << warm_recomputes << " cells (expected 0)\n";
        return 1;
    }

    const double n = static_cast<double>(cells.size());
    const double cold_rate = cold.seconds > 0 ? n / cold.seconds : 0.0;
    const double warm_rate = warm.seconds > 0 ? n / warm.seconds : 0.0;

    TablePrinter t({"run", "cells", "seconds", "cells/sec",
                    "generateTraces calls"});
    t.addRow({"cold (fresh stores)", std::to_string(cells.size()),
              formatFixed(cold.seconds, 3), formatFixed(cold_rate, 2),
              std::to_string(cold.genCalls)});
    t.addRow({"warm (result-store hits)", std::to_string(cells.size()),
              formatFixed(warm.seconds, 3), formatFixed(warm_rate, 2),
              std::to_string(warm.genCalls)});
    t.print(std::cout);
    std::cout << "trace store: " << store.hits << " hits, "
              << store.misses << " misses (hit rate "
              << formatFixed(store.hitRate() * 100.0, 1) << "%), "
              << store.entries << " entries resident\n";

    if (std::ostream *os = bench::jsonlStream()) {
        *os << "{\"kind\":\"sweep_scale\",\"cells\":" << cells.size()
            << ",\"cold_cells_per_sec\":" << formatFixed(cold_rate, 3)
            << ",\"warm_cells_per_sec\":" << formatFixed(warm_rate, 3)
            << ",\"warm_recomputes\":" << warm_recomputes
            << ",\"cold_gen_calls\":" << cold.genCalls
            << ",\"warm_gen_calls\":" << warm.genCalls
            << ",\"trace_store_hits\":" << store.hits
            << ",\"trace_store_misses\":" << store.misses
            << ",\"trace_store_hit_rate\":"
            << formatFixed(store.hitRate(), 4) << "}\n";
    }
    return 0;
}
