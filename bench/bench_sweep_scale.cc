/**
 * @file
 * End-to-end matrix-sweep throughput bench: cells per second of
 * simulator wall time on the Table-5-shaped matrix (every Table-4
 * workload x four MOAT ETH points on the 2-sub-channel system).
 *
 * Runs the identical matrix through the SweepEngine in two modes, each
 * repeated for at least 0.5 s (median and min..max spread reported):
 *
 *  - cold: fresh trace and result stores on every repeat -- each
 *    distinct trace is generated once (baselines included) and every
 *    cell is simulated;
 *  - warm: the same matrix again on the last cold repeat's stores,
 *    served entirely from the result store (no cell recomputes, no
 *    trace generates).
 *
 * The first cold, last cold and last warm runs must produce
 * byte-identical JSONL and no warm repeat may recompute a cell
 * (checked here; the bench fails otherwise).
 * It reports cold and warm cells/sec, generateTraces() calls, and the
 * trace store's hit rate, so a regression is attributable at a glance.
 */

#include <iostream>
#include <sstream>

#include "bench_util.hh"
#include "sim/result_io.hh"
#include "sim/sweep.hh"

using namespace moatsim;

namespace
{

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
    sim::ResultStore::Config rs_on;
    rs_on.enabled = true;

    // Each repeat keeps its results and generateTraces() count; the
    // checks below compare the first cold, last cold and last warm runs.
    std::vector<sim::PerfResult> results;
    uint64_t gen_calls = 0;
    const auto run = [&] {
        sim::SweepEngine engine(config);
        const uint64_t gen0 = workload::traceGenInvocations();
        results = engine.run(cells);
        gen_calls = workload::traceGenInvocations() - gen0;
    };

    std::vector<sim::PerfResult> first_cold;
    workload::TraceStore::Stats store;
    const bench::RepeatTiming cold = bench::timeRepeated([&] {
        config.traceStore = std::make_shared<workload::TraceStore>(
            workload::TraceStore::Config{});
        config.resultStore = std::make_shared<sim::ResultStore>(rs_on);
        run();
        if (first_cold.empty())
            first_cold = results;
        store = config.traceStore->stats();
    });
    const uint64_t cold_gen_calls = gen_calls;
    const std::string expected = jsonlOf(first_cold);
    const std::string last_cold = jsonlOf(results);
    const uint64_t computes_cold = config.resultStore->stats().computes;
    const bench::RepeatTiming warm = bench::timeRepeated(run);
    const uint64_t warm_gen_calls = gen_calls;
    const uint64_t warm_recomputes =
        config.resultStore->stats().computes - computes_cold;

    if (last_cold != expected || jsonlOf(results) != expected) {
        std::cerr << "FATAL: matrix runs diverged (results must be "
                     "bit-identical whether computed or served from the "
                     "result store)\n";
        return 1;
    }
    if (warm_recomputes != 0) {
        std::cerr << "FATAL: warm result-store runs recomputed "
                  << warm_recomputes << " cells (expected 0)\n";
        return 1;
    }

    const double n = static_cast<double>(cells.size());
    TablePrinter t({"run", "cells", "median seconds", "repeats",
                    "cells/sec (min..max)", "generateTraces calls"});
    t.addRow({"cold (fresh stores)", std::to_string(cells.size()),
              formatFixed(cold.medianSeconds, 3),
              std::to_string(cold.repeats), bench::rateCell(n, cold, 2),
              std::to_string(cold_gen_calls)});
    t.addRow({"warm (result-store hits)", std::to_string(cells.size()),
              formatFixed(warm.medianSeconds, 3),
              std::to_string(warm.repeats), bench::rateCell(n, warm, 2),
              std::to_string(warm_gen_calls)});
    t.print(std::cout);
    std::cout << "trace store (one cold run): " << store.hits << " hits, "
              << store.misses << " misses (hit rate "
              << formatFixed(store.hitRate() * 100.0, 1) << "%), "
              << store.entries << " entries resident\n";

    if (std::ostream *os = bench::jsonlStream()) {
        *os << "{\"kind\":\"sweep_scale\",\"cells\":" << cells.size()
            << bench::rateFields("cold_cells_per_sec", n, cold)
            << bench::rateFields("warm_cells_per_sec", n, warm)
            << ",\"warm_recomputes\":" << warm_recomputes
            << ",\"cold_gen_calls\":" << cold_gen_calls
            << ",\"warm_gen_calls\":" << warm_gen_calls
            << ",\"trace_store_hits\":" << store.hits
            << ",\"trace_store_misses\":" << store.misses
            << ",\"trace_store_hit_rate\":"
            << formatFixed(store.hitRate(), 4) << "}\n";
    }
    return 0;
}
