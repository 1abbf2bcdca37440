/**
 * @file
 * Table 4 self-check: the synthetic trace generator must reproduce
 * each workload's published characterization -- ACT-PKI and the number
 * of rows per bank per tREFW with >= 32/64/128 activations.
 */

#include <iostream>
#include <vector>

#include "bench_util.hh"
#include "common/thread_pool.hh"
#include "workload/spec.hh"
#include "workload/tracegen.hh"

using namespace moatsim;

int
main()
{
    bench::header("Table 4 (workload characteristics, generator census)",
                  "Rows per bank per tREFW with >= N activations: "
                  "paper value vs the census of the generated traces.");

    workload::TraceGenConfig tg;
    tg.windowFraction = 0.125 * bench::benchScale();

    // Each workload's generation + census is independent; fan them
    // across the pool (per-workload seeding keeps results identical
    // at any MOATSIM_JOBS value).
    const auto workloads = workload::table4Workloads();
    std::vector<workload::TierCensus> census(workloads.size());
    parallelFor(bench::jobs(), workloads.size(), [&](size_t i) {
        const auto traces = workload::generateTraces(workloads[i], tg);
        census[i] = workload::censusOf(traces, tg, workloads[i]);
    });

    TablePrinter t({"workload", "ACT-PKI (paper/gen)", "ACT-32+ (p/g)",
                    "ACT-64+ (p/g)", "ACT-128+ (p/g)"});
    for (size_t i = 0; i < workloads.size(); ++i) {
        const auto &spec = workloads[i];
        const auto &c = census[i];
        t.addRow({spec.name,
                  formatFixed(spec.actPki, 1) + " / " +
                      formatFixed(c.actPki, 1),
                  std::to_string(spec.act32) + " / " +
                      formatFixed(c.act32, 0),
                  std::to_string(spec.act64) + " / " +
                      formatFixed(c.act64, 0),
                  std::to_string(spec.act128) + " / " +
                      formatFixed(c.act128, 0)});
    }
    t.print(std::cout);
    std::cout << "Note: generated ACT-PKI reflects the effective IPC "
                 "cap for memory-bound workloads (DESIGN.md).\n";
    return 0;
}
