/**
 * @file
 * Replay-loop throughput bench: demand activations per second of
 * simulator wall time.
 *
 * Replays a Table-4 workload's traces through the sim::System hot path
 * (ring-buffer in-flight state, sticky ALERT flag, pre-decoded
 * coordinates, sealed mitigator dispatch) and reports absolute
 * acts/sec for two systems:
 *
 *  - System x1: one sub-channel;
 *  - System x2: the Table-3 two-sub-channel system (twice the traffic
 *    through one merged event loop).
 *
 * The numbers are compared against history (earlier snapshots), not
 * against a foil in this file; perfbench/ owns the per-layer ledger.
 */

#include <chrono>
#include <iostream>

#include "bench_util.hh"
#include "mitigation/registry.hh"
#include "sim/system.hh"

using namespace moatsim;

namespace
{

/** Best-of-N wall time of @p body, returned in seconds. */
template <typename F>
double
bestSeconds(int repeats, F &&body)
{
    double best = 1e300;
    for (int i = 0; i < repeats; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        body();
        const auto t1 = std::chrono::steady_clock::now();
        best = std::min(
            best, std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
}

} // namespace

int
main()
{
    bench::header(
        "Replay-loop throughput (acts/sec of simulator wall time)",
        "The sim::System hot path on one and on two sub-channels; "
        "best of 3 replays of identical traces.");

    const auto spec = workload::findWorkload("roms");
    const auto moat = mitigation::Registry::parse("moat");
    const sim::CoreModel core;
    const int repeats = 3;

    TablePrinter t({"path", "acts", "seconds", "acts/sec"});
    double rates[2] = {0.0, 0.0};
    uint64_t acts[2] = {0, 0};
    for (const uint32_t subchannels : {1u, 2u}) {
        workload::TraceGenConfig tg;
        tg.windowFraction = 0.125 * bench::benchScale();
        tg.subchannels = subchannels;
        const auto traces = workload::generateTraces(spec, tg);
        uint64_t n = 0;
        for (const auto &tr : traces)
            n += tr.events.size();

        const double s = bestSeconds(repeats, [&] {
            sim::SystemConfig sys;
            sys.channel.timing = tg.timing;
            sys.channel.numBanks = tg.banksSimulated;
            sys.channel.securityEnabled = false;
            sys.channel.seed = 42;
            sys.subchannels = subchannels;
            sim::System system(sys, moat.factory());
            sim::runSystem(system, traces, core);
        });
        const double rate = s > 0 ? static_cast<double>(n) / s : 0.0;
        rates[subchannels - 1] = rate;
        acts[subchannels - 1] = n;
        t.addRow({"System x" + std::to_string(subchannels),
                  std::to_string(n), formatFixed(s, 4),
                  formatFixed(rate, 0)});
    }
    t.print(std::cout);

    if (std::ostream *os = bench::jsonlStream()) {
        *os << "{\"kind\":\"core_loop\",\"workload\":\"" << spec.name
            << "\",\"acts\":" << acts[0]
            << ",\"system1_acts_per_sec\":" << formatFixed(rates[0], 1)
            << ",\"acts2\":" << acts[1]
            << ",\"system2_acts_per_sec\":" << formatFixed(rates[1], 1)
            << "}\n";
    }
    return 0;
}
