/**
 * @file
 * Replay-loop throughput bench: demand activations per second of
 * simulator wall time.
 *
 * Replays a Table-4 workload's traces through the sim::System hot path
 * (ring-buffer in-flight state, sticky ALERT flag, pre-decoded
 * coordinates, by-value mitigator dispatch) and reports absolute
 * acts/sec for two systems:
 *
 *  - System x1: one sub-channel;
 *  - System x2: the Table-3 two-sub-channel system (twice the traffic
 *    through one merged event loop).
 *
 * Each figure is the median of replays repeated for at least 0.5 s,
 * with the min..max spread beside it. Only runSystem is timed: every
 * replay gets a newly built System, and its construction is reported
 * as its own median (systemN_construct_ms). That figure includes
 * freeing the previous System, whose counter slabs are re-zeroed where
 * its replay dirtied them and then recycled into the new one
 * (subchannel/counter_slab.hh). The first, cold construction of each
 * shape allocates fresh slabs and is reported apart
 * (systemN_construct_cold_ms, one sample). The numbers are compared
 * against history (earlier snapshots), not against a foil in this
 * file; perfbench/ owns the per-layer ledger.
 */

#include <chrono>
#include <iostream>
#include <memory>
#include <utility>

#include "bench_util.hh"
#include "mitigation/registry.hh"
#include "sim/system.hh"

using namespace moatsim;

int
main()
{
    bench::header(
        "Replay-loop throughput (acts/sec of simulator wall time)",
        "The sim::System hot path on one and on two sub-channels; "
        "median (min..max) of replays of identical traces repeated "
        "for at least 0.5 s. System construction is timed apart, the "
        "first (cold) one of each shape on its own.");

    const auto spec = workload::findWorkload("roms");
    const auto moat = mitigation::Registry::parse("moat");
    const sim::CoreModel core;

    TablePrinter t({"path", "acts", "median seconds", "repeats",
                    "acts/sec (min..max)", "construct ms (min..max)",
                    "cold construct ms"});
    const auto configFor = [](uint32_t subchannels) {
        workload::TraceGenConfig tg;
        tg.windowFraction = 0.125 * bench::benchScale();
        tg.subchannels = subchannels;
        sim::SystemConfig sys;
        sys.channel.timing = tg.timing;
        sys.channel.numBanks = tg.banksSimulated;
        sys.channel.securityEnabled = false;
        sys.channel.seed = 42;
        sys.subchannels = subchannels;
        return std::pair{tg, sys};
    };

    // Cold constructions first, with both Systems alive at once, so
    // each allocates fresh slabs; every later System recycles them.
    double cold_ms[2] = {};
    {
        std::unique_ptr<sim::System> cold[2];
        for (const uint32_t subchannels : {1u, 2u}) {
            const sim::SystemConfig sys = configFor(subchannels).second;
            const auto t0 = std::chrono::steady_clock::now();
            cold[subchannels - 1] =
                std::make_unique<sim::System>(sys, moat.factory());
            cold_ms[subchannels - 1] =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
        }
    }

    std::string fields;
    for (const uint32_t subchannels : {1u, 2u}) {
        const auto [tg, sys] = configFor(subchannels);
        const auto traces = workload::generateTraces(spec, tg);
        uint64_t n = 0;
        for (const auto &tr : traces)
            n += tr.events.size();

        // The previous System dies inside the timed setup, so its
        // slabs' re-zeroing counts toward the next construction.
        std::unique_ptr<sim::System> system;
        const bench::SetupTiming st = bench::timeRepeated(
            [&] {
                system.reset();
                system = std::make_unique<sim::System>(sys, moat.factory());
                return system.get();
            },
            [&](sim::System *s) { sim::runSystem(*s, traces, core); });
        const bench::RepeatTiming &rt = st.body;
        const bench::RepeatTiming &ct = st.setup;
        const double acts = static_cast<double>(n);
        const double cold = cold_ms[subchannels - 1];
        t.addRow({"System x" + std::to_string(subchannels),
                  std::to_string(n), formatFixed(rt.medianSeconds, 4),
                  std::to_string(rt.repeats), bench::rateCell(acts, rt, 0),
                  formatFixed(ct.medianSeconds * 1e3, 2) + " (" +
                      formatFixed(ct.minSeconds * 1e3, 2) + ".." +
                      formatFixed(ct.maxSeconds * 1e3, 2) + ")",
                  formatFixed(cold, 2)});
        const std::string name = "system" + std::to_string(subchannels);
        fields += (subchannels == 1 ? ",\"acts\":" : ",\"acts2\":") +
                  std::to_string(n) +
                  bench::rateFields(name + "_acts_per_sec", acts, rt) +
                  ",\"" + name + "_construct_ms\":" +
                  formatFixed(ct.medianSeconds * 1e3, 3) + ",\"" + name +
                  "_construct_ms_min\":" +
                  formatFixed(ct.minSeconds * 1e3, 3) + ",\"" + name +
                  "_construct_ms_max\":" +
                  formatFixed(ct.maxSeconds * 1e3, 3) + ",\"" + name +
                  "_construct_cold_ms\":" + formatFixed(cold, 3);
    }
    t.print(std::cout);

    if (std::ostream *os = bench::jsonlStream()) {
        *os << "{\"kind\":\"core_loop\",\"workload\":\"" << spec.name
            << "\"" << fields << "}\n";
    }
    return 0;
}
