/**
 * @file
 * Capacity-planning scenario: a fleet operator wants to know what
 * enabling MOAT-protected DIMMs costs on real workloads, and whether a
 * co-located adversary can weaponize ALERTs into denial of service.
 */

#include <cstdio>
#include <iostream>

#include "analysis/throughput_model.hh"
#include "attacks/attack.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "mitigation/registry.hh"
#include "sim/experiment.hh"

using namespace moatsim;

int
main()
{
    std::printf("Datacenter view: MOAT (ATH 64) on mixed tenant "
                "workloads\n\n");

    sim::ExperimentConfig ec;
    ec.tracegen.windowFraction = 0.0625;
    sim::Experiment exp(ec); // default mitigator: "moat"

    // A representative mix: streaming HPC, pointer chasing, graph
    // analytics, and a nearly idle service.
    TablePrinter t({"tenant workload", "slowdown", "ALERTs/tREFI",
                    "mitigations/bank/tREFW"});
    for (const char *name : {"bwaves", "mcf", "roms", "pr", "x264"}) {
        const auto r = exp.engine().runCell(sim::SweepCell{
            workload::findWorkload(name), ec.mitigator, ec.aboLevel});
        t.addRow({name, formatPercent(1.0 - r.normPerf),
                  formatFixed(r.alertsPerRefi, 4),
                  formatFixed(r.mitigationsPerBankPerRefw, 0)});
    }
    t.print(std::cout);

    // Worst-case adversarial tenant: the TSA pattern.
    std::printf("\nAdversarial tenant (Torrent-of-Staggered-ALERT):\n");
    attacks::AttackConfig atk;
    atk.pattern = "tsa";
    atk.banks = 17; // tFAW limit
    const auto tsa =
        attacks::runAttack(atk, mitigation::Registry::parse("moat"));
    const auto model =
        analysis::tsaAttack(ec.tracegen.timing, 64, 5, 17, 1);
    std::printf("  measured channel throughput loss: %s "
                "(paper unit-model: %s)\n",
                formatPercent(tsa.lossFraction, 1).c_str(),
                formatPercent(model.lossFraction, 1).c_str());
    std::printf("  verdict (paper Section 7.3): comparable to ordinary "
                "row-buffer-conflict contention -- an annoyance, not a "
                "new denial-of-service class.\n");
    return 0;
}
