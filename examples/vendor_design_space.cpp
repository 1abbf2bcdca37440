/**
 * @file
 * DRAM-vendor design-space walk: you manufacture chips with a known
 * Rowhammer threshold and must pick a MOAT configuration (ATH, ETH,
 * ABO level) that is provably safe with the least overhead.
 *
 * For each candidate the example reports the Appendix-A tolerated
 * threshold, the SRAM cost, and a quick measured slowdown on a
 * representative hot workload (roms, the paper's worst case).
 */

#include <cstdio>
#include <iostream>
#include <vector>

#include "analysis/ratchet_model.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "sim/experiment.hh"

using namespace moatsim;

int
main()
{
    const uint32_t chip_trh = 120; // your silicon's measured threshold
    std::printf("Design-space walk for chips with TRH = %u\n\n",
                chip_trh);

    sim::ExperimentConfig ec;
    ec.tracegen.windowFraction = 0.0625; // quick evaluation runs
    ec.workload = "roms";

    struct Candidate
    {
        uint32_t ath;
        int level;
    };
    const std::vector<Candidate> candidates = {
        {32, 1}, {64, 1}, {64, 2}, {96, 1}, {128, 1},
    };

    // Every candidate on the hot workload, as one parallel batch.
    std::vector<sim::SweepPoint> points;
    for (const auto &c : candidates) {
        points.push_back({mitigation::Registry::parse(
                              "moat:ath=" + std::to_string(c.ath) +
                              ",eth=" + std::to_string(c.ath / 2) +
                              ",entries=" + std::to_string(c.level)),
                          static_cast<abo::Level>(c.level)});
    }
    sim::Experiment exp(ec);
    const auto measured = exp.runMatrix(points);

    TablePrinter t({"design", "tolerated TRH", "safe for chip?",
                    "SRAM B/bank", "roms slowdown", "ALERTs/tREFI"});
    for (size_t i = 0; i < candidates.size(); ++i) {
        const auto &c = candidates[i];
        const auto bound =
            analysis::ratchetBound(ec.tracegen.timing, c.ath, c.level);
        const auto &spec = points[i].mitigator;
        const auto &perf = measured[i].front();

        t.addRow({"MOAT-L" + std::to_string(c.level) +
                      " ATH=" + std::to_string(c.ath),
                  formatFixed(bound.safeTrh, 0),
                  bound.safeTrh <= chip_trh ? "yes" : "NO",
                  std::to_string(spec.sramBytesPerBank()),
                  formatPercent(1.0 - perf.normPerf),
                  formatFixed(perf.alertsPerRefi, 4)});
    }
    t.print(std::cout);

    std::printf("\nPick the largest safe ATH: it minimizes ALERTs (and "
                "thus slowdown) while the Ratchet bound stays below "
                "your TRH.\n");
    return 0;
}
