/**
 * @file
 * Ablation of the paper's Section-9 recommendations:
 *
 *  1. "Larger queues introduce vulnerability from insertion to
 *     mitigation, so shorter queues are preferred" — Jailbreak damage
 *     against the original Panopticon as the queue size is swept.
 *  2. "Queue entries must contain a counter to address attacks that
 *     cause frequent ACTs while a row is enqueued" — the same pattern
 *     against the repaired counter-carrying queue collapses from 9x
 *     the threshold to roughly the ALERT threshold.
 */

#include <iostream>
#include <string>

#include "attacks/attack.hh"
#include "bench_util.hh"
#include "mitigation/registry.hh"
#include "subchannel/subchannel.hh"

using namespace moatsim;

namespace
{

/** Jailbreak pattern against the repaired counter-carrying queue. */
attacks::AttackResult
jailbreakVsCounterQueue(const mitigation::MitigatorSpec &spec)
{
    const mitigation::PanopticonCounterConfig cfg =
        mitigation::panopticonCounterConfigOf(spec);
    subchannel::SubChannelConfig sc;
    sc.numBanks = 1;
    subchannel::SubChannel ch(sc, spec.factory());

    const RowId base = sc.timing.rowsPerBank / 2;
    std::vector<RowId> rows(cfg.queueEntries);
    for (uint32_t i = 0; i < cfg.queueEntries; ++i)
        rows[i] = base + i * 8;
    for (ActCount k = 0; k < cfg.queueThreshold; ++k) {
        for (RowId r : rows)
            ch.activate(0, r);
    }
    // Phase 2 at the paper's 32 ACTs per tREFI.
    const Time pace = ch.timing().tREFI / 32;
    Time not_before = ch.now();
    for (uint32_t a = 0; a < 1024; ++a)
        not_before = ch.activateAt(0, rows.back(), not_before) + pace;
    ch.advanceTo(ch.now() + fromNs(2000));

    attacks::AttackResult res;
    res.maxHammer = ch.security(0).maxHammer();
    res.totalActs = ch.stats().acts;
    res.alerts = ch.abo().alertCount();
    res.duration = ch.now();
    return res;
}

} // namespace

int
main()
{
    bench::header("Ablation (Section 9 recommendations)",
                  "Why MOAT tracks a single counter-carrying entry: "
                  "queue depth is attack surface, and address-only "
                  "entries are blind.");

    std::cout << "Recommendation 1 -- shorter queues (Jailbreak vs "
                 "original Panopticon, threshold 128):\n";
    TablePrinter t1({"queue entries", "max ACTs", "overshoot",
                     "ALERTs"});
    attacks::AttackConfig jailbreak;
    jailbreak.pattern = "jailbreak";
    for (uint32_t q : {2u, 4u, 8u, 16u}) {
        // The default budget scales with the queue: the accrual window
        // is one mitigation period per resident entry.
        const auto r = attacks::runAttack(
            jailbreak, mitigation::Registry::parse(
                           "panopticon:entries=" + std::to_string(q)));
        t1.addRow({std::to_string(q), std::to_string(r.maxHammer),
                   formatFixed(r.maxHammer / 128.0, 1) + "x",
                   std::to_string(r.alerts)});
    }
    t1.print(std::cout);

    std::cout << "\nRecommendation 2 -- counters in the queue "
                 "(Jailbreak pattern vs the repaired design):\n";
    TablePrinter t2({"design", "max ACTs", "overshoot", "ALERTs"});
    {
        // The paper's 1024-ACT hammer budget.
        jailbreak.budget = 1024;
        const auto r = attacks::runAttack(
            jailbreak, mitigation::Registry::parse("panopticon"));
        t2.addRow({"address-only FIFO (original)",
                   std::to_string(r.maxHammer),
                   formatFixed(r.maxHammer / 128.0, 1) + "x",
                   std::to_string(r.alerts)});
    }
    for (ActCount slack : {64u, 128u}) {
        const auto spec = mitigation::Registry::parse(
            "panopticon-counter:slack=" + std::to_string(slack));
        const auto r = jailbreakVsCounterQueue(spec);
        bench::emitJsonl(r, "jailbreak", spec.describe());
        t2.addRow({"counter queue, slack " + std::to_string(slack),
                   std::to_string(r.maxHammer),
                   formatFixed(r.maxHammer / 128.0, 1) + "x",
                   std::to_string(r.alerts)});
    }
    t2.print(std::cout);
    std::cout << "The counter-carrying queue caps the attack near its "
                 "ALERT threshold -- the design point MOAT then "
                 "minimizes (single entry, dual thresholds).\n";
    return 0;
}
