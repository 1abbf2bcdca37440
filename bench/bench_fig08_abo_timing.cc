/**
 * @file
 * Figure 8 / Section 5.1: minimum activations between consecutive
 * ALERTs for each ABO mitigation level, and the tA2A spacing.
 *
 * Paper: level 1 -> 4 ACTs per ALERT window (3 before the RFM, 1
 * after), level 4 -> 7; tA2A = 180ns + (350+52)ns * L.
 */

#include <iostream>
#include <variant>

#include "abo/abo.hh"
#include "bench_util.hh"
#include "mitigation/registry.hh"
#include "subchannel/subchannel.hh"

using namespace moatsim;

namespace
{

/**
 * Measure the inter-ALERT ACT count end to end: prime a pool to
 * exactly ATH, then run a Ratchet-style torrent and count activations
 * per ALERT in steady state (between the 5th and 45th ALERT).
 */
uint32_t
measureActsBetweenAlerts(abo::Level level)
{
    subchannel::SubChannelConfig sc;
    sc.numBanks = 1;
    sc.aboLevel = level;
    sc.refreshResetsRows = false;
    const auto spec = mitigation::Registry::parse(
        "moat:entries=" + std::to_string(abo::levelValue(level)));
    const mitigation::MoatConfig moat = mitigation::moatConfigOf(spec);
    subchannel::SubChannel ch(sc, spec.factory());
    const auto &m = std::get<mitigation::MoatMitigator>(ch.mitigator(0));

    std::vector<RowId> live;
    for (int i = 0; i < 512; ++i)
        live.push_back(30000 + 8 * i);
    for (RowId r : live) {
        while (ch.bank(0).counter(r) < moat.ath)
            ch.activate(0, r);
    }

    uint64_t acts_at_5 = 0;
    uint64_t acts_at_45 = 0;
    while (ch.abo().alertCount() < 45 && !live.empty()) {
        // Min-count live row, avoiding the one latched for the RFM.
        RowId pending = m.pendingAlertRow();
        size_t w = 0;
        RowId pick = kInvalidRow;
        ActCount pick_count = 0;
        for (RowId r : live) {
            const ActCount c = ch.bank(0).counter(r);
            if (c == 0)
                continue;
            live[w++] = r;
            if (r != pending && (pick == kInvalidRow || c < pick_count)) {
                pick = r;
                pick_count = c;
            }
        }
        live.resize(w);
        if (live.empty())
            break;
        if (pick == kInvalidRow)
            pick = live.front();
        ch.activate(0, pick);
        if (ch.abo().alertCount() == 5 && acts_at_5 == 0)
            acts_at_5 = ch.stats().acts;
        acts_at_45 = ch.stats().acts;
    }
    const uint64_t alerts = ch.abo().alertCount() - 5;
    if (alerts == 0 || acts_at_5 == 0)
        return 0;
    return static_cast<uint32_t>(
        (acts_at_45 - acts_at_5 + alerts / 2) / alerts);
}

} // namespace

int
main()
{
    bench::header("Figure 8 (ACTs between consecutive ALERTs)",
                  "The attacker-controllable activations leaked per "
                  "ALERT-to-ALERT window, per ABO mitigation level.");

    dram::TimingParams timing;
    TablePrinter t({"ABO level", "paper min ACTs", "model (3+L)",
                    "measured", "tA2A (ns)", "RFMs per ALERT"});
    const int paper[] = {4, 5, 7};
    int row = 0;
    for (abo::Level l : {abo::Level::L1, abo::Level::L2, abo::Level::L4}) {
        const int lv = abo::levelValue(l);
        const uint32_t measured = measureActsBetweenAlerts(l);
        attacks::AttackResult ar;
        ar.maxHammer = measured;
        bench::emitJsonl(ar, "abo-window:level=" + std::to_string(lv),
                         "moat:entries=" + std::to_string(lv));
        t.addRow({"L" + std::to_string(lv), std::to_string(paper[row++]),
                  std::to_string(timing.actsPerAlertWindow(lv)),
                  std::to_string(measured),
                  formatFixed(toNs(timing.alertToAlert(lv)), 0),
                  std::to_string(lv)});
    }
    t.print(std::cout);
    return 0;
}
