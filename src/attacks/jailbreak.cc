/**
 * @file
 * The Jailbreak attack on Panopticon (Section 3 of the paper).
 *
 * Panopticon keeps no counter in its per-bank queue, so a row's
 * activations between queue insertion and mitigation are unbounded by
 * the queueing threshold. Jailbreak fills the 8-entry queue with eight
 * rows and then hammers the youngest entry at a rate that re-inserts it
 * exactly once per mitigation period, so the queue never overflows (no
 * ALERT) while the attacked row accrues queueEntries * threshold extra
 * activations: 1152 total for the threshold-128 configuration and the
 * paper's 1024-ACT hammer budget.
 */

#include <algorithm>
#include <cstdint>
#include <limits>
#include <variant>
#include <vector>

#include "attacks/patterns.hh"

namespace moatsim::attacks
{

AttackResult
runJailbreak(const AttackConfig &config,
             const mitigation::MitigatorSpec &mitigator)
{
    const mitigation::PanopticonConfig pcfg =
        mitigation::panopticonConfigOf(mitigator);
    // The default budget covers one mitigation period per resident
    // entry plus two; the driver counts it in 32 bits.
    const uint64_t budget =
        config.budget != 0
            ? config.budget
            : static_cast<uint64_t>(pcfg.queueThreshold) *
                  (pcfg.queueEntries + 2);
    const uint32_t hammer_acts = static_cast<uint32_t>(std::min<uint64_t>(
        budget, std::numeric_limits<uint32_t>::max()));

    subchannel::SubChannel ch =
        makeChannel(atLevelOne(config), mitigator.factory());
    // The attacker knows the queue state (threat model, Section 2.1).
    const auto &pano =
        std::get<mitigation::PanopticonMitigator>(ch.mitigator(0));

    // Pick queueEntries rows mid-bank (away from the refresh pointer,
    // which starts at row 0), spaced so victim windows never overlap.
    const RowId base = config.timing.rowsPerBank / 2;
    std::vector<RowId> rows(pcfg.queueEntries);
    for (uint32_t i = 0; i < pcfg.queueEntries; ++i)
        rows[i] = base + i * 8;

    // Phase 1: circular activation brings every row to the queueing
    // threshold within the same tREFI; all enter the queue, the target
    // (last-activated) row youngest.
    for (ActCount k = 0; k < pcfg.queueThreshold; ++k) {
        for (RowId r : rows)
            ch.activate(0, r);
    }

    // Phase 2: hammer the youngest entry at full speed while dodging
    // queue overflow: when the next ACT would cross a threshold
    // multiple with the queue full, wait for the gradual mitigation to
    // free a slot. That self-paces the insertions to one per
    // mitigation period, so no ALERT fires.
    const RowId target = rows.back();
    const Time refi = ch.timing().tREFI;
    uint32_t peak = 0;
    for (uint32_t a = 0; a < hammer_acts; ++a) {
        uint32_t guard = 0;
        while ((ch.bank(0).counter(target) + 1) % pcfg.queueThreshold == 0 &&
               pano.queueSize() >= pcfg.queueEntries) {
            ch.advanceTo(ch.now() + refi);
            if (++guard > 16 * pcfg.queueEntries)
                break; // mitigation stalled; bail out rather than hang
        }
        ch.activate(0, target);
        peak = std::max(peak, ch.security(0).hammerCount(target));
    }

    AttackResult res = resultOf(ch);
    res.maxHammer = peak;
    return res;
}

} // namespace moatsim::attacks
