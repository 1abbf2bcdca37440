/**
 * @file
 * Refresh-postponement attack on Drain-All-Entries-on-REF Panopticon
 * (Appendix B, Figure 16 of the paper).
 *
 * DDR5 allows the memory controller to postpone up to two REF commands
 * and issue them later as a batch. Against the drain-all policy --
 * which mitigates queue entries only when a REF arrives -- an attacker
 * postpones maximally, creating windows of up to 201 activations
 * between REF batches. A row inserted into the queue right after a
 * batch then accrues threshold + 200 = 328 activations (2.6x the
 * queueing threshold) before the next batch mitigates it. The driver
 * sweeps the insertion phase over its trials (256 by default) and
 * reports the best trial's peak.
 */

#include <algorithm>

#include "attacks/patterns.hh"

namespace moatsim::attacks
{

AttackResult
runPostponement(const AttackConfig &config,
                const mitigation::MitigatorSpec &mitigator)
{
    mitigation::PanopticonConfig pcfg =
        mitigation::panopticonConfigOf(mitigator);
    // The attack only bites the Appendix-B drain-all policy (the
    // table rejects an explicit drain-all=false).
    pcfg.drainAllOnRef = true;
    subchannel::SubChannel ch = makeChannel(
        atLevelOne(config), mitigation::PanopticonMitigator(pcfg));
    ch.setPostponeRefresh(true);

    const ActCount threshold = pcfg.queueThreshold;
    const uint32_t trials = config.trials != 0 ? config.trials : 256;
    const RowId pad_row = 2048; // sacrificial row for phase shifting
    uint32_t best = 0;

    for (uint32_t trial = 0; trial < trials; ++trial) {
        // Shift the pattern phase relative to the REF-batch schedule so
        // some trial's queue insertion lands right after a batch.
        const uint32_t pad = trial % 211;
        for (uint32_t j = 0; j < pad; ++j)
            ch.activate(0, pad_row);

        // Hammer a fresh row continuously; it enters the queue when its
        // counter crosses the threshold and is mitigated only at the
        // next REF batch, up to ~201 activations later.
        const RowId target = 4096 + trial * 128;
        const uint32_t budget = 4 * threshold + 64;
        uint32_t peak = 0;
        for (uint32_t a = 0; a < budget; ++a) {
            ch.activate(0, target);
            const uint32_t h = ch.security(0).hammerCount(target);
            peak = std::max(peak, h);
            if (peak > threshold && h == 0)
                break; // mitigated after crossing; episode over
        }
        best = std::max(best, peak);
    }

    AttackResult res = resultOf(ch);
    res.maxHammer = best;
    return res;
}

} // namespace moatsim::attacks
