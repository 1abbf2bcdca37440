#include "attacks/postponement.hh"

#include <algorithm>

#include "subchannel/subchannel.hh"

namespace moatsim::attacks
{

AttackResult
runRefreshPostponement(const PostponementConfig &config)
{
    using subchannel::SubChannel;
    using subchannel::SubChannelConfig;

    SubChannelConfig sc;
    sc.timing = config.timing;
    sc.numBanks = 1;
    sc.maxPostponedRefs = config.maxPostponed;
    SubChannel ch(sc, mitigation::PanopticonMitigator(config.panopticon));
    ch.setPostponeRefresh(true);

    const ActCount threshold = config.panopticon.queueThreshold;
    const RowId pad_row = 2048; // sacrificial row for phase shifting
    uint32_t best = 0;

    for (uint32_t trial = 0; trial < config.trials; ++trial) {
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

    AttackResult res;
    res.maxHammer = best;
    res.totalActs = ch.stats().acts;
    res.alerts = ch.abo().alertCount();
    res.duration = ch.now();
    return res;
}

} // namespace moatsim::attacks
