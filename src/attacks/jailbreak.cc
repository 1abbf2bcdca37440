#include "attacks/jailbreak.hh"

#include <algorithm>
#include <cassert>
#include <variant>

#include "common/rng.hh"
#include "subchannel/subchannel.hh"

namespace moatsim::attacks
{

namespace
{

using subchannel::SubChannel;
using subchannel::SubChannelConfig;

/** Build a single-bank sub-channel running Panopticon. */
SubChannel
makeChannel(const JailbreakConfig &config, dram::CounterInit init)
{
    SubChannelConfig sc;
    sc.timing = config.timing;
    sc.numBanks = 1;
    sc.counterInit = init;
    sc.seed = config.seed;
    return SubChannel(sc, mitigation::PanopticonMitigator(config.panopticon));
}

/** The Panopticon instance of bank 0 (the attacker knows its state). */
const mitigation::PanopticonMitigator &
pano(const SubChannel &ch)
{
    return std::get<mitigation::PanopticonMitigator>(ch.mitigator(0));
}

/**
 * Hammer @p target at the paper's pace (actsPerRefi activations per
 * tREFI, 32 by default) while dodging queue overflow: when the next
 * ACT would cross a queueing-threshold multiple with the queue full,
 * wait for the gradual mitigation to free a slot. One insertion per
 * mitigation period, no ALERT. Returns the peak hammer count reached
 * before the target's first copy is mitigated.
 */
uint32_t
hammerWithGuard(SubChannel &ch, RowId target, uint32_t budget,
                const JailbreakConfig &config, Time pace,
                bool break_on_mitigation)
{
    const mitigation::PanopticonConfig &pcfg = config.panopticon;
    const Time refi = ch.timing().tREFI;
    Time not_before = ch.now();
    uint32_t peak = 0;
    uint32_t prev_h = 0;
    for (uint32_t a = 0; a < budget; ++a) {
        uint32_t guard = 0;
        while ((ch.bank(0).counter(target) + 1) % pcfg.queueThreshold == 0 &&
               pano(ch).queueSize() >= pcfg.queueEntries) {
            ch.advanceTo(ch.now() + refi);
            if (++guard > 16 * pcfg.queueEntries)
                break; // mitigation stalled; bail out rather than hang
        }
        const Time issued = ch.activateAt(0, target, not_before);
        not_before = issued + pace;
        const uint32_t h = ch.security(0).hammerCount(target);
        peak = std::max(peak, h);
        if (break_on_mitigation && h < prev_h)
            break; // target was mitigated; the episode is over
        prev_h = h;
    }
    return peak;
}

} // namespace

AttackResult
runDeterministicJailbreak(const JailbreakConfig &config)
{
    SubChannel ch = makeChannel(config, dram::CounterInit::Zero);
    const auto &pcfg = config.panopticon;

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

    // Phase 2: hammer the youngest entry with the paper's exact
    // (H)^1024 budget at full speed; the overflow guard self-paces the
    // queue insertions to one per mitigation period.
    const RowId target = rows.back();
    const uint32_t peak = hammerWithGuard(ch, target, config.hammerActs,
                                          config, /*pace=*/0,
                                          /*break_on_mitigation=*/false);

    AttackResult res;
    res.maxHammer = peak;
    res.totalActs = ch.stats().acts;
    res.alerts = ch.abo().alertCount();
    res.duration = ch.now();
    return res;
}

RandomizedJailbreakResult
runRandomizedJailbreak(const JailbreakConfig &config, uint64_t max_iterations)
{
    SubChannel ch = makeChannel(config, dram::CounterInit::RandomByte);
    const auto &pcfg = config.panopticon;
    const Time refi = ch.timing().tREFI;
    Rng rng(config.seed ^ 0xa5a5a5a5ULL);

    RandomizedJailbreakResult result;
    uint32_t best = 0;
    uint64_t successes = 0;
    uint64_t next_checkpoint = 4;

    const uint32_t num_rows = config.timing.rowsPerBank;
    for (uint64_t iter = 1; iter <= max_iterations; ++iter) {
        // Phase 1: eight random decoys, 32 ACTs each in a circular
        // pattern. A decoy enters the queue iff its counter was within
        // 32 of the next threshold multiple (probability 1/4).
        RowId decoys[8];
        for (auto &d : decoys)
            d = static_cast<RowId>(rng.below(num_rows));
        for (uint32_t k = 0; k < 32; ++k) {
            for (RowId d : decoys)
                ch.activate(0, d);
        }
        // A full prime counts as success; one decoy is typically
        // already being mitigated by the time phase 1 ends (the paper
        // notes "one row gets mitigated over this time").
        if (pano(ch).queueSize() + 1 >= pcfg.queueEntries)
            ++successes;

        // Phase 2: hammer a fresh attack row through whatever queue
        // depth phase 1 achieved. With a full queue the row accrues
        // ~queueEntries * threshold extra ACTs before mitigation.
        const RowId x = static_cast<RowId>(rng.below(num_rows));
        const Time pace = config.actsPerRefi > 0
                              ? refi / config.actsPerRefi
                              : 0;
        const uint32_t peak =
            hammerWithGuard(ch, x, config.hammerActs + pcfg.queueThreshold,
                            config, pace, /*break_on_mitigation=*/true);
        best = std::max(best, peak);

        // Queue reset: wait for the gradual mitigation to drain.
        uint32_t guard = 0;
        while (pano(ch).queueSize() > 0 && ++guard < 128)
            ch.advanceTo(ch.now() + 4 * refi);

        if (iter == next_checkpoint || iter == max_iterations) {
            result.curve.push_back({iter, best, successes});
            while (next_checkpoint <= iter)
                next_checkpoint *= 2;
        }
    }
    result.duration = ch.now();
    return result;
}

} // namespace moatsim::attacks
