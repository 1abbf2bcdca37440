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

namespace
{

/** The ACTs a trial hammers its target with at most. */
uint32_t
trialBudget(ActCount threshold)
{
    return 4 * threshold + 64;
}

/** Trial t hammers the fresh row kFirstTarget + kTargetStride * t. */
constexpr RowId kFirstTarget = 4096;
constexpr uint32_t kTargetStride = 128;

} // namespace

void
planPostponement(AttackPlan &plan,
                 const mitigation::MitigatorSpec &mitigator)
{
    AttackConfig &k = plan.knobs;
    if (k.trials == 0)
        k.trials = 256;
    // Each trial pads below 211 ACTs, then hammers its target's budget.
    const mitigation::PanopticonConfig pcfg =
        mitigation::panopticonConfigOf(mitigator);
    plan.acts = uint64_t{k.trials} * (210 + trialBudget(pcfg.queueThreshold));
    // The attack only bites the Appendix-B drain-all policy, which the
    // driver forces unless the spec turns it off.
    if (mitigator.hasParam("drain-all") && !pcfg.drainAllOnRef)
        plan.refusal = "the postponement pattern does not honor "
                       "'drain-all=false' (got '" + mitigator.describe() +
                       "')";
    // Every trial's target row must lie inside the bank.
    const uint32_t rows = k.timing.rowsPerBank;
    refuseAbove(plan, "trials", k.trials,
                rows > kFirstTarget
                    ? (rows - 1 - kFirstTarget) / kTargetStride + 1
                    : 0,
                "a sweep", "trials");
}

AttackResult
runPostponement(const AttackPlan &plan,
                const mitigation::MitigatorSpec &mitigator)
{
    mitigation::PanopticonConfig pcfg =
        mitigation::panopticonConfigOf(mitigator);
    // The attack only bites the Appendix-B drain-all policy (the plan
    // refuses an explicit drain-all=false).
    pcfg.drainAllOnRef = true;
    subchannel::SubChannel ch =
        makeChannel(plan, mitigation::PanopticonMitigator(pcfg));
    ch.setPostponeRefresh(true);

    const ActCount threshold = pcfg.queueThreshold;
    const RowId pad_row = 2048; // sacrificial row for phase shifting
    uint32_t best = 0;

    for (uint32_t trial = 0; trial < plan.knobs.trials; ++trial) {
        // Shift the pattern phase relative to the REF-batch schedule so
        // some trial's queue insertion lands right after a batch.
        const uint32_t pad = trial % 211;
        for (uint32_t j = 0; j < pad; ++j)
            ch.activate(0, pad_row);

        // Hammer a fresh row continuously; it enters the queue when its
        // counter crosses the threshold and is mitigated only at the
        // next REF batch, up to ~201 activations later.
        const RowId target = kFirstTarget + trial * kTargetStride;
        const uint32_t budget = trialBudget(threshold);
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
