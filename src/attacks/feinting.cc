/**
 * @file
 * Optimal feinting attack against transparent per-row-counter
 * mitigation (Section 2.5, Table 2; attack concept from ProTRR).
 *
 * The defender mitigates the highest-count row once every k tREFI. The
 * attacker keeps a pool of rows, spreads its per-period activation
 * budget evenly over the surviving pool (so every row looks equally
 * urgent), and sacrifices the mitigated row each period. The last
 * surviving row accumulates B * H_N activations, far above the
 * queueing/mitigation threshold -- the reason purely transparent
 * schemes cannot tolerate low TRH.
 */

#include <algorithm>
#include <vector>

#include "attacks/patterns.hh"

namespace moatsim::attacks
{

namespace
{

/** Rounds of the attack: one per mitigation period of @p k tREFI in
 *  the refresh window (the registry refuses a zero period). */
uint64_t
roundsOf(const dram::TimingParams &t, uint32_t k)
{
    return static_cast<uint64_t>(t.availableWindow() / (Time{k} * t.tREFI));
}

} // namespace

void
planFeinting(AttackPlan &plan, const mitigation::MitigatorSpec &mitigator)
{
    // The driver models the default defender at the requested period.
    for (const std::string key : {"min-count", "blast"}) {
        if (mitigator.hasParam(key)) {
            plan.refusal = "the feinting pattern does not honor '" + key +
                           "' (got '" + mitigator.describe() + "')";
            return;
        }
    }
    AttackConfig &k = plan.knobs;
    const dram::TimingParams &t = k.timing;
    // The optimal pool sacrifices one row per round, its rows one
    // stride apart in the bank.
    if (k.poolRows == 0)
        k.poolRows = static_cast<uint32_t>(roundsOf(
            t, mitigation::idealPrcConfigOf(mitigator).mitigationPeriodRefis));
    refuseAbove(plan, "pool_rows", k.poolRows,
                t.rowsPerBank / (2 * t.blastRadius + 2), "a pool", "rows");
    // The rounds span at most one refresh window of back-to-back ACTs.
    plan.acts = static_cast<uint64_t>(t.availableWindow() / t.tRC);
}

AttackResult
runFeinting(const AttackPlan &plan,
            const mitigation::MitigatorSpec &mitigator)
{
    const dram::TimingParams &t = plan.knobs.timing;
    // The driver models the default defender at the requested
    // mitigation period; the plan refuses the other settings.
    mitigation::IdealPrcConfig prc = mitigation::idealPrcConfigOf(mitigator);
    prc.blastRadius = t.blastRadius;
    const uint32_t k = prc.mitigationPeriodRefis;
    const uint64_t rounds = roundsOf(t, k);

    subchannel::SubChannel ch =
        makeChannel(plan, mitigation::IdealPrcMitigator(prc),
                    /*refreshResetsRows=*/false);

    // Pool rows spaced beyond the blast radius so mitigating one row
    // never refreshes another pool row's victims.
    const uint32_t stride = 2 * t.blastRadius + 2;
    std::vector<RowId> live(plan.knobs.poolRows);
    for (uint32_t i = 0; i < live.size(); ++i)
        live[i] = i * stride;

    // Round structure: during each mitigation period, spread the ACT
    // budget round-robin over the surviving pool (command timing
    // naturally limits the budget to ~67 ACTs per tREFI); at the period
    // boundary the defender mitigates the argmax row, which the
    // attacker then drops from the pool (its counter reset to 0).
    const uint64_t total_rounds = std::min<uint64_t>(rounds, live.size());
    // Expected counter of each pool row assuming no mitigation; a row
    // whose real counter falls below it was mitigated (counters only
    // reset through mitigation here) and leaves the pool.
    std::vector<ActCount> expected(live.size(), 0);
    size_t idx = 0; // persistent rotation so the budget spreads evenly
    for (uint64_t round = 0; round < total_rounds && !live.empty();
         ++round) {
        const Time round_end =
            static_cast<Time>((round + 1) * k) * t.tREFI;
        while (ch.now() < round_end && !live.empty()) {
            idx %= live.size();
            ch.activate(0, live[idx]);
            ++expected[idx];
            ++idx;
        }
        // Let the boundary REF (and its mitigation) finish, then evict
        // whichever row the defender reset this round.
        ch.advanceTo(round_end + 1);
        size_t w = 0;
        for (size_t i = 0; i < live.size(); ++i) {
            if (ch.bank(0).counter(live[i]) >= expected[i]) {
                live[w] = live[i];
                expected[w] = expected[i];
                ++w;
            }
        }
        live.resize(w);
        expected.resize(w);
    }
    return resultOf(ch);
}

} // namespace moatsim::attacks
