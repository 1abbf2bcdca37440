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
#include "common/logging.hh"

namespace moatsim::attacks
{

AttackResult
runFeinting(const AttackConfig &config,
            const mitigation::MitigatorSpec &mitigator)
{
    const dram::TimingParams &t = config.timing;
    // The driver models the default defender at the requested
    // mitigation period; the pattern table rejects the other settings.
    mitigation::IdealPrcConfig prc = mitigation::idealPrcConfigOf(mitigator);
    prc.blastRadius = t.blastRadius;
    const uint32_t k = prc.mitigationPeriodRefis;
    if (k == 0)
        fatal("runFeinting: mitigation period must be >= 1");

    // One round per mitigation period fits in the refresh window; the
    // optimal pool sacrifices one row per round.
    const uint64_t rounds = static_cast<uint64_t>(
        t.availableWindow() / (static_cast<Time>(k) * t.tREFI));
    const uint32_t pool_size =
        config.poolRows != 0 ? config.poolRows
                             : static_cast<uint32_t>(rounds);

    subchannel::SubChannel ch =
        makeChannel(config, mitigation::IdealPrcMitigator(prc),
                    /*refreshResetsRows=*/false);

    // Pool rows spaced beyond the blast radius so mitigating one row
    // never refreshes another pool row's victims.
    const uint32_t stride = 2 * t.blastRadius + 2;
    if (static_cast<uint64_t>(pool_size) * stride > t.rowsPerBank)
        fatal("runFeinting: pool does not fit in the bank");
    std::vector<RowId> live(pool_size);
    for (uint32_t i = 0; i < pool_size; ++i)
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
