/**
 * @file
 * The Ratchet attack against PRAC+ABO designs (Section 5, Appendix A).
 *
 * JEDEC's ABO is neither stop-the-world (180 ns of normal operation
 * after assertion) nor instantaneous (at least L activations between
 * consecutive ALERTs), so each ALERT-to-ALERT window leaks M = 3 + L
 * activations the attacker controls. Ratchet primes a large pool of
 * rows to ATH, then triggers a torrent of ALERTs and spends every
 * leaked activation raising the surviving rows, funnelling all
 * remaining budget into the last survivor. The maximum count reached is
 * the real TRH tolerated by the design: ATH + log_{M/3}(Nc) + M
 * (~99 for ATH=64 at ABO level 1).
 *
 * Figure 9's micro example is this driver on four rows at ABO level 4
 * against a single-entry MOAT (`moat:ath=A,eth=A/2,entries=1`, pool
 * 4): the last row reaches exactly ATH + 15.
 */

#include <algorithm>
#include <variant>
#include <vector>

#include "analysis/ratchet_model.hh"
#include "attacks/patterns.hh"
#include "common/logging.hh"

namespace moatsim::attacks
{

namespace
{

using subchannel::SubChannel;

/** Priming top-up sweeps to counter proactive mitigation. */
constexpr uint32_t kTopUpSweeps = 4;

/**
 * Phase 2 of Ratchet: torrent of ALERTs over the primed pool.
 *
 * Strategy (optimal per Appendix A): always activate the live row with
 * the lowest count, avoiding the row MOAT currently tracks for
 * mitigation, so every leaked inter-ALERT activation raises the pool
 * as evenly as possible while each ALERT sacrifices only the tracked
 * maximum. Mitigated rows (counter back to 0) leave the pool.
 */
void
ratchetTorrent(SubChannel &ch, std::vector<RowId> &live,
               const mitigation::MoatMitigator &moat)
{
    uint64_t safety = 0;
    const uint64_t safety_cap =
        64ULL * 1024 * 1024; // generous bound against livelock
    while (!live.empty() && ++safety < safety_cap) {
        // Compact mitigated rows out and find the minimum-count row.
        // Avoid the row already latched for the in-flight ALERT's RFMs
        // (activations on it would be erased by the imminent reset).
        RowId pending = moat.pendingAlertRow();
        if (pending == kInvalidRow)
            pending = moat.maxTrackedRow();
        size_t w = 0;
        RowId pick = kInvalidRow;
        ActCount pick_count = 0;
        for (size_t i = 0; i < live.size(); ++i) {
            const RowId r = live[i];
            const ActCount c = ch.bank(0).counter(r);
            if (c == 0)
                continue; // mitigated; drop from the pool
            live[w++] = r;
            if (r != pending &&
                (pick == kInvalidRow || c < pick_count)) {
                pick = r;
                pick_count = c;
            }
        }
        live.resize(w);
        if (live.empty())
            break;
        if (pick == kInvalidRow)
            pick = live.front(); // only the pending row remains

        // Issue the activation. If the row's hammer count did not
        // grow, the RFM serviced inside this call mitigated the row
        // first (its reset is otherwise masked by this very ACT);
        // retire it from the pool.
        const uint32_t before = ch.security(0).hammerCount(pick);
        ch.activate(0, pick);
        if (ch.security(0).hammerCount(pick) <= before)
            std::erase(live, pick);
    }
}

} // namespace

AttackResult
runRatchet(const AttackConfig &config,
           const mitigation::MitigatorSpec &mitigator)
{
    const dram::TimingParams &t = config.timing;
    const ActCount ath = mitigation::moatConfigOf(mitigator).ath;

    // The pool defaults to the Appendix-A optimum Nc (the largest pool
    // whose priming and ALERT torrent fit the refresh window), capped
    // to the bank.
    const auto bound = analysis::ratchetBound(
        t, ath, abo::levelValue(config.aboLevel));
    const uint32_t stride = 2 * t.blastRadius + 2;
    const uint32_t max_fit = t.rowsPerBank / stride - 4;
    uint32_t pool = config.poolRows != 0
                        ? config.poolRows
                        : static_cast<uint32_t>(std::min<uint64_t>(
                              bound.maxPoolRows, max_fit));
    if (pool == 0)
        fatal("runRatchet: empty pool");
    pool = std::min(pool, max_fit);

    SubChannel ch = makeChannel(config, mitigator.factory(),
                                /*refreshResetsRows=*/false);
    const auto &moat = std::get<mitigation::MoatMitigator>(ch.mitigator(0));

    std::vector<RowId> rows(pool);
    for (uint32_t i = 0; i < pool; ++i)
        rows[i] = i * stride;

    // Phase 1: prime every row to exactly ATH (one below the ALERT
    // trigger). Proactive mitigation keeps resetting some rows, so
    // sweep again a few times to top them up.
    for (uint32_t sweep = 0; sweep <= kTopUpSweeps; ++sweep) {
        bool all_primed = true;
        for (RowId r : rows) {
            ActCount c = ch.bank(0).counter(r);
            if (sweep > 0 && c == ath)
                continue;
            all_primed = false;
            while (c < ath) {
                ch.activate(0, r);
                c = ch.bank(0).counter(r);
            }
        }
        if (sweep > 0 && all_primed)
            break;
    }

    // Phase 2: the ALERT torrent over the successfully primed rows.
    std::vector<RowId> live;
    live.reserve(rows.size());
    for (RowId r : rows) {
        if (ch.bank(0).counter(r) == ath)
            live.push_back(r);
    }
    ratchetTorrent(ch, live, moat);
    return resultOf(ch);
}

} // namespace moatsim::attacks
