#include "attacks/ratchet.hh"

#include <algorithm>
#include <variant>
#include <vector>

#include "analysis/ratchet_model.hh"
#include "common/logging.hh"
#include "subchannel/subchannel.hh"

namespace moatsim::attacks
{

namespace
{

using subchannel::SubChannel;
using subchannel::SubChannelConfig;

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
runRatchet(const RatchetConfig &config)
{
    const dram::TimingParams &t = config.timing;
    const int level = abo::levelValue(config.aboLevel);

    // Derive the Appendix-A optimal pool size, capped to the bank.
    const auto bound = analysis::ratchetBound(t, config.moat.ath, level);
    const uint32_t stride = 2 * t.blastRadius + 2;
    const uint32_t max_fit = t.rowsPerBank / stride - 4;
    uint32_t pool = config.poolRows != 0
                        ? config.poolRows
                        : static_cast<uint32_t>(std::min<uint64_t>(
                              bound.maxPoolRows, max_fit));
    if (pool == 0)
        fatal("runRatchet: empty pool");
    pool = std::min(pool, max_fit);

    SubChannelConfig sc;
    sc.timing = t;
    sc.numBanks = 1;
    sc.aboLevel = config.aboLevel;
    sc.refreshResetsRows = false; // attacker dodges the refresh sweep
    SubChannel ch(sc, mitigation::MoatMitigator(config.moat));
    const auto &moat = std::get<mitigation::MoatMitigator>(ch.mitigator(0));

    std::vector<RowId> rows(pool);
    for (uint32_t i = 0; i < pool; ++i)
        rows[i] = i * stride;

    // Phase 1: prime every row to exactly ATH (one below the ALERT
    // trigger). Proactive mitigation keeps resetting some rows, so
    // sweep again a few times to top them up.
    for (uint32_t sweep = 0; sweep <= config.topUpSweeps; ++sweep) {
        bool all_primed = true;
        for (RowId r : rows) {
            ActCount c = ch.bank(0).counter(r);
            if (sweep > 0 && c == config.moat.ath)
                continue;
            all_primed = false;
            while (c < config.moat.ath) {
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
        if (ch.bank(0).counter(r) == config.moat.ath)
            live.push_back(r);
    }
    ratchetTorrent(ch, live, moat);

    AttackResult res;
    res.maxHammer = ch.security(0).maxHammer();
    res.totalActs = ch.stats().acts;
    res.alerts = ch.abo().alertCount();
    res.duration = ch.now();
    return res;
}

AttackResult
runRatchetMicroExample(const dram::TimingParams &timing, uint32_t ath)
{
    // Figure 9: four rows, ABO level 4 (7 ACTs per ALERT window) with a
    // single-entry MOAT that mitigates one row per ALERT.
    RatchetConfig config;
    config.timing = timing;
    config.moat.ath = ath;
    config.moat.eth = ath / 2;
    config.moat.trackerEntries = 1;
    config.aboLevel = abo::Level::L4;
    config.poolRows = 4;
    config.topUpSweeps = 1;
    return runRatchet(config);
}

} // namespace moatsim::attacks
