/**
 * @file
 * ALERT-based throughput attacks against MOAT (Section 7).
 *
 * These patterns do not break security; they abuse the fact that an
 * ALERT stalls the whole sub-channel to degrade throughput:
 *
 *  - Kernels (Figure 13): hammering one row, or a pool of rows, in one
 *    bank triggers an ALERT every ATH+1 activations per row (~10%
 *    throughput loss). Run on several banks in lock-step, every ALERT
 *    mitigates one row in every bank, so the synchronized attack loses
 *    no more than one bank does (Section 7.2).
 *  - Torrent-of-Staggered-ALERT (Figure 12): the banks prime their
 *    pools in parallel but fire their ALERTs one bank at a time, so no
 *    other bank has a mitigable row during any ALERT and every stall
 *    is wasted (24% loss at 4 banks, 52% at the 17-bank tFAW limit).
 *
 * Each run measures activations per second against the same number
 * of activations issued bank-parallel on an ALERT-free channel.
 */

#include <algorithm>
#include <vector>

#include "attacks/patterns.hh"
#include "mitigation/null.hh"

namespace moatsim::attacks
{

namespace
{

using subchannel::SubChannel;

/** Pattern repetitions measured per run. */
constexpr uint32_t kCycles = 20;

/** Spacing of a bank's pool rows, so victim windows never overlap. */
constexpr uint32_t kRowStride = 8;

/** First pool row, away from the refresh pointer. */
constexpr RowId kPoolBase = 1024;

/** Offset between neighbouring banks' pools. */
constexpr uint32_t kBankOffset = 64;

/** Every bank's pool of rows. */
using Pools = std::vector<std::vector<RowId>>;

/** The pool of every bank: the plan's pool_rows rows from row
 *  kPoolBase + kBankOffset * bank (the plan has made sure they fit). */
Pools
poolsOf(const AttackPlan &plan)
{
    const uint32_t rows = plan.knobs.poolRows;
    Pools pools(plan.knobs.banks, std::vector<RowId>(rows));
    for (BankId b = 0; b < plan.knobs.banks; ++b) {
        for (uint32_t i = 0; i < rows; ++i)
            pools[b][i] = kPoolBase + b * kBankOffset + i * kRowStride;
    }
    return pools;
}

/** ACT rate in activations per second over the channel's lifetime. */
double
actRate(const SubChannel &ch)
{
    if (ch.now() <= 0)
        return 0.0;
    return static_cast<double>(ch.stats().acts) /
           (toNs(ch.now()) * 1e-9);
}

/** A pattern body: drives the channel under attack over the banks'
 *  pools, knowing the design's ALERT threshold. */
using Pattern = void (*)(SubChannel &, const Pools &, ActCount ath);

/**
 * Run @p pattern against the design, then issue the same number of
 * activations round-robin over the banks' pools on an ALERT-free
 * channel for the baseline rate.
 */
AttackResult
measure(const AttackPlan &plan, const mitigation::MitigatorSpec &mitigator,
        Pattern pattern)
{
    SubChannel attacked = makeChannel(plan, mitigator.factory());
    const uint32_t k = attacked.numBanks();
    const Pools pools = poolsOf(plan);
    pattern(attacked, pools, mitigation::moatConfigOf(mitigator).ath);

    SubChannel baseline = makeChannel(plan, mitigation::NullMitigator{});
    const uint64_t total = attacked.stats().acts;
    for (uint64_t i = 0; i < total; ++i) {
        const auto &pool = pools[i % k];
        baseline.activate(static_cast<BankId>(i % k),
                          pool[(i / k) % pool.size()]);
    }

    AttackResult r = resultOf(attacked);
    const double attack_rate = actRate(attacked);
    const double baseline_rate = actRate(baseline);
    r.lossFraction =
        1.0 - (baseline_rate > 0 ? attack_rate / baseline_rate : 0.0);
    return r;
}

/** Every bank cycles its pool in lock-step, ATH + 1 ACTs per row per
 *  cycle. */
void
kernel(SubChannel &ch, const Pools &pools, ActCount ath)
{
    const size_t n = pools[0].size();
    const uint64_t per_bank =
        static_cast<uint64_t>(kCycles) * n * (ath + 1);
    for (uint64_t i = 0; i < per_bank; ++i) {
        for (BankId b = 0; b < ch.numBanks(); ++b)
            ch.activate(b, pools[b][i % n]);
    }
}

/** Parallel priming, then one bank at a time fires its ALERTs. */
void
torrent(SubChannel &ch, const Pools &pools, ActCount ath)
{
    for (uint32_t cycle = 0; cycle < kCycles; ++cycle) {
        // Parallel priming (Figure 12: all banks run (ABCDE)^64
        // simultaneously): interleave banks so every bank primes at
        // its full tRC cadence. Rows mitigated by a foreign ALERT's RFM
        // in the previous torrent get topped up.
        bool all_primed = false;
        while (!all_primed) {
            all_primed = true;
            for (size_t i = 0; i < pools[0].size(); ++i) {
                for (BankId b = 0; b < ch.numBanks(); ++b) {
                    const RowId r = pools[b][i];
                    if (ch.bank(b).counter(r) < ath) {
                        ch.activate(b, r);
                        all_primed = false;
                    }
                }
            }
        }
        // Staggered torrent: one bank at a time cycles its rows over
        // ATH until each has been mitigated by its ALERT; the other
        // banks issue nothing, so after their first (sacrificed)
        // tracker entry a foreign RFM finds nothing to mitigate and the
        // stall is pure waste. A row retires when its hammer count
        // drops (its RFM ran inside some activation call).
        for (BankId b = 0; b < ch.numBanks(); ++b) {
            const size_t n = pools[b].size();
            std::vector<bool> done(n, false);
            std::vector<uint32_t> last(n);
            for (size_t i = 0; i < n; ++i)
                last[i] = ch.security(b).hammerCount(pools[b][i]);
            // Only a row's own ACT raises its hammer count, so a drop
            // since the row's last visit is all it takes to see it
            // retired: one look per row and ACT, not one per pool row.
            const auto retired = [&](size_t i) {
                const uint32_t h = ch.security(b).hammerCount(pools[b][i]);
                const bool dropped = h < last[i];
                last[i] = h;
                return dropped;
            };
            bool any_live = true;
            uint32_t guard = 0;
            while (any_live && ++guard < 4096) {
                any_live = false;
                for (size_t i = 0; i < n; ++i) {
                    if (done[i] || (done[i] = retired(i)))
                        continue;
                    ch.activate(b, pools[b][i]);
                    done[i] = retired(i);
                    if (!done[i])
                        any_live = true;
                }
            }
        }
    }
}

} // namespace

void
planThroughput(AttackPlan &plan, const mitigation::MitigatorSpec &mitigator)
{
    AttackConfig &k = plan.knobs;
    const dram::TimingParams &t = k.timing;
    if (k.poolRows == 0)
        k.poolRows = 5;
    const ActCount ath = mitigation::moatConfigOf(mitigator).ath;
    // kCycles passes of every bank's pool past ATH, under attack and
    // again on the ALERT-free baseline.
    plan.acts = 2ULL * kCycles * k.banks * k.poolRows * (uint64_t{ath} + 1);
    refuseAbove(plan, "banks", k.banks, t.banksPerSubchannel, "a sub-channel",
                "banks");
    // The last bank's last row, kPoolBase + kBankOffset * (banks - 1)
    // + kRowStride * (rows - 1), must lie inside the bank.
    const uint64_t first = kPoolBase + uint64_t{kBankOffset} * (k.banks - 1);
    const uint64_t fit =
        first < t.rowsPerBank ? (t.rowsPerBank - 1 - first) / kRowStride + 1
                              : 0;
    // And raising every bank's pool to ATH must take at most half the
    // refresh window, at one ACT per tRC in each bank and no faster
    // than tRRD and tFAW let the sub-channel go: past that the refresh
    // sweep resets the rows about as fast as the pattern raises them,
    // so a kernel never ALERTs and the torrent's priming never ends.
    const Time per_act = std::max({t.tRC, Time{k.banks} * t.tRRD,
                                   Time{k.banks} * t.tFAW / 4});
    const uint64_t primable = t.availableWindow() / 2 /
                              (per_act * std::max<Time>(ath, 1));
    refuseAbove(plan, "pool_rows", k.poolRows, std::min(fit, primable),
                "a pool", "rows");
}

AttackResult
runKernel(const AttackPlan &plan, const mitigation::MitigatorSpec &mitigator)
{
    return measure(plan, mitigator, kernel);
}

AttackResult
runTsa(const AttackPlan &plan, const mitigation::MitigatorSpec &mitigator)
{
    return measure(plan, mitigator, torrent);
}

} // namespace moatsim::attacks
