#include "attacks/tsa.hh"

#include <algorithm>
#include <functional>
#include <vector>

#include "common/logging.hh"
#include "mitigation/null.hh"
#include "subchannel/subchannel.hh"

namespace moatsim::attacks
{

namespace
{

using subchannel::SubChannel;
using subchannel::SubChannelConfig;

SubChannelConfig
channelConfig(const PerfAttackConfig &config)
{
    SubChannelConfig sc;
    sc.timing = config.timing;
    sc.numBanks = config.numBanks;
    sc.aboLevel = config.aboLevel;
    sc.seed = config.seed;
    return sc;
}

/** Pool rows of a bank, spaced so victim windows never overlap. */
std::vector<RowId>
poolOf(const PerfAttackConfig &config, BankId bank)
{
    std::vector<RowId> rows(config.poolRows);
    const RowId base = 1024 + bank * 64; // away from the refresh pointer
    for (uint32_t i = 0; i < config.poolRows; ++i)
        rows[i] = base + i * 8;
    return rows;
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

/**
 * Run @p pattern against MOAT, then replay the same number of
 * activations as an ideal bank-parallel stream on a no-ALERT channel
 * to obtain the baseline rate.
 */
ThroughputAttackResult
measure(const PerfAttackConfig &config,
        const std::function<void(SubChannel &)> &pattern)
{
    SubChannel attacked(channelConfig(config),
                        mitigation::MoatMitigator(config.moat));
    pattern(attacked);

    SubChannel baseline(channelConfig(config), mitigation::NullMitigator{});
    const uint64_t total = attacked.stats().acts;
    const uint32_t k = baseline.numBanks();
    for (uint64_t i = 0; i < total; ++i) {
        const BankId b = static_cast<BankId>(i % k);
        const auto pool = poolOf(config, b);
        baseline.activate(b, pool[(i / k) % pool.size()]);
    }

    ThroughputAttackResult r;
    r.attackRate = actRate(attacked);
    r.baselineRate = actRate(baseline);
    r.relativeThroughput =
        r.baselineRate > 0 ? r.attackRate / r.baselineRate : 0.0;
    r.lossFraction = 1.0 - r.relativeThroughput;
    r.alerts = attacked.abo().alertCount();
    return r;
}

} // namespace

ThroughputAttackResult
runSingleBankKernel(const PerfAttackConfig &config)
{
    PerfAttackConfig cfg = config;
    cfg.numBanks = 1;
    return measure(cfg, [&](SubChannel &ch) {
        const auto pool = poolOf(cfg, 0);
        const uint64_t total = static_cast<uint64_t>(cfg.cycles) *
                               cfg.poolRows * (cfg.moat.ath + 1);
        for (uint64_t i = 0; i < total; ++i)
            ch.activate(0, pool[i % pool.size()]);
    });
}

ThroughputAttackResult
runSynchronizedMultiBank(const PerfAttackConfig &config)
{
    return measure(config, [&](SubChannel &ch) {
        std::vector<std::vector<RowId>> pools;
        for (BankId b = 0; b < ch.numBanks(); ++b)
            pools.push_back(poolOf(config, b));
        const uint64_t per_bank = static_cast<uint64_t>(config.cycles) *
                                  config.poolRows * (config.moat.ath + 1);
        for (uint64_t i = 0; i < per_bank; ++i) {
            for (BankId b = 0; b < ch.numBanks(); ++b)
                ch.activate(b, pools[b][i % config.poolRows]);
        }
    });
}

ThroughputAttackResult
runTsa(const PerfAttackConfig &config)
{
    return measure(config, [&](SubChannel &ch) {
        std::vector<std::vector<RowId>> pools;
        for (BankId b = 0; b < ch.numBanks(); ++b)
            pools.push_back(poolOf(config, b));
        const ActCount ath = config.moat.ath;

        for (uint32_t cycle = 0; cycle < config.cycles; ++cycle) {
            // Parallel priming (Figure 12: all banks run (ABCDE)^64
            // simultaneously): interleave banks so every bank primes
            // at its full tRC cadence. Rows mitigated by a foreign
            // ALERT's RFM in the previous torrent get topped up.
            bool all_primed = false;
            while (!all_primed) {
                all_primed = true;
                for (uint32_t i = 0; i < config.poolRows; ++i) {
                    for (BankId b = 0; b < ch.numBanks(); ++b) {
                        const RowId r = pools[b][i];
                        if (ch.bank(b).counter(r) < ath) {
                            ch.activate(b, r);
                            all_primed = false;
                        }
                    }
                }
            }
            // Staggered torrent: one bank at a time cycles its rows
            // over ATH until each has been mitigated by its ALERT;
            // the other banks issue nothing, so after their first
            // (sacrificed) tracker entry a foreign RFM finds nothing
            // to mitigate and the stall is pure waste. A row retires
            // when its hammer count drops (its RFM ran inside some
            // activation call).
            for (BankId b = 0; b < ch.numBanks(); ++b) {
                const size_t n = pools[b].size();
                std::vector<bool> done(n, false);
                std::vector<uint32_t> last(n);
                for (size_t i = 0; i < n; ++i)
                    last[i] = ch.security(b).hammerCount(pools[b][i]);
                bool any_live = true;
                uint32_t guard = 0;
                while (any_live && ++guard < 4096) {
                    any_live = false;
                    for (size_t i = 0; i < n; ++i) {
                        if (done[i])
                            continue;
                        ch.activate(b, pools[b][i]);
                        for (size_t j = 0; j < n; ++j) {
                            const uint32_t h =
                                ch.security(b).hammerCount(pools[b][j]);
                            if (h < last[j])
                                done[j] = true;
                            last[j] = h;
                        }
                        if (!done[i])
                            any_live = true;
                    }
                }
            }
        }
    });
}

} // namespace moatsim::attacks
