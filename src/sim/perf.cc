#include "sim/perf.hh"

#include <algorithm>

#include "common/hash.hh"
#include "mitigation/null.hh"

namespace moatsim::sim
{

namespace
{

/** Seed of the no-ALERT baseline run of @p spec (mitigator-free key). */
uint64_t
baselineSeed(const workload::TraceGenConfig &config, const CoreModel &core,
             const workload::WorkloadSpec &spec)
{
    uint64_t h = hashCombine(perfConfigKey(config, core),
                             stableHash64(spec.name));
    return hashCombine(h, stableHash64("baseline"));
}

uint64_t
baselineKey(const workload::TraceGenConfig &config, const CoreModel &core,
            const workload::WorkloadSpec &spec)
{
    return hashCombine(perfConfigKey(config, core), stableHash64(spec.name));
}

/** What a cell's replay leaves behind once its System is gone. */
struct CellReplay
{
    SystemResult res;
    mitigation::MitigationStats mit;
    uint32_t banks = 0;
    uint32_t subchannels = 0;
};

/** Replay one cell; the System (and its counter slab) dies on return. */
CellReplay
replayCell(const workload::TraceGenConfig &config, const CoreModel &core,
           const workload::WorkloadSpec &spec,
           const mitigation::MitigatorSpec &mitigator, abo::Level level,
           const workload::TraceSet &traces)
{
    System sys(systemConfigFor(config, level,
                               cellSeed(config, spec, mitigator, level)),
               mitigator.factory());
    CellReplay out;
    out.res = runSystem(sys, traces.views(), core);
    out.mit = sys.mitigationStats();
    out.banks = sys.totalBanks();
    out.subchannels = sys.numSubchannels();
    return out;
}

/** The paper's metrics of @p run against @p baseline's finish times. */
PerfResult
perfResultOf(const workload::TraceGenConfig &config,
             const workload::WorkloadSpec &spec,
             const mitigation::MitigatorSpec &mitigator, abo::Level level,
             const CellReplay &run, const std::vector<Time> &baseline)
{
    const SystemResult &res = run.res;
    PerfResult out;
    out.workload = spec.name;
    out.mitigator = mitigator.describe();
    out.device = config.device;
    out.aboLevel = abo::levelValue(level);
    out.alerts = res.alerts;
    out.acts = res.totalActs;

    // Weighted speedup: mean per-core performance relative to baseline.
    double sum = 0.0;
    size_t n = 0;
    for (size_t c = 0; c < res.coreFinish.size() && c < baseline.size();
         ++c) {
        if (res.coreFinish[c] > 0) {
            sum += static_cast<double>(baseline[c]) /
                   static_cast<double>(res.coreFinish[c]);
            ++n;
        }
    }
    out.normPerf = n > 0 ? sum / static_cast<double>(n) : 1.0;

    // Per-sub-channel breakdown plus the paper's per-sub-channel ALERT
    // rate (mean over the simulated sub-channels).
    out.perSubchannel.resize(res.perSubchannel.size());
    const double banks_per_sc = static_cast<double>(
        run.subchannels > 0 ? run.banks / run.subchannels : 0);
    double refi_sum = 0.0;
    size_t refi_n = 0;
    for (size_t i = 0; i < res.perSubchannel.size(); ++i) {
        const SubChannelUsage &u = res.perSubchannel[i];
        SubChannelPerf &p = out.perSubchannel[i];
        p.acts = u.acts;
        p.alerts = u.alerts;
        if (u.refs > 0) {
            p.alertsPerRefi = static_cast<double>(u.alerts) /
                              static_cast<double>(u.refs);
            refi_sum += p.alertsPerRefi;
            ++refi_n;
        }
        if (banks_per_sc > 0) {
            p.mitigationsPerBankPerRefw =
                static_cast<double>(u.mitigation.totalMitigations()) /
                banks_per_sc / config.windowFraction;
        }
    }
    if (refi_n > 0)
        out.alertsPerRefi = refi_sum / static_cast<double>(refi_n);

    const double banks = static_cast<double>(run.banks);
    // Scale the generated fraction of a window back to a full tREFW.
    out.mitigationsPerBankPerRefw =
        static_cast<double>(run.mit.totalMitigations()) / banks /
        config.windowFraction;
    if (res.totalActs > 0) {
        out.actOverheadFraction =
            static_cast<double>(run.mit.victimRefreshes +
                                run.mit.counterResets) /
            static_cast<double>(res.totalActs);
    }
    return out;
}

} // namespace

SystemConfig
systemConfigFor(const workload::TraceGenConfig &config, abo::Level level,
                uint64_t seed,
                std::optional<SystemConfig::OracleSite> oracle)
{
    SystemConfig sys;
    sys.channel.timing = config.timing;
    sys.channel.numBanks = config.banksSimulated;
    sys.channel.aboLevel = level;
    sys.channel.securityEnabled = oracle.has_value();
    sys.channel.seed = seed;
    sys.subchannels = std::max(1u, config.subchannels);
    sys.channels = std::max(1u, config.channels);
    sys.ranks = std::max(1u, config.ranks);
    sys.oracleOnly = oracle;
    return sys;
}

uint64_t
perfConfigKey(const workload::TraceGenConfig &config, const CoreModel &core)
{
    return hashCombine(workload::configKey(config),
                       static_cast<uint64_t>(core.mlp));
}

uint64_t
cellSeed(const workload::TraceGenConfig &config,
         const workload::WorkloadSpec &spec,
         const mitigation::MitigatorSpec &mitigator, abo::Level level)
{
    uint64_t h =
        hashCombine(workload::configKey(config), stableHash64(spec.name));
    h = hashCombine(h, stableHash64(mitigator.describe()));
    return hashCombine(h, static_cast<uint64_t>(abo::levelValue(level)));
}

uint64_t
perfCellKey(const workload::TraceGenConfig &config, const CoreModel &core,
            const workload::WorkloadSpec &spec,
            const mitigation::MitigatorSpec &mitigator, abo::Level level)
{
    // perfConfigKey covers the generator (device, seed, and timing
    // included) plus the core model; the rest of the chain names the
    // cell within that configuration. A domain tag keeps perf keys
    // disjoint from every other key family sharing a store.
    uint64_t h =
        hashCombine(perfConfigKey(config, core), stableHash64(spec.name));
    h = hashCombine(h, stableHash64(mitigator.describe()));
    h = hashCombine(h, static_cast<uint64_t>(abo::levelValue(level)));
    return hashCombine(h, stableHash64("perf-cell"));
}

std::shared_ptr<const BaselineCache::Finish>
BaselineCache::get(const workload::TraceGenConfig &config,
                   const CoreModel &core, const workload::WorkloadSpec &spec,
                   const workload::TraceSet &traces)
{
    const auto replay = [&] {
        System sys(
            systemConfigFor(config, abo::Level::L1,
                            baselineSeed(config, core, spec)),
            mitigation::NullMitigator{});
        return std::make_shared<const Finish>(
            runSystem(sys, traces.views(), core).coreFinish);
    };
    return flight_.get(baselineKey(config, core, spec), replay).value;
}

void
BaselineCache::offer(const workload::TraceGenConfig &config,
                     const CoreModel &core,
                     const workload::WorkloadSpec &spec, const Finish &finish)
{
    flight_.seed(baselineKey(config, core, spec),
                 std::make_shared<const Finish>(finish));
}

std::size_t
BaselineCache::size() const
{
    return flight_.stats().entries;
}

BaselineCache::Stats
BaselineCache::stats() const
{
    const auto s = flight_.stats();
    return {s.misses, s.seeded};
}

PerfResult
runPerfCell(const workload::TraceGenConfig &config, const CoreModel &core,
            const workload::WorkloadSpec &spec,
            const mitigation::MitigatorSpec &mitigator, abo::Level level,
            const workload::TraceSet &traces,
            const std::vector<Time> &baseline)
{
    return perfResultOf(
        config, spec, mitigator, level,
        replayCell(config, core, spec, mitigator, level, traces), baseline);
}

PerfResult
runPerfCell(const workload::TraceGenConfig &config, const CoreModel &core,
            const workload::WorkloadSpec &spec,
            const mitigation::MitigatorSpec &mitigator, abo::Level level,
            const workload::TraceSet &traces, BaselineCache &baselines)
{
    const CellReplay run =
        replayCell(config, core, spec, mitigator, level, traces);
    // Only an ALERT's RFM block delays an ACT beyond REF, so an
    // ALERT-free replay finished every core exactly when the null
    // baseline does (tests/test_determinism.cc checks this invariant).
    if (run.res.alerts == 0) {
        baselines.offer(config, core, spec, run.res.coreFinish);
        return perfResultOf(config, spec, mitigator, level, run,
                            run.res.coreFinish);
    }
    return perfResultOf(config, spec, mitigator, level, run,
                        *baselines.get(config, core, spec, traces));
}

double
meanNormPerf(const std::vector<PerfResult> &results)
{
    if (results.empty())
        return 1.0;
    double s = 0.0;
    for (const auto &r : results)
        s += r.normPerf;
    return s / static_cast<double>(results.size());
}

double
meanAlertsPerRefi(const std::vector<PerfResult> &results)
{
    if (results.empty())
        return 0.0;
    double s = 0.0;
    for (const auto &r : results)
        s += r.alertsPerRefi;
    return s / static_cast<double>(results.size());
}

double
meanMitigations(const std::vector<PerfResult> &results)
{
    if (results.empty())
        return 0.0;
    double s = 0.0;
    for (const auto &r : results)
        s += r.mitigationsPerBankPerRefw;
    return s / static_cast<double>(results.size());
}

} // namespace moatsim::sim
