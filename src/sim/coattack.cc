#include "sim/coattack.hh"

#include <algorithm>
#include <memory>
#include <optional>

#include "common/hash.hh"
#include "common/logging.hh"
#include "sim/perf.hh"

namespace moatsim::sim
{

uint64_t
coAttackCellSeed(const workload::TraceGenConfig &config,
                 const workload::WorkloadSpec &spec,
                 const mitigation::MitigatorSpec &mitigator,
                 abo::Level level,
                 const workload::AttackTraceConfig & /*attack*/)
{
    // Deliberately independent of the attack: the attacked run and its
    // attack-free baseline share one system state (seeding, counter
    // init) and differ only in the command stream, exactly like a real
    // co-tenant attack.
    return hashCombine(cellSeed(config, spec, mitigator, level),
                       stableHash64("coattack"));
}

uint64_t
coAttackCellKey(const workload::TraceGenConfig &config,
                const CoreModel &core, const CoAttackCell &cell)
{
    // Unlike the seed, the key must separate results by attack shape:
    // every scenario field shapes the replayed command stream, so
    // every field is folded in.
    uint64_t h = perfCellKey(config, core, cell.workload, cell.mitigator,
                             cell.level);
    h = hashCombine(h, stableHash64(cell.attack.pattern));
    h = hashCombine(h, static_cast<uint64_t>(cell.attack.poolRows));
    h = hashCombine(h, cell.attack.budget);
    h = hashCombine(h, static_cast<uint64_t>(cell.attack.subchannel));
    h = hashCombine(h, static_cast<uint64_t>(cell.attack.bank));
    h = hashCombine(h, cell.attack.seed);
    return hashCombine(h, stableHash64("coattack-cell"));
}

workload::AttackTraceConfig
resolveAttack(const CoAttackScenario &scenario,
              const workload::TraceGenConfig &config)
{
    workload::AttackTraceConfig at;
    at.timing = config.timing;
    at.pattern = scenario.pattern;
    at.subchannel = scenario.subchannel;
    at.bank = static_cast<BankId>(scenario.bank);
    at.poolRows = scenario.poolRows;
    at.budget = scenario.budget;
    at.window = static_cast<Time>(
        static_cast<double>(config.timing.tREFW) * config.windowFraction);
    at.seed = scenario.seed;
    return at;
}

SystemResult
runCoSystem(const workload::TraceGenConfig &config, const CoreModel &core,
            const workload::WorkloadSpec &spec,
            const mitigation::MitigatorSpec &mitigator, abo::Level level,
            const workload::AttackTraceConfig &attack,
            uint32_t *attacker_max_hammer, const workload::TraceSet *benign)
{
    // The attacker's (slot, bank): range-checked, tracked by the
    // oracle and read back from this one source. The oracle never
    // changes a result, so it is built only where it is read: the
    // attacker's bank of the attacked run.
    const SystemConfig::OracleSite site{attack.subchannel, attack.bank};
    const SystemConfig sys = systemConfigFor(
        config, level,
        coAttackCellSeed(config, spec, mitigator, level, attack),
        attacker_max_hammer != nullptr
            ? std::optional<SystemConfig::OracleSite>(site)
            : std::nullopt);
    const uint32_t slots = sys.channels * sys.ranks * sys.subchannels;
    if (site.slot >= slots)
        fatal("runCoSystem: attack sub-channel slot " +
              std::to_string(site.slot) + " out of range (" +
              std::to_string(slots) + " simulated)");
    if (site.bank >= config.banksSimulated)
        fatal("runCoSystem: attack bank " + std::to_string(site.bank) +
              " out of range (" + std::to_string(config.banksSimulated) +
              " simulated)");

    // Benign traffic: the shared (store-cached) set when provided, a
    // locally generated one otherwise. The attacker core rides along
    // as one more borrowed view, so appending it never copies the
    // benign events.
    std::unique_ptr<const workload::TraceSet> local;
    if (benign == nullptr) {
        local = std::make_unique<const workload::TraceSet>(
            workload::generateTraces(spec, config));
        benign = local.get();
    }
    const workload::AttackTrace at = workload::generateAttackTrace(attack);
    std::vector<workload::CoreTraceView> views = benign->views();
    if (!at.trace.events.empty())
        views.push_back(workload::viewOf(at.trace));

    System system(sys, mitigator.factory());
    system.setPostponeRefresh(
        workload::attackPostponesRefresh(attack.pattern));

    const SystemResult res = runSystem(system, views, core);

    if (attacker_max_hammer != nullptr) {
        uint32_t peak = 0;
        const auto &sec = system.subchannel(site.slot).security(site.bank);
        for (const RowId row : at.rows)
            peak = std::max(peak, sec.peakHammer(row));
        *attacker_max_hammer = peak;
    }
    return res;
}

CoAttackBaseline
runCoAttackBaseline(const workload::TraceGenConfig &config,
                    const CoreModel &core, const CoAttackCell &cell,
                    const workload::TraceSet &benign)
{
    CoAttackScenario none;
    none.pattern = "none";
    const SystemResult res =
        runCoSystem(config, core, cell.workload, cell.mitigator, cell.level,
                    resolveAttack(none, config), nullptr, &benign);
    CoAttackBaseline base;
    base.coreFinish = res.coreFinish;
    base.totalActs = res.totalActs;
    base.alerts = res.alerts;
    base.refs = res.refs;
    for (const auto &u : res.perSubchannel)
        base.rfms += u.rfms;
    return base;
}

CoAttackResult
runCoAttackCell(const workload::TraceGenConfig &config, const CoreModel &core,
                const CoAttackCell &cell, const CoAttackBaseline &baseline,
                const workload::TraceSet &benign)
{
    CoAttackResult out;
    out.workload = cell.workload.name;
    out.mitigator = cell.mitigator.describe();
    out.device = config.device;
    out.pattern = cell.attack.pattern;
    out.aboLevel = abo::levelValue(cell.level);
    out.victimActs = baseline.totalActs;
    out.attackFreeAlerts = baseline.alerts;
    out.attackFreeRfms = baseline.rfms;
    if (baseline.refs > 0) {
        out.attackFreeAlertsPerRefi =
            static_cast<double>(baseline.alerts) /
            static_cast<double>(baseline.refs);
    }

    if (cell.attack.pattern == "none") {
        // The attack-free cell *is* the baseline.
        out.alerts = baseline.alerts;
        out.rfms = baseline.rfms;
        out.refs = baseline.refs;
        out.alertsPerRefi = out.attackFreeAlertsPerRefi;
        return out;
    }

    const workload::AttackTraceConfig attack =
        resolveAttack(cell.attack, config);
    uint32_t max_hammer = 0;
    const SystemResult co =
        runCoSystem(config, core, cell.workload, cell.mitigator,
                    cell.level, attack, &max_hammer, &benign);

    out.attackerMaxHammer = max_hammer;
    out.attackerActs = co.totalActs - baseline.totalActs;
    out.alerts = co.alerts;
    out.refs = co.refs;
    for (const auto &u : co.perSubchannel)
        out.rfms += u.rfms;
    if (co.refs > 0) {
        out.alertsPerRefi = static_cast<double>(co.alerts) /
                            static_cast<double>(co.refs);
    }

    // Victim classes occupy [0, numCores); the attacker is last.
    const size_t victims =
        std::min(baseline.coreFinish.size(), co.coreFinish.size());
    double slow_sum = 0.0;
    double norm_sum = 0.0;
    size_t n = 0;
    for (size_t c = 0; c < victims; ++c) {
        if (baseline.coreFinish[c] <= 0 || co.coreFinish[c] <= 0)
            continue;
        slow_sum += static_cast<double>(co.coreFinish[c]) /
                    static_cast<double>(baseline.coreFinish[c]);
        norm_sum += static_cast<double>(baseline.coreFinish[c]) /
                    static_cast<double>(co.coreFinish[c]);
        ++n;
    }
    if (n > 0) {
        out.victimSlowdown = slow_sum / static_cast<double>(n);
        out.victimNormPerf = norm_sum / static_cast<double>(n);
    }
    return out;
}

std::vector<CoAttackCell>
crossCoAttackCells(const std::vector<workload::WorkloadSpec> &workloads,
                   const std::vector<mitigation::MitigatorSpec> &mitigators,
                   abo::Level level, const CoAttackScenario &attack)
{
    std::vector<CoAttackCell> cells;
    cells.reserve(workloads.size() * mitigators.size());
    for (const auto &m : mitigators) {
        for (const auto &w : workloads)
            cells.push_back({w, m, level, attack});
    }
    return cells;
}

} // namespace moatsim::sim
