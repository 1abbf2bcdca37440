#include "sim/coattack.hh"

#include <algorithm>
#include <utility>

#include "common/fault.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "sim/perf.hh"
#include "sim/result_io.hh"

namespace moatsim::sim
{

namespace
{

/** The channel template of a co-attack System. The security oracle
 *  is on only when @p oracle (the attacked run reads the attacker's
 *  exposure; the attack-free run reads nothing). */
subchannel::SubChannelConfig
coChannelConfig(const workload::TraceGenConfig &tg, abo::Level level,
                uint64_t seed, bool oracle)
{
    subchannel::SubChannelConfig sc;
    sc.timing = tg.timing;
    sc.numBanks = tg.banksSimulated;
    sc.aboLevel = level;
    sc.securityEnabled = oracle;
    sc.seed = seed;
    return sc;
}

} // namespace

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
    // oracle and read back from this one source.
    const SystemConfig::OracleSite site{attack.subchannel, attack.bank};
    const uint32_t subchannels = std::max(1u, config.subchannels);
    const uint32_t slots = std::max(1u, config.channels) *
                           std::max(1u, config.ranks) * subchannels;
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
    // benign slab.
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

    // The oracle never changes a result, so it is built only where it
    // is read: the attacker's bank of the attacked run.
    SystemConfig sys;
    sys.channel = coChannelConfig(
        config, level,
        coAttackCellSeed(config, spec, mitigator, level, attack),
        attacker_max_hammer != nullptr);
    sys.subchannels = subchannels;
    sys.channels = std::max(1u, config.channels);
    sys.ranks = std::max(1u, config.ranks);
    sys.oracleOnly = site;
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

CoAttackEngine::CoAttackEngine(const SweepConfig &config)
    : config_(config),
      jobs_(config.jobs > 0 ? config.jobs : ThreadPool::hardwareThreads())
{
    if (!config_.traceStore)
        config_.traceStore = std::make_shared<workload::TraceStore>();
    if (!config_.resultStore)
        config_.resultStore = std::make_shared<ResultStore>();
}

std::shared_ptr<const CoAttackEngine::Baseline>
CoAttackEngine::baseline(const CoAttackCell &cell)
{
    uint64_t key = hashCombine(perfConfigKey(config_.tracegen, config_.core),
                               stableHash64(cell.workload.name));
    key = hashCombine(key, stableHash64(cell.mitigator.describe()));
    key = hashCombine(key,
                      static_cast<uint64_t>(abo::levelValue(cell.level)));
    key = hashCombine(key, stableHash64("coattack-baseline"));

    const auto replay = [&] {
        CoAttackScenario none;
        none.pattern = "none";
        const auto benign =
            config_.traceStore->get(cell.workload, config_.tracegen);
        const SystemResult res = runCoSystem(
            config_.tracegen, config_.core, cell.workload, cell.mitigator,
            cell.level, resolveAttack(none, config_.tracegen), nullptr,
            benign.get());
        auto base = std::make_shared<Baseline>();
        base->coreFinish = res.coreFinish;
        base->totalActs = res.totalActs;
        base->alerts = res.alerts;
        base->refs = res.refs;
        for (const auto &u : res.perSubchannel)
            base->rfms += u.rfms;
        return std::shared_ptr<const Baseline>(std::move(base));
    };
    return baselines_.get(key, replay).value;
}

CoAttackResult
CoAttackEngine::runCell(const CoAttackCell &cell)
{
    // Store-first, exactly like SweepEngine::runCell: a warm hit skips
    // the attack-free baseline and the co-run entirely, and both paths
    // round-trip through the byte-stable JSONL payload.
    if (!config_.resultStore->enabled())
        return computeCell(cell);
    const uint64_t key =
        coAttackCellKey(config_.tracegen, config_.core, cell);
    const auto payload = config_.resultStore->getOrCompute(
        key, [&] { return toJsonLine(computeCell(cell)); });
    return coAttackResultOfJsonLine(*payload);
}

CoAttackResult
CoAttackEngine::computeCell(const CoAttackCell &cell)
{
    // Same chaos boundary as SweepEngine::computeCell: upstream of the
    // result store, so injected failures are never cached.
    fault::failPoint("sweep.compute");
    const auto base = baseline(cell);

    CoAttackResult out;
    out.workload = cell.workload.name;
    out.mitigator = cell.mitigator.describe();
    out.device = config_.tracegen.device;
    out.pattern = cell.attack.pattern;
    out.aboLevel = abo::levelValue(cell.level);
    out.victimActs = base->totalActs;
    out.attackFreeAlerts = base->alerts;
    out.attackFreeRfms = base->rfms;
    if (base->refs > 0) {
        out.attackFreeAlertsPerRefi =
            static_cast<double>(base->alerts) /
            static_cast<double>(base->refs);
    }

    if (cell.attack.pattern == "none") {
        // The attack-free cell *is* the baseline.
        out.alerts = base->alerts;
        out.rfms = base->rfms;
        out.refs = base->refs;
        out.alertsPerRefi = out.attackFreeAlertsPerRefi;
        return out;
    }

    const workload::AttackTraceConfig attack =
        resolveAttack(cell.attack, config_.tracegen);
    uint32_t max_hammer = 0;
    const auto benign =
        config_.traceStore->get(cell.workload, config_.tracegen);
    const SystemResult co =
        runCoSystem(config_.tracegen, config_.core, cell.workload,
                    cell.mitigator, cell.level, attack, &max_hammer,
                    benign.get());

    out.attackerMaxHammer = max_hammer;
    out.attackerActs = co.totalActs - base->totalActs;
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
        std::min(base->coreFinish.size(), co.coreFinish.size());
    double slow_sum = 0.0;
    double norm_sum = 0.0;
    size_t n = 0;
    for (size_t c = 0; c < victims; ++c) {
        if (base->coreFinish[c] <= 0 || co.coreFinish[c] <= 0)
            continue;
        slow_sum += static_cast<double>(co.coreFinish[c]) /
                    static_cast<double>(base->coreFinish[c]);
        norm_sum += static_cast<double>(base->coreFinish[c]) /
                    static_cast<double>(co.coreFinish[c]);
        ++n;
    }
    if (n > 0) {
        out.victimSlowdown = slow_sum / static_cast<double>(n);
        out.victimNormPerf = norm_sum / static_cast<double>(n);
    }
    return out;
}

std::vector<CoAttackResult>
CoAttackEngine::run(const std::vector<CoAttackCell> &cells)
{
    return run(cells, nullptr);
}

std::vector<CoAttackResult>
CoAttackEngine::run(const std::vector<CoAttackCell> &cells,
                    const CellSink &sink)
{
    std::vector<CoAttackResult> results(cells.size());
    // A failed cell does not stop the others (their results still land
    // in the store); parallelFor rethrows the lowest failed index.
    parallelFor(jobs_, cells.size(), [&](size_t i) {
        results[i] = runCell(cells[i]);
        if (sink)
            sink(i, results[i]);
    });
    return results;
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
