#include "pipeline.hh"

#include <algorithm>

#include "common/hash.hh"
#include "sim/result_io.hh"
#include "sim/system.hh"
#include "workload/attack_trace.hh"
#include "workload/trace_store.hh"
#include "workload/tracegen.hh"

namespace moatbench
{

using namespace moatsim;

TracedPipeline::TracedPipeline(const workload::TraceGenConfig &tracegen,
                               Counters &counters)
    : tracegen_(tracegen), counters_(counters)
{
    sim::ResultStore::Config config;
    config.enabled = true;
    const auto t0 = Clock::now();
    store_ = std::make_unique<sim::ResultStore>(config);
    store_load_ms_ = msBetween(t0, Clock::now());
}

std::shared_ptr<const workload::TraceSet>
TracedPipeline::traces(const workload::WorkloadSpec &spec, SpanBuf &buf)
{
    bool computed = false;
    auto set = traces_.get(
        workload::TraceStore::key(spec, tracegen_),
        [&] {
            std::vector<workload::CoreTrace> cores;
            {
                ScopedSpan span(buf, "tracegen");
                cores = workload::generateTraces(spec, tracegen_);
            }
            uint64_t events = 0;
            for (const auto &c : cores)
                events += c.events.size();
            counters_.tracegenCalls += 1;
            counters_.tracegenEvents += events;
            ScopedSpan span(buf, "traceset.flatten");
            return std::make_shared<const workload::TraceSet>(
                std::move(cores));
        },
        buf, "trace_store.wait", &computed);
    (computed ? counters_.traceMisses : counters_.traceHits) += 1;
    return set;
}

std::shared_ptr<const sim::BaselineCache::Finish>
TracedPipeline::perfBaseline(const workload::WorkloadSpec &spec,
                             const workload::TraceSet &traces, SpanBuf &buf)
{
    bool computed = false;
    return baselines_.get(
        stableHash64(spec.name),
        [&] {
            ScopedSpan span(buf, "baseline");
            counters_.baselineComputes += 1;
            return baseline_cache_.get(tracegen_, core_, spec, traces);
        },
        buf, "baseline.wait", &computed);
}

sim::PerfResult
TracedPipeline::perfCell(const sim::SweepCell &cell, SpanBuf &buf)
{
    const uint64_t key = sim::perfCellKey(tracegen_, core_, cell.workload,
                                          cell.mitigator, cell.level);
    std::shared_ptr<const std::string> payload;
    {
        ScopedSpan span(buf, "result_store");
        payload = store_->getOrCompute(key, [&] {
            const auto set = traces(cell.workload, buf);
            const auto base = perfBaseline(cell.workload, *set, buf);
            sim::PerfResult r;
            {
                ScopedSpan replay(buf, "replay");
                r = sim::runPerfCell(tracegen_, core_, cell.workload,
                                     cell.mitigator, cell.level, *set,
                                     *base);
            }
            counters_.replayActs += r.acts;
            counters_.replayAlerts += r.alerts;
            // Perf results carry no RFM count; ABO issues exactly
            // level-many RFMs per ALERT (abo::Abo::rfmsPerAlert).
            counters_.replayRfms +=
                r.alerts * static_cast<uint64_t>(abo::levelValue(cell.level));
            ScopedSpan io(buf, "result_io");
            std::string line = sim::toJsonLine(r);
            counters_.resultIoBytes += line.size();
            return line;
        });
    }
    ScopedSpan io(buf, "result_io");
    counters_.resultIoBytes += payload->size();
    return sim::perfResultOfJsonLine(*payload);
}

std::shared_ptr<const TracedPipeline::CoBaseline>
TracedPipeline::coBaseline(const sim::CoAttackCell &cell, SpanBuf &buf)
{
    uint64_t key = stableHash64(cell.workload.name);
    key = hashCombine(key, stableHash64(cell.mitigator.describe()));
    key = hashCombine(key,
                      static_cast<uint64_t>(abo::levelValue(cell.level)));
    bool computed = false;
    return co_baselines_.get(
        key,
        [&] {
            const auto benign = traces(cell.workload, buf);
            ScopedSpan span(buf, "coattack.baseline");
            counters_.coBaselineComputes += 1;
            sim::CoAttackScenario none;
            none.pattern = "none";
            const sim::SystemResult res = sim::runCoSystem(
                tracegen_, core_, cell.workload, cell.mitigator, cell.level,
                sim::resolveAttack(none, tracegen_), nullptr, benign.get());
            auto base = std::make_shared<CoBaseline>();
            base->coreFinish = res.coreFinish;
            base->totalActs = res.totalActs;
            base->alerts = res.alerts;
            base->refs = res.refs;
            for (const auto &u : res.perSubchannel)
                base->rfms += u.rfms;
            return std::shared_ptr<const CoBaseline>(std::move(base));
        },
        buf, "coattack.baseline_wait", &computed);
}

std::string
TracedPipeline::computeCoAttack(const sim::CoAttackCell &cell, SpanBuf &buf)
{
    // Mirrors CoAttackEngine::computeCell; runCoSystem is split at the
    // attack-trace synthesis so that layer gets its own span.
    const auto base = coBaseline(cell, buf);

    sim::CoAttackResult out;
    out.workload = cell.workload.name;
    out.mitigator = cell.mitigator.describe();
    out.device = tracegen_.device;
    out.pattern = cell.attack.pattern;
    out.aboLevel = abo::levelValue(cell.level);
    out.victimActs = base->totalActs;
    out.attackFreeAlerts = base->alerts;
    out.attackFreeRfms = base->rfms;
    if (base->refs > 0) {
        out.attackFreeAlertsPerRefi = static_cast<double>(base->alerts) /
                                      static_cast<double>(base->refs);
    }

    const workload::AttackTraceConfig attack =
        sim::resolveAttack(cell.attack, tracegen_);
    const auto benign = traces(cell.workload, buf);
    workload::AttackTrace at;
    {
        ScopedSpan span(buf, "attack_trace");
        at = workload::generateAttackTrace(attack);
    }
    counters_.attackEvents += at.trace.events.size();

    sim::SystemResult co;
    uint32_t max_hammer = 0;
    {
        ScopedSpan span(buf, "replay");
        std::vector<workload::CoreTraceView> views = benign->views();
        if (!at.trace.events.empty())
            views.push_back(workload::viewOf(at.trace));
        sim::SystemConfig sys;
        sys.channel.timing = tracegen_.timing;
        sys.channel.numBanks = tracegen_.banksSimulated;
        sys.channel.aboLevel = cell.level;
        sys.channel.securityEnabled = true;
        sys.channel.seed = sim::coAttackCellSeed(
            tracegen_, cell.workload, cell.mitigator, cell.level, attack);
        sys.subchannels = std::max(1u, tracegen_.subchannels);
        sys.channels = std::max(1u, tracegen_.channels);
        sys.ranks = std::max(1u, tracegen_.ranks);
        sim::System system(sys, cell.mitigator.factory());
        system.setPostponeRefresh(
            workload::attackPostponesRefresh(attack.pattern));
        co = sim::runSystem(system, views, core_);
        const auto &sec = system.subchannel(at.subchannel).security(at.bank);
        for (const RowId row : at.rows)
            max_hammer = std::max(max_hammer, sec.peakHammer(row));
    }

    out.attackerMaxHammer = max_hammer;
    out.attackerActs = co.totalActs - base->totalActs;
    out.alerts = co.alerts;
    out.refs = co.refs;
    for (const auto &u : co.perSubchannel)
        out.rfms += u.rfms;
    if (co.refs > 0) {
        out.alertsPerRefi =
            static_cast<double>(co.alerts) / static_cast<double>(co.refs);
    }
    counters_.replayActs += co.totalActs;
    counters_.replayAlerts += co.alerts;
    counters_.replayRfms += out.rfms;

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

    ScopedSpan io(buf, "result_io");
    std::string line = sim::toJsonLine(out);
    counters_.resultIoBytes += line.size();
    return line;
}

sim::CoAttackResult
TracedPipeline::coAttackCell(const sim::CoAttackCell &cell, SpanBuf &buf)
{
    const uint64_t key = sim::coAttackCellKey(tracegen_, core_, cell);
    std::shared_ptr<const std::string> payload;
    {
        ScopedSpan span(buf, "result_store");
        payload = store_->getOrCompute(
            key, [&] { return computeCoAttack(cell, buf); });
    }
    ScopedSpan io(buf, "result_io");
    counters_.resultIoBytes += payload->size();
    return sim::coAttackResultOfJsonLine(*payload);
}

} // namespace moatbench
