#include "sim/system.hh"

#include <algorithm>
#include <string>

#include "common/hash.hh"
#include "common/logging.hh"

namespace moatsim::sim
{

System::System(const SystemConfig &config,
               const mitigation::Mitigator &prototype)
    : config_(config)
{
    if (config_.subchannels == 0)
        fatal("System: at least one sub-channel is required");
    if (config_.channels == 0 || config_.ranks == 0)
        fatal("System: channels and ranks must be at least 1");
    const uint32_t slots =
        config_.channels * config_.ranks * config_.subchannels;
    if (config_.oracleOnly && config_.oracleOnly->slot >= slots)
        fatal("System: oracle slot " +
              std::to_string(config_.oracleOnly->slot) +
              " out of range (" + std::to_string(slots) + " slots)");
    channels_.reserve(slots);
    // Slots are built in flat-index order on both paths below.
    const auto add = [&](uint64_t seed) {
        subchannel::SubChannelConfig sc = config_.channel;
        sc.seed = seed;
        if (const auto &site = config_.oracleOnly) {
            if (site->slot == channels_.size())
                sc.oracleBank = site->bank;
            else
                sc.securityEnabled = false;
        }
        channels_.push_back(
            std::make_unique<subchannel::SubChannel>(sc, prototype));
    };
    if (config_.channels == 1 && config_.ranks == 1) {
        // Flat single-channel, single-rank system: the historical
        // derivation. Sub-channels never read their seed, so results
        // do not depend on it (SystemConfig::channel).
        for (uint32_t i = 0; i < config_.subchannels; ++i)
            add(hashCombine(config_.channel.seed, i));
        return;
    }
    // Per-level derivation: fold each topology coordinate in turn, so
    // every slot's seed is independent of the sibling counts (slot
    // (c, r, s) keeps its seed when the sweep changes another level's
    // population).
    for (uint32_t c = 0; c < config_.channels; ++c) {
        const uint64_t chan_seed = hashCombine(config_.channel.seed, c);
        for (uint32_t r = 0; r < config_.ranks; ++r) {
            const uint64_t rank_seed = hashCombine(chan_seed, r);
            for (uint32_t s = 0; s < config_.subchannels; ++s)
                add(hashCombine(rank_seed, s));
        }
    }
}

void
System::setPostponeRefresh(bool on)
{
    for (auto &ch : channels_)
        ch->setPostponeRefresh(on);
}

mitigation::MitigationStats
System::mitigationStats() const
{
    mitigation::MitigationStats total;
    for (const auto &ch : channels_) {
        const auto s = ch->mitigationStats();
        total.proactiveMitigations += s.proactiveMitigations;
        total.alertMitigations += s.alertMitigations;
        total.victimRefreshes += s.victimRefreshes;
        total.counterResets += s.counterResets;
    }
    return total;
}

uint32_t
System::maxHammerAnyBank() const
{
    uint32_t best = 0;
    for (const auto &ch : channels_)
        best = std::max(best, ch->maxHammerAnyBank());
    return best;
}

uint32_t
System::totalBanks() const
{
    uint32_t n = 0;
    for (const auto &ch : channels_)
        n += ch->numBanks();
    return n;
}

namespace
{

/** The merged replay loop behind runSystem(); see sim/system.hh. */
SystemResult
runOnSubChannels(const std::vector<subchannel::SubChannel *> &channels,
                 const std::vector<workload::CoreTraceView> &traces,
                 const CoreModel &core)
{
    const size_t nsc = channels.size();
    const Time tRC = channels[0]->timing().tRC;

    // Snapshot the per-channel counters so a reused channel reports
    // only this replay's activity.
    struct ChannelStart
    {
        subchannel::SubChannelStats stats;
        uint64_t alerts;
        mitigation::MitigationStats mitigation;
    };
    std::vector<ChannelStart> before(nsc);
    Time start = 0;
    for (size_t i = 0; i < nsc; ++i) {
        before[i] = {channels[i]->stats(), channels[i]->abo().alertCount(),
                     channels[i]->mitigationStats()};
        start = std::max(start, channels[i]->now());
    }

    // Flattened per-core replay state: events are consumed through raw
    // pointers and the bounded in-flight completion queue is a fixed
    // ring (one flat slab, mlp slots per core) instead of a deque.
    struct CoreState
    {
        const workload::TraceEvent *next = nullptr;
        const workload::TraceEvent *end = nullptr;
        /** Earliest time the next ACT may be requested. */
        Time arrival = 0;
        Time last_intended = 0;
        Time last_completion = 0;
        uint32_t ring_head = 0;
        uint32_t ring_count = 0;
    };

    const uint32_t mlp = std::max(1u, core.mlp);
    std::vector<Time> rings(traces.size() * mlp);
    std::vector<CoreState> cores(traces.size());
    // Unfinished cores in index order (the stable order keeps the
    // earliest-arrival tie-break identical to a full scan).
    std::vector<uint32_t> active;
    active.reserve(traces.size());
    for (size_t c = 0; c < traces.size(); ++c) {
        if (traces[c].count == 0)
            continue;
        cores[c].next = traces[c].events;
        cores[c].end = cores[c].next + traces[c].count;
        cores[c].arrival = start + traces[c].events[0].at;
        active.push_back(static_cast<uint32_t>(c));
    }

    // Issue in global arrival order: repeatedly pick the core whose
    // next request is ready earliest (FCFS memory scheduling under the
    // closed-page policy) and dispatch to the event's sub-channel.
    while (!active.empty()) {
        size_t best_pos = 0;
        Time best_arrival = cores[active[0]].arrival;
        for (size_t i = 1; i < active.size(); ++i) {
            const Time a = cores[active[i]].arrival;
            if (a < best_arrival) {
                best_arrival = a;
                best_pos = i;
            }
        }

        const uint32_t c = active[best_pos];
        CoreState &cs = cores[c];
        const workload::TraceEvent &ev = *cs.next;
        Time *ring = rings.data() + static_cast<size_t>(c) * mlp;

        // The core may have at most `mlp` activations outstanding; the
        // request waits for the oldest one to complete otherwise.
        Time ready = cs.arrival;
        if (cs.ring_count >= mlp)
            ready = std::max(ready, ring[cs.ring_head]);

        subchannel::SubChannel &ch = *channels[ev.subchannel % nsc];
        const Time issue = ch.activateAt(ev.bank, ev.row, ready);
        const Time completion = issue + tRC;

        if (cs.ring_count >= mlp) {
            cs.ring_head = (cs.ring_head + 1) % mlp;
            --cs.ring_count;
        }
        ring[(cs.ring_head + cs.ring_count) % mlp] = completion;
        ++cs.ring_count;
        cs.last_completion = completion;

        // Next request: preserve the intended inter-request gap (the
        // instruction work between the two accesses).
        ++cs.next;
        if (cs.next != cs.end) {
            const workload::TraceEvent &nx = *cs.next;
            // Warm the next counter while other cores' events
            // interleave; the random-row PRAC update is the loop's
            // dominant cache miss.
            channels[nx.subchannel % nsc]->prefetchActivate(nx.bank,
                                                            nx.row);
            const Time gap = nx.at - ev.at;
            cs.arrival = std::max(cs.arrival, issue) + gap;
        }
        cs.last_intended = ev.at;
        if (cs.next == cs.end) {
            active.erase(active.begin() +
                         static_cast<ptrdiff_t>(best_pos));
        }
    }

    SystemResult result;
    result.coreFinish.resize(traces.size());
    for (size_t c = 0; c < traces.size(); ++c) {
        const Time tail = traces[c].count == 0
                              ? traces[c].window
                              : traces[c].window - cores[c].last_intended;
        result.coreFinish[c] =
            (cores[c].last_completion - start) + std::max<Time>(tail, 0);
        result.totalActs += traces[c].count;
    }

    result.perSubchannel.resize(nsc);
    for (size_t i = 0; i < nsc; ++i) {
        SubChannelUsage &u = result.perSubchannel[i];
        const auto &s = channels[i]->stats();
        u.acts = s.acts - before[i].stats.acts;
        u.refs = s.refs - before[i].stats.refs;
        u.rfms = s.rfms - before[i].stats.rfms;
        u.alerts = channels[i]->abo().alertCount() - before[i].alerts;
        const auto m = channels[i]->mitigationStats();
        u.mitigation.proactiveMitigations =
            m.proactiveMitigations - before[i].mitigation.proactiveMitigations;
        u.mitigation.alertMitigations =
            m.alertMitigations - before[i].mitigation.alertMitigations;
        u.mitigation.victimRefreshes =
            m.victimRefreshes - before[i].mitigation.victimRefreshes;
        u.mitigation.counterResets =
            m.counterResets - before[i].mitigation.counterResets;
        result.refs += u.refs;
        result.alerts += u.alerts;
    }
    return result;
}

} // namespace

SystemResult
runSystem(System &system, const std::vector<workload::CoreTraceView> &traces,
          const CoreModel &core)
{
    std::vector<subchannel::SubChannel *> channels;
    channels.reserve(system.numSubchannels());
    for (uint32_t i = 0; i < system.numSubchannels(); ++i)
        channels.push_back(&system.subchannel(i));
    return runOnSubChannels(channels, traces, core);
}

SystemResult
runSystem(System &system, const std::vector<workload::CoreTrace> &traces,
          const CoreModel &core)
{
    std::vector<workload::CoreTraceView> views;
    views.reserve(traces.size());
    for (const auto &t : traces)
        views.push_back(workload::viewOf(t));
    return runSystem(system, views, core);
}

} // namespace moatsim::sim
