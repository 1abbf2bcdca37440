#include "workload/tracegen.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "common/hash.hh"
#include "common/logging.hh"
#include "workload/event_order.hh"

namespace moatsim::workload
{

namespace
{

/** Stochastic rounding: 2.3 -> 2 (70%) or 3 (30%). */
uint32_t
roundStochastic(double x, Rng &rng)
{
    const double fl = std::floor(x);
    const double frac = x - fl;
    return static_cast<uint32_t>(fl) + (rng.chance(frac) ? 1u : 0u);
}

/** Effective sub-channel count (0 means 1). */
uint32_t
subchannelsOf(const TraceGenConfig &config)
{
    return std::max(1u, config.subchannels);
}

/** Effective channel count (0 means 1). */
uint32_t
channelsOf(const TraceGenConfig &config)
{
    return std::max(1u, config.channels);
}

/** Effective rank count (0 means 1). */
uint32_t
ranksOf(const TraceGenConfig &config)
{
    return std::max(1u, config.ranks);
}

/**
 * Independent sub-channel replay slots of the simulated system:
 * channels x ranks x sub-channels. TraceEvent.subchannel carries the
 * flat slot index, in sim::System's construction order.
 */
uint32_t
slotsOf(const TraceGenConfig &config)
{
    return channelsOf(config) * ranksOf(config) * subchannelsOf(config);
}

/** The generated window: windowFraction of a tREFW. */
Time
windowOf(const TraceGenConfig &config)
{
    return static_cast<Time>(static_cast<double>(config.timing.tREFW) *
                             config.windowFraction);
}

/** Invocation counter behind traceGenInvocations(). */
std::atomic<uint64_t> gen_invocations{0};

} // namespace

uint64_t
traceGenInvocations()
{
    return gen_invocations.load(std::memory_order_relaxed);
}

uint64_t
configKey(const TraceGenConfig &config)
{
    // v2: sub-channel-aware emission (events carry their slot and
    // hashed bank). v3: events in the total order
    // (at, subchannel, bank, row) of workload/event_order.hh.
    uint64_t h =
        dram::foldTiming(stableHash64("moatsim.tracegen.v3"), config.timing);
    for (const uint64_t v :
         {static_cast<uint64_t>(config.numCores),
          static_cast<uint64_t>(config.banksSimulated),
          static_cast<uint64_t>(subchannelsOf(config)),
          static_cast<uint64_t>(config.systemBanks),
          static_cast<uint64_t>(config.coreMlp),
          static_cast<uint64_t>(config.intraEpisodeGap), config.seed})
        h = hashCombine(h, v);
    for (const double v :
         {config.baseIpc, config.cpuGhz, config.bankUtilizationCap,
          config.coreUtilizationCap, config.windowFraction})
        h = hashCombine(h, hashDouble(v));
    // Device-model extensions fold in only when they depart from the
    // flat single-channel, single-rank system, so every pre-device
    // configuration keeps its key (golden results, trace-store cache
    // contract).
    if (channelsOf(config) != 1 || ranksOf(config) != 1) {
        h = hashCombine(h, channelsOf(config));
        h = hashCombine(h, ranksOf(config));
    }
    if (!config.device.empty())
        h = hashCombine(h, stableHash64(config.device));
    return h;
}

TraceGenConfig
withDevice(const TraceGenConfig &config, const dram::DeviceModel &device)
{
    TraceGenConfig out = config;
    out.timing = device.timing();
    // Protocol knobs (refresh granularity, blast radius) are not
    // device-grade properties; keep whatever the caller configured.
    out.timing.refreshGroups = config.timing.refreshGroups;
    out.timing.blastRadius = config.timing.blastRadius;
    out.channels = device.channels();
    out.ranks = device.ranks();
    out.systemBanks = device.totalBanks();
    // The default grade IS today's hand-assembled Table-3 system;
    // leaving its tag empty keeps the config key, every derived seed,
    // and the JSONL output bit-identical to the pre-device pipeline.
    out.device = device.isDefault() ? "" : device.describe();
    return out;
}

uint64_t
traceSeed(const WorkloadSpec &spec, const TraceGenConfig &config)
{
    return hashCombine(hashMix(config.seed), stableHash64(spec.name));
}

double
effectiveIpc(const WorkloadSpec &spec, const TraceGenConfig &config)
{
    double ipc = config.baseIpc;
    const double trc_s = toNs(config.timing.tRC) * 1e-9;
    // Activations per second per core, per unit of IPC.
    const double act_rate = spec.actPki * 1e-3 * config.cpuGhz * 1e9;
    if (act_rate <= 0 || trc_s <= 0)
        return ipc;
    const double bank_sat =
        config.bankUtilizationCap * config.systemBanks /
        (act_rate * config.numCores * trc_s);
    const double core_sat = config.coreUtilizationCap * config.coreMlp /
                            (act_rate * trc_s);
    return std::min({ipc, bank_sat, core_sat});
}

bool
checkTraceGen(const TraceGenConfig &config, std::string *why)
{
    const auto fail = [why](const std::string &what) {
        if (why)
            *why = what;
        return false;
    };
    if (config.numCores == 0)
        return fail("cores must be non-zero");
    if (!std::has_single_bit(config.banksSimulated))
        return fail("banksSimulated (" +
                    std::to_string(config.banksSimulated) +
                    ") must be a power of two: the bank hash masks the "
                    "row with it");
    const uint64_t slots = uint64_t{channelsOf(config)} * ranksOf(config) *
                           subchannelsOf(config);
    if (slots > uint64_t{kMaxTraceSlot} + 1)
        return fail(std::to_string(slots) +
                    " replay slots (channels x ranks x subchannels) "
                    "exceed the trace event's " +
                    std::to_string(uint64_t{kMaxTraceSlot} + 1) +
                    "-slot range");
    if (config.banksSimulated * slots > config.systemBanks)
        return fail(std::to_string(config.banksSimulated) + " banks on " +
                    std::to_string(slots) +
                    " replay slots exceed the system's " +
                    std::to_string(config.systemBanks) + " banks");
    const Time window = windowOf(config);
    if (window >= kEventTimeLimit)
        return fail("window of " + std::to_string(window) +
                    " ps (windowFraction " +
                    std::to_string(config.windowFraction) +
                    ") reaches the trace sort's 2^" +
                    std::to_string(kEventTimeBits) + " ps range");
    return true;
}

std::vector<CoreTrace>
generateTraces(const WorkloadSpec &spec, const TraceGenConfig &config)
{
    gen_invocations.fetch_add(1, std::memory_order_relaxed);

    std::string why;
    if (!checkTraceGen(config, &why))
        fatal("generateTraces: " + why);

    // Stable per-workload stream: equal (seed, name) pairs regenerate
    // identical traces on any platform, and the mitigated run of a cell
    // replays exactly the traces its cached baseline ran on.
    Rng rng(traceSeed(spec, config));

    const dram::TimingParams &t = config.timing;
    const Time window = windowOf(config);

    // Exclusive tier populations (Table 4 counts are cumulative),
    // scaled to the generated window and divided across the cores.
    const double scale = config.windowFraction /
                         static_cast<double>(config.numCores);
    const double e32 = (spec.act32 - spec.act64) * scale;
    const double e64 = (spec.act64 - spec.act128) * scale;
    const double e128 = spec.act128 * scale;

    // ACT budget per core per simulated bank: the ACT-PKI rate over the
    // window's instruction stream, but never less than the tier mass
    // itself (some Table-4 workloads have nearly all traffic in hot
    // rows).
    const double instr_per_core = effectiveIpc(spec, config) *
                                  config.cpuGhz * 1e9 * toMs(window) * 1e-3;
    const double pki_budget = spec.actPki * 1e-3 * instr_per_core /
                              static_cast<double>(config.systemBanks);

    const uint32_t rows_per_core = t.rowsPerBank / config.numCores;
    const uint32_t bank_mask = config.banksSimulated - 1;
    std::vector<CoreTrace> traces(config.numCores);

    // Hot rows of one (core, bank): distinct rows from the core's
    // range with per-tier target counts. Cleared per bank, allocated
    // once per call.
    struct HotRow
    {
        RowId row;
        uint32_t count;
    };
    std::vector<HotRow> hot;
    std::unordered_set<RowId> used;
    // Every core's events are drawn into this one buffer, then sorted
    // straight into the core's exact-size storage: the radix passes
    // alternate between the two, so the buffer is the sort's only
    // scratch space and its growth slack never reaches the trace.
    std::vector<TraceEvent> drawn;

    for (uint32_t core = 0; core < config.numCores; ++core) {
        CoreTrace &trace = traces[core];
        trace.window = window;
        const RowId row_base = core * rows_per_core;
        drawn.clear();

        // Traffic spans the whole simulated system: banksSimulated
        // banks on each replay slot (channels x ranks x
        // sub-channels). Every access lands on its raw bank XOR the
        // row's low bits: the bank hash of the CoffeeLake mapping
        // (Table 3), which spreads a row stride over the banks.
        const uint32_t flat_banks = config.banksSimulated * slotsOf(config);
        for (uint32_t fb = 0; fb < flat_banks; ++fb) {
            const auto slot = static_cast<uint16_t>(fb / config.banksSimulated);
            const uint32_t raw_bank = fb & bank_mask;
            hot.clear();
            used.clear();
            auto add_tier = [&](double rows, uint32_t lo, uint32_t hi) {
                const uint32_t n = roundStochastic(rows, rng);
                for (uint32_t i = 0; i < n; ++i) {
                    RowId r;
                    do {
                        r = row_base + static_cast<RowId>(
                                           rng.below(rows_per_core));
                    } while (!used.insert(r).second);
                    hot.push_back(
                        {r, static_cast<uint32_t>(rng.inRange(lo, hi))});
                }
            };
            add_tier(e32, 32, 63);
            add_tier(e64, 64, 127);
            add_tier(e128, 128, 255);

            uint64_t hot_acts = 0;
            for (const auto &h : hot)
                hot_acts += h.count;

            // Background budget, computed up front (RNG-free, so the
            // hoist cannot perturb the stream) so the bank's events
            // land in at most one grow. Growth stays geometric --
            // reserving the exact need per bank would degrade the
            // whole loop to one reallocation-and-copy per bank.
            const double budget =
                std::max(pki_budget, static_cast<double>(hot_acts));
            const uint64_t n_bg = static_cast<uint64_t>(
                std::max(0.0, budget - static_cast<double>(hot_acts)));
            const size_t need = drawn.size() + hot_acts + n_bg;
            if (need > drawn.capacity())
                drawn.reserve(std::max(need, drawn.capacity() * 2));

            // Hot-row episodes: contiguous pacing from a uniform start.
            for (const auto &h : hot) {
                Time gap = config.intraEpisodeGap;
                Time span = static_cast<Time>(h.count) * gap;
                if (span >= window) {
                    gap = window / (h.count + 1);
                    span = static_cast<Time>(h.count) * gap;
                }
                const Time start = static_cast<Time>(
                    rng.below(static_cast<uint64_t>(window - span)));
                const auto bank =
                    static_cast<BankId>(raw_bank ^ (h.row & bank_mask));
                for (uint32_t i = 0; i < h.count; ++i) {
                    drawn.push_back(
                        {.at = start + static_cast<Time>(i) * gap,
                         .row = h.row,
                         .bank = bank,
                         .subchannel = slot});
                }
            }

            // Background fill up to the ACT budget.
            for (uint64_t i = 0; i < n_bg; ++i) {
                const RowId r = row_base + static_cast<RowId>(
                                               rng.below(rows_per_core));
                const Time at = static_cast<Time>(
                    rng.below(static_cast<uint64_t>(window)));
                drawn.push_back(
                    {.at = at,
                     .row = r,
                     .bank = static_cast<BankId>(raw_bank ^ (r & bank_mask)),
                     .subchannel = slot});
            }
        }

        trace.events.resize(drawn.size());
        sortEventsInto(drawn, trace.events);
    }
    return traces;
}

TierCensus
censusOf(const std::vector<CoreTrace> &traces, const TraceGenConfig &config,
         const WorkloadSpec &spec)
{
    // Count ACTs per (slot, bank, row) across all cores. The key packs
    // the 16-bit slot, 16-bit bank and 32-bit row exactly.
    std::unordered_map<uint64_t, uint32_t> counts;
    uint64_t total_acts = 0;
    for (const auto &trace : traces) {
        for (const auto &e : trace.events) {
            ++counts[(static_cast<uint64_t>(e.subchannel) << 48) |
                     (static_cast<uint64_t>(e.bank) << 32) | e.row];
            ++total_acts;
        }
    }

    TierCensus census;
    // moatlint: allow(unordered-iter): commutative accumulation only;
    // each entry bumps independent census counters, so visit order
    // cannot reach the totals
    for (const auto &[key, c] : counts) {
        (void)key;
        if (c >= 32)
            census.act32 += 1;
        if (c >= 64)
            census.act64 += 1;
        if (c >= 128)
            census.act128 += 1;
    }
    // Rescale: counts were per simulated bank per generated window,
    // across every simulated replay slot.
    const double denom = static_cast<double>(config.banksSimulated) *
                         static_cast<double>(slotsOf(config)) *
                         config.windowFraction;
    census.act32 /= denom;
    census.act64 /= denom;
    census.act128 /= denom;

    const double instr_total = effectiveIpc(spec, config) * config.cpuGhz *
                               1e9 *
                               (traces.empty()
                                    ? 0.0
                                    : toMs(traces.front().window) * 1e-3) *
                               static_cast<double>(config.numCores);
    const double system_acts =
        static_cast<double>(total_acts) *
        static_cast<double>(config.systemBanks) /
        static_cast<double>(config.banksSimulated * slotsOf(config));
    if (instr_total > 0)
        census.actPki = system_acts / instr_total * 1000.0;
    return census;
}

} // namespace moatsim::workload
