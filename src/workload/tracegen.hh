/**
 * @file
 * Synthetic activation-trace generator calibrated to Table 4.
 *
 * For each core (rate mode: every core runs its own copy of the
 * workload on its own rows), the generator emits a time-sorted stream
 * of activations over one refresh window composed of:
 *
 *  - Hot-row episodes: the Table-4 tier rows. A row destined for C
 *    activations per window receives them as one contiguous episode
 *    (C activations paced a fixed intra-episode gap apart) starting at
 *    a uniformly random point in the window. Uniform starts produce
 *    the Poisson clumping of concurrently-hot rows that drives MOAT's
 *    ALERT rate: the per-REF mitigation absorbs the average tier load,
 *    and ALERTs fire exactly when episodes overlap faster than one
 *    mitigation per period -- the mechanism Section 6.3 describes.
 *  - Background traffic: the remaining ACT-PKI budget as uniformly
 *    distributed single activations over the core's row range.
 *
 * Traces carry *intended* times; the memory-system model stretches the
 * gaps elastically when the channel stalls (back-pressure).
 */

#ifndef MOATSIM_WORKLOAD_TRACEGEN_HH
#define MOATSIM_WORKLOAD_TRACEGEN_HH

#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "common/rng.hh"
#include "common/time.hh"
#include "common/types.hh"
#include "dram/device.hh"
#include "dram/timing.hh"
#include "workload/spec.hh"

namespace moatsim::workload
{

/**
 * One intended activation. The DRAM coordinates are final at trace
 * build time (the XOR bank hash already applied), so the replay hot
 * loop dispatches straight on (subchannel, bank, row).
 *
 * The fields are ordered widest first so the event packs into 16
 * bytes with no padding; every trace the store holds is a slab of
 * these, so the layout sets the store's footprint. Build events with
 * designated initializers: a positional {at, bank, row} still
 * compiles against this order but swaps bank and row.
 */
struct TraceEvent
{
    /** Intended time within the window (pre-back-pressure). */
    Time at = 0;
    RowId row = 0;
    BankId bank = 0;
    /**
     * Target sub-channel replay slot (0 when the system has only
     * one). On a multi-channel/multi-rank system this is the flat
     * slot index ((channel * ranks) + rank) * subchannels +
     * subchannel, matching sim::System's construction order, so the
     * replay hot loop dispatches on one integer regardless of the
     * topology. Producers reject slots above kMaxTraceSlot.
     */
    uint16_t subchannel = 0;
};

static_assert(sizeof(TraceEvent) == 16,
              "TraceEvent must pack into 16 bytes (trace-store footprint)");
static_assert(std::is_trivially_copyable_v<TraceEvent>,
              "TraceEvent slabs are copied as plain bytes");

/** Largest replay slot (and bank) a TraceEvent can carry. */
inline constexpr uint32_t kMaxTraceSlot =
    std::numeric_limits<uint16_t>::max();

/** The activation stream of one core, in the total order
 *  (at, subchannel, bank, row) of workload/event_order.hh. */
struct CoreTrace
{
    std::vector<TraceEvent> events;
    /** Length of the traced window (trace time). */
    Time window = 0;
};

/**
 * Non-owning view of one core's activation stream. The replay loops
 * consume views so that shared, immutable trace storage (the per-core
 * event vectors a workload::TraceSet holds) replays without copying; a view
 * of a CoreTrace is the same thing by construction.
 */
struct CoreTraceView
{
    const TraceEvent *events = nullptr;
    size_t count = 0;
    /** Length of the traced window (trace time). */
    Time window = 0;
};

/** View of @p trace (borrows; the trace must outlive the view). */
inline CoreTraceView
viewOf(const CoreTrace &trace)
{
    return {trace.events.data(), trace.events.size(), trace.window};
}

/** Generator parameters. Every field shapes the generated traces, so
 *  every field must be folded into configKey() -- the TraceStore
 *  serves cached traces by that key, and keylint proves the coverage
 *  on every build (see tools/moatlint/keylint.hh). */
// moatlint: key-source(configKey)
struct TraceGenConfig
{
    dram::TimingParams timing{};
    /** Cores in the system (rate mode). */
    uint32_t numCores = 8;
    /** Banks simulated per sub-channel, power of two (the bank hash
     *  XORs a bank index with the row's low bits). */
    uint32_t banksSimulated = dram::kTable3BanksPerSubchannel;
    /**
     * Sub-channels simulated per (channel, rank). Each core's traffic
     * spreads across every replay slot (subchannels x channels x
     * ranks) x banksSimulated banks. The full-system configuration of
     * Table 3 is 2; the default of 1 keeps single-sub-channel
     * experiments cheap.
     */
    uint32_t subchannels = 1;
    /** Memory channels (device topology; Table 3: 1). */
    uint32_t channels = 1;
    /** Ranks per channel (device topology; Table 3: 1). */
    uint32_t ranks = 1;
    /** Banks in the whole system (traffic divides across them). */
    uint32_t systemBanks = 2 * dram::kTable3BanksPerSubchannel;
    /** Non-memory IPC used to convert ACT-PKI into a time rate. */
    double baseIpc = 2.0;
    /** Core clock in GHz. */
    double cpuGhz = 4.0;
    /** Memory-level parallelism assumed per core (pacing cap). */
    uint32_t coreMlp = 4;
    /** Target bank utilization cap when deriving the effective IPC. */
    double bankUtilizationCap = 0.65;
    /** Per-core memory-bandwidth utilization cap. */
    double coreUtilizationCap = 0.8;
    /**
     * Fraction of a tREFW to generate. Tier row counts (defined per
     * tREFW) scale down proportionally, preserving the load balance
     * between hot rows and the mitigation rate.
     */
    double windowFraction = 0.125;
    /**
     * Gap between activations within a hot-row episode. The default
     * (1.5 activations per tREFI) is calibrated so that the suite
     * reproduces the paper's average slowdown and ALERT rate at
     * ATH=64; the claims rows fig11.slowdown.ath64 and
     * fig11.alerts.ath64 (tests/claims/paper.jsonl) check both.
     */
    Time intraEpisodeGap = fromNs(2600);
    uint64_t seed = 7;
    /**
     * Canonical device spec text (dram::DeviceSpec::describe()) when
     * the configuration was derived from a named device grade via
     * withDevice(); empty for hand-assembled configs. Folded into
     * configKey() (a device axis must never collide with a
     * hand-tuned config of equal parameters) and carried through to
     * the JSONL results.
     */
    std::string device;
};

/**
 * Copy of @p config with the resolved @p device applied: the grade's
 * timing and geometry, the channels x ranks topology, the system bank
 * count (device.totalBanks()), and the canonical device text. The
 * sub-channels-per-channel and banks-simulated counts are left as
 * configured (experiments may still simulate a slice of each grade).
 * The default grade maps to an empty device tag -- it *is* the
 * hand-assembled Table-3 system, and the result is field-for-field
 * identical to a default-constructed config, so naming it changes no
 * key, seed, or output byte.
 */
TraceGenConfig withDevice(const TraceGenConfig &config,
                          const dram::DeviceModel &device);

/**
 * True when generateTraces() can lay out @p config: cores are
 * non-zero, banksSimulated is a power of two, every replay slot fits
 * TraceEvent's 16-bit field, banksSimulated on every slot fits in
 * systemBanks, and the window lies below kEventTimeLimit (a
 * windowFraction up to about 2.1 tREFW). Otherwise @p why (when
 * non-null) says which fails. Request validation calls this up
 * front; generateTraces() fatal()s on the same check.
 */
bool checkTraceGen(const TraceGenConfig &config, std::string *why = nullptr);

/**
 * Generate the per-core traces of one workload: each core's events in
 * an exact-size vector, in the total order of workload/event_order.hh.
 * Each event's bank is its raw bank XOR the row's low bits. fatal()s
 * on a config that fails checkTraceGen().
 */
std::vector<CoreTrace> generateTraces(const WorkloadSpec &spec,
                                      const TraceGenConfig &config);

/**
 * Process-wide count of generateTraces() invocations. Trace
 * generation is the redundant work the workload::TraceStore exists to
 * eliminate, so the counter is the observable the store's regression
 * tests assert on and bench_sweep_scale reports: a full matrix run
 * invokes the generator exactly once per distinct (spec, config), and
 * once per cell with the store disabled.
 */
uint64_t traceGenInvocations();

/**
 * Stable hash of every generator parameter (including the timing
 * block). Two configs with equal keys generate identical traces for
 * equal workloads; baseline caches key on it so one cache can serve
 * sweeps with different configurations.
 */
uint64_t configKey(const TraceGenConfig &config);

/**
 * The RNG seed generateTraces uses for @p spec: a stable function of
 * (config.seed, spec.name) only — deliberately independent of the
 * mitigator under test, so a cell's mitigated run replays exactly the
 * traces its no-ALERT baseline was measured on.
 */
uint64_t traceSeed(const WorkloadSpec &spec, const TraceGenConfig &config);

/**
 * Effective IPC of a workload: baseIpc capped so that the implied
 * activation rate stays within the banks' and the core's achievable
 * memory bandwidth (memory-bound workloads run at lower IPC, exactly
 * as on real hardware; the per-instruction ACT-PKI is preserved).
 */
double effectiveIpc(const WorkloadSpec &spec, const TraceGenConfig &config);

/** Per-bank tier census of a set of traces (Table-4 self-check). */
struct TierCensus
{
    /** Average rows per simulated bank with >= 32/64/128 ACTs,
     *  rescaled to a full tREFW. */
    double act32 = 0.0;
    double act64 = 0.0;
    double act128 = 0.0;
    /** Realized activations per kilo-instruction. */
    double actPki = 0.0;
};

/** Measure the census the generator actually produced. */
TierCensus censusOf(const std::vector<CoreTrace> &traces,
                    const TraceGenConfig &config,
                    const WorkloadSpec &spec);

} // namespace moatsim::workload

#endif // MOATSIM_WORKLOAD_TRACEGEN_HH
