/**
 * @file
 * Workload performance-experiment driver.
 *
 * Runs a workload's synthetic traces twice -- once against the
 * mitigator under test and once against a no-ALERT baseline -- and
 * reports the paper's metrics: normalized weighted speedup (Figures 11
 * and 17), ALERTs per tREFI per sub-channel, mitigations+ALERTs per
 * bank per tREFW (Table 5), and the activation-energy overhead
 * (Section 6.5). Baseline runs are cached in a thread-safe
 * BaselineCache keyed by (configuration hash, workload), since every
 * parameter sweep shares them, and the workload traces themselves come
 * out of a shared workload::TraceStore so a matrix generates each
 * distinct trace exactly once; see sim/sweep.hh for the parallel sweep
 * engine that fans independent cells across a thread pool.
 *
 * The mitigator under test is selected by a mitigation::MitigatorSpec,
 * so any registered design ("moat", "panopticon", "ideal-prc", ...)
 * runs through the same pipeline; see mitigation/registry.hh.
 */

#ifndef MOATSIM_SIM_PERF_HH
#define MOATSIM_SIM_PERF_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "abo/abo.hh"
#include "common/single_flight.hh"
#include "mitigation/registry.hh"
#include "sim/system.hh"
#include "workload/spec.hh"
#include "workload/trace_store.hh"
#include "workload/tracegen.hh"

namespace moatsim::sim
{

/** Per-sub-channel slice of a PerfResult (Table 5's per-sub-channel
 *  ALERT rate, simulated rather than extrapolated). */
struct SubChannelPerf
{
    /** Demand activations replayed on this sub-channel. */
    uint64_t acts = 0;
    /** ALERTs asserted on this sub-channel. */
    uint64_t alerts = 0;
    /** ALERTs per tREFI on this sub-channel. */
    double alertsPerRefi = 0.0;
    /** Mitigations per bank per full tREFW on this sub-channel. */
    double mitigationsPerBankPerRefw = 0.0;
};

/** Metrics of one (workload, configuration) run. */
struct PerfResult
{
    std::string workload;
    /** Canonical spec of the design under test (MitigatorSpec text). */
    std::string mitigator;
    /**
     * Canonical device spec the cell ran on (DeviceSpec text); empty
     * when the run used the hand-assembled default configuration
     * rather than a named device grade.
     */
    std::string device;
    /** ABO mitigation level of the run (1, 2, or 4). */
    int aboLevel = 1;
    /** Weighted speedup relative to the no-ALERT baseline (<= 1). */
    double normPerf = 1.0;
    /** ALERTs per tREFI per sub-channel (mean over sub-channels). */
    double alertsPerRefi = 0.0;
    /** Mitigations + ALERT mitigations per bank per full tREFW. */
    double mitigationsPerBankPerRefw = 0.0;
    /** Extra mitigation row operations / demand activations. */
    double actOverheadFraction = 0.0;
    /** Raw ALERT count during the run (all sub-channels). */
    uint64_t alerts = 0;
    /** Demand activations replayed (all sub-channels). */
    uint64_t acts = 0;
    /** Per-sub-channel-slot breakdown (subchannels x channels x ranks
     *  entries, in sim::System slot order). */
    std::vector<SubChannelPerf> perSubchannel;
};

/**
 * The System every cell replays on -- perf cells, their no-ALERT
 * baselines and co-attack runs alike: config.subchannels sub-channels
 * per (channel, rank) at ABO @p level, with channel seed @p seed
 * (unread by the sub-channels; see cellSeed()). The security oracle
 * is off unless @p oracle names the one (slot, bank) it tracks.
 */
SystemConfig
systemConfigFor(const workload::TraceGenConfig &config, abo::Level level,
                uint64_t seed,
                std::optional<SystemConfig::OracleSite> oracle = {});

/**
 * Stable 64-bit key of everything that shapes a perf simulation: the
 * trace-generator configuration (timing included) and the core model.
 */
uint64_t perfConfigKey(const workload::TraceGenConfig &config,
                       const CoreModel &core);

/**
 * Per-cell channel seed: a stable function of the cell key
 * (configuration, workload, mitigator spec text, ABO level), assigned
 * to SystemConfig::channel.seed. No sub-channel reads that seed, so it
 * shapes no result; the only RNG on a result path is trace
 * generation's workload::traceSeed(spec, config). Kept because
 * perfbench derives its co-attack channel seed from it.
 */
uint64_t cellSeed(const workload::TraceGenConfig &config,
                  const workload::WorkloadSpec &spec,
                  const mitigation::MitigatorSpec &mitigator,
                  abo::Level level);

/**
 * Content address of one perf cell for the sim::ResultStore: a stable
 * hash of everything that shapes the cell's result line --
 * perfConfigKey() (trace generator, timing, device, seed, core model),
 * the workload, the mitigator's canonical describe() text, and the ABO
 * level. Equal keys produce byte-identical toJsonLine(PerfResult)
 * payloads; the store folds its schema epoch in on top.
 */
uint64_t perfCellKey(const workload::TraceGenConfig &config,
                     const CoreModel &core,
                     const workload::WorkloadSpec &spec,
                     const mitigation::MitigatorSpec &mitigator,
                     abo::Level level);

/**
 * Thread-safe cache of baseline (no-ALERT) per-core finish times.
 *
 * Keys combine perfConfigKey() with the workload name, so a single
 * cache may serve sweeps with different trace/core configurations
 * without serving stale times (a workload name alone is NOT a valid
 * key). A front over an unbounded SingleFlight: each distinct key is
 * computed exactly once; concurrent requesters of the same key block
 * on the first computation.
 */
class BaselineCache
{
  public:
    using Finish = std::vector<Time>;

    /**
     * Finish times of @p spec under (config, core); computes on miss
     * by replaying @p traces -- the shared TraceSet the caller fetched
     * for this very (spec, config), so a matrix run never regenerates
     * a trace just to compute its baseline. Concurrent requesters of
     * one key block on the single computation; a failed replay is
     * never cached.
     */
    std::shared_ptr<const Finish> get(const workload::TraceGenConfig &config,
                                      const CoreModel &core,
                                      const workload::WorkloadSpec &spec,
                                      const workload::TraceSet &traces);

    /** Number of distinct baselines resident (in-flight included). */
    std::size_t size() const;

  private:
    SingleFlight<Finish> flight_;
};

/**
 * Run one sweep cell given its traces and precomputed baseline finish
 * times. Pure function of its arguments; SweepEngine::runCell is its
 * caller.
 * @p traces is the shared TraceSet of (spec, config) -- typically a
 * TraceStore handout replayed by every cell of the matrix.
 */
PerfResult runPerfCell(const workload::TraceGenConfig &config,
                       const CoreModel &core,
                       const workload::WorkloadSpec &spec,
                       const mitigation::MitigatorSpec &mitigator,
                       abo::Level level,
                       const workload::TraceSet &traces,
                       const std::vector<Time> &baseline);

/** Average normPerf across results (the paper's Gmean bar). */
double meanNormPerf(const std::vector<PerfResult> &results);

/** Average ALERTs-per-tREFI across results. */
double meanAlertsPerRefi(const std::vector<PerfResult> &results);

/** Average mitigations per bank per tREFW across results. */
double meanMitigations(const std::vector<PerfResult> &results);

} // namespace moatsim::sim

#endif // MOATSIM_SIM_PERF_HH
