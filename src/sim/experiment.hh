/**
 * @file
 * Single entry point for performance experiments.
 *
 * An Experiment bundles everything one run needs -- DRAM timing (via
 * the trace-generator config), ABO level, workload selection, the
 * mitigator spec, the seed, and the worker count -- so the CLI, the
 * benches, and the examples all drive the same code path instead of
 * hand-assembling engine calls. The Experiment owns one SweepEngine
 * (sim/sweep.hh) for both cell kinds, so every run -- perf or
 * co-attack -- fans its cells across the engine's thread pool,
 * replays one copy of each workload's traces, fills one result store,
 * and shares the cached baselines across every design/level evaluated
 * through it. Design-space sweeps call runMatrix() or
 * runCoAttackMatrix() with the full point list so the whole matrix
 * parallelizes as one batch; results are bit-identical at any jobs
 * count.
 */

#ifndef MOATSIM_SIM_EXPERIMENT_HH
#define MOATSIM_SIM_EXPERIMENT_HH

#include <string>
#include <vector>

#include "abo/abo.hh"
#include "mitigation/registry.hh"
#include "sim/sweep.hh"

namespace moatsim::sim
{

/** Everything one performance experiment needs. */
struct ExperimentConfig
{
    /**
     * Trace generation: DRAM timing, window fraction, cores, seed, and
     * the sub-channel count (tracegen.subchannels) -- set it to 2 for
     * the paper's full-system Table-3 baseline; every cell then
     * simulates a sim::System of that many sub-channels.
     */
    workload::TraceGenConfig tracegen{};
    /**
     * Named device grade to run on: a dram::DeviceSpec string
     * ("device:org=...,speed=..."). When non-empty the spec is parsed
     * (fatal on malformed input) and applied to the trace-generator
     * configuration via workload::withDevice() -- timing, channels x
     * ranks topology, system bank count -- before the engine is
     * built. Empty (the default) leaves `tracegen` exactly as given,
     * reproducing the pre-device pipeline bit-identically.
     */
    std::string device;
    /** ABO mitigation level of the sub-channel (MR71 op[1:0]). */
    abo::Level aboLevel = abo::Level::L1;
    /** Design under test; default is the paper's MOAT defaults. */
    mitigation::MitigatorSpec mitigator{};
    /** Table-4 workload name, or "all" for the whole suite. */
    std::string workload = "all";
    /** Core model (memory-level parallelism). */
    CoreModel core{};
    /** Sweep worker threads; 0 = hardware concurrency, 1 = serial. */
    unsigned jobs = 0;
    /**
     * Result store configuration (sim/result_store.hh). The default
     * comes from the environment (MOATSIM_RESULT_STORE unset =
     * disabled pass-through); the CLI --result-store flag overrides
     * it. Results are bit-identical with the store enabled, disabled,
     * cold, or warm -- the store only changes how much is recomputed.
     */
    ResultStore::Config resultStore = ResultStore::envConfig();
};

/**
 * Long-lived shared state an Experiment may attach to instead of
 * creating its own: `moatsim serve` keeps one of each across every
 * client request, so concurrent requests dedupe trace generation,
 * baseline replays, and whole result cells between each other. Null
 * members fall back to per-experiment instances.
 */
struct ExperimentStores
{
    std::shared_ptr<workload::TraceStore> traces;
    std::shared_ptr<ResultStore> results;
    std::shared_ptr<BaselineCache> baselines;
};

/** One (design, level) point of a sweep matrix. */
struct SweepPoint
{
    mitigation::MitigatorSpec mitigator{};
    abo::Level level = abo::Level::L1;
};

/** One (design, level, attack) point of a co-attack sweep matrix. */
struct CoAttackPoint
{
    mitigation::MitigatorSpec mitigator{};
    abo::Level level = abo::Level::L1;
    CoAttackScenario attack{};
};

/** Runs the configured workloads against registered mitigator designs. */
class Experiment
{
  public:
    explicit Experiment(const ExperimentConfig &config);

    /** As above, attaching shared stores (null members = own). */
    Experiment(const ExperimentConfig &config,
               const ExperimentStores &stores);

    /**
     * Run the configured workload selection with the configured
     * design, streaming each finished cell to @p sink (index within
     * the workload selection, result; null = none) as it completes --
     * the serve protocol's per-cell response path. The sink is called
     * from worker threads; it must be thread-safe.
     */
    std::vector<PerfResult>
    run(const SweepEngine::CellSink<PerfResult> &sink = {});

    /**
     * Run the workload selection at every sweep point as one parallel
     * batch; result [i][w] is point i on workload w. The no-ALERT
     * baselines are shared, and an ALERT-free cell supplies its
     * workload's, so sweeps pay for the mitigated runs and at most one
     * null replay per workload, none when a point raises no ALERT.
     */
    std::vector<std::vector<PerfResult>>
    runMatrix(const std::vector<SweepPoint> &points);

    /**
     * Run the adversary-under-load scenario: the workload selection
     * co-scheduled with @p attack against the configured design and
     * level (one CoAttackResult per workload), streaming each finished
     * cell to @p sink as run() does.
     */
    std::vector<CoAttackResult>
    runCoAttack(const CoAttackScenario &attack,
                const SweepEngine::CellSink<CoAttackResult> &sink = {});

    /**
     * Run the workload selection at every (design, level, attack)
     * point as one parallel batch; result [i][w] is point i on
     * workload w.
     */
    std::vector<std::vector<CoAttackResult>>
    runCoAttackMatrix(const std::vector<CoAttackPoint> &points);

    const ExperimentConfig &config() const { return config_; }

    /** The cell engine (baseline caches included). */
    SweepEngine &engine() { return engine_; }

    /** The trace store (hit/miss/eviction stats for the whole
     *  experiment). */
    const std::shared_ptr<workload::TraceStore> &traceStore() const
    {
        return engine_.traceStore();
    }

    /** The result store (hit/miss/compute stats; the CLI prints them,
     *  `moatsim serve` exposes them). */
    const std::shared_ptr<ResultStore> &resultStore() const
    {
        return engine_.resultStore();
    }

  private:
    /** The workloads config_.workload selects. */
    std::vector<workload::WorkloadSpec> selectedWorkloads() const;

    ExperimentConfig config_;
    SweepEngine engine_;
};

} // namespace moatsim::sim

#endif // MOATSIM_SIM_EXPERIMENT_HH
