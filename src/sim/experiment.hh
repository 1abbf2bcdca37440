/**
 * @file
 * Single entry point for performance experiments.
 *
 * An Experiment bundles everything one run needs -- DRAM timing (via
 * the trace-generator config), ABO level, workload selection, the
 * mitigator spec, the seed, and the worker count -- so the CLI, the
 * benches, and the examples all drive the same code path instead of
 * hand-assembling engine calls. The Experiment owns a SweepEngine
 * (sim/sweep.hh), so every run fans its cells across the engine's
 * work-stealing pool and the cached no-ALERT baselines are shared
 * across every design/level evaluated through it. Design-space sweeps
 * call runMatrix() with the full point list so the whole matrix
 * parallelizes as one batch; results are bit-identical at any jobs
 * count.
 */

#ifndef MOATSIM_SIM_EXPERIMENT_HH
#define MOATSIM_SIM_EXPERIMENT_HH

#include <string>
#include <vector>

#include "abo/abo.hh"
#include "mitigation/registry.hh"
#include "sim/coattack.hh"
#include "sim/perf.hh"
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
     * ranks topology, system bank count -- before the engines are
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
     * Whether to cache generated workload traces in the shared
     * workload::TraceStore (one store serves both the perf and the
     * co-attack engine, so a matrix generates each distinct trace
     * exactly once). false -- or MOATSIM_TRACE_STORE=0 in the
     * environment, or the CLI --no-trace-store flag -- regenerates
     * per cell instead; results are bit-identical either way (the
     * determinism suite proves it).
     */
    bool traceStore = true;
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

    /** Run the configured workload selection with the configured design. */
    std::vector<PerfResult> run();

    /**
     * As run(), streaming each finished cell to @p sink (index within
     * the workload selection, result) as it completes -- the serve
     * protocol's per-cell response path. The sink is called from
     * worker threads; it must be thread-safe.
     */
    std::vector<PerfResult> run(const SweepEngine::CellSink &sink);

    /**
     * Run the same workload selection with a different design and/or
     * ABO level; the no-ALERT baselines are shared, so sweeps only pay
     * for the mitigated runs.
     */
    std::vector<PerfResult> run(const mitigation::MitigatorSpec &mitigator,
                                abo::Level level);

    /**
     * Run the workload selection at every sweep point as one parallel
     * batch; result [i][w] is point i on workload w. Equivalent to
     * (but much faster than) calling run() per point.
     */
    std::vector<std::vector<PerfResult>>
    runMatrix(const std::vector<SweepPoint> &points);

    /** One workload with an explicit design/level (sweep inner loop). */
    PerfResult runWorkload(const workload::WorkloadSpec &spec,
                           const mitigation::MitigatorSpec &mitigator,
                           abo::Level level);

    /**
     * Run the adversary-under-load scenario: the workload selection
     * co-scheduled with @p attack against the configured design and
     * level (one CoAttackResult per workload).
     */
    std::vector<CoAttackResult> runCoAttack(const CoAttackScenario &attack);

    /** As runCoAttack(), streaming each finished cell to @p sink (the
     *  sink must be thread-safe). */
    std::vector<CoAttackResult>
    runCoAttack(const CoAttackScenario &attack,
                const CoAttackEngine::CellSink &sink);

    /**
     * Run the workload selection at every (design, level, attack)
     * point as one parallel batch; result [i][w] is point i on
     * workload w. The (workload x mitigator x attack x level) cells
     * all fan out across the engine's pool.
     */
    std::vector<std::vector<CoAttackResult>>
    runCoAttackMatrix(const std::vector<CoAttackPoint> &points);

    const ExperimentConfig &config() const { return config_; }

    /** The underlying sweep engine (baseline cache included). */
    SweepEngine &engine() { return engine_; }

    /** The co-attack engine (attack-free baseline cache included). */
    CoAttackEngine &coAttackEngine() { return coattack_; }

    /** The trace store shared by both engines (hit/miss/eviction
     *  stats for the whole experiment). */
    const std::shared_ptr<workload::TraceStore> &traceStore() const
    {
        return engine_.traceStore();
    }

    /** The result store shared by both engines (hit/miss/compute
     *  stats; the CLI prints them, `moatsim serve` exposes them). */
    const std::shared_ptr<ResultStore> &resultStore() const
    {
        return engine_.resultStore();
    }

  private:
    /** The workloads config_.workload selects. */
    std::vector<workload::WorkloadSpec> selectedWorkloads() const;

    ExperimentConfig config_;
    SweepEngine engine_;
    CoAttackEngine coattack_;
};

} // namespace moatsim::sim

#endif // MOATSIM_SIM_EXPERIMENT_HH
