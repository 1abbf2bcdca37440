#include "sim/experiment.hh"

#include <type_traits>

#include "dram/device.hh"

namespace moatsim::sim
{

namespace
{

SweepConfig
sweepConfigOf(const ExperimentConfig &config,
              const ExperimentStores &stores)
{
    SweepConfig sc;
    sc.tracegen = config.tracegen;
    if (!config.device.empty()) {
        const dram::DeviceModel device =
            dram::DeviceSpec::parse(config.device).resolve();
        sc.tracegen = workload::withDevice(sc.tracegen, device);
    }
    sc.core = config.core;
    sc.jobs = config.jobs;
    // One store of each kind for the whole experiment -- or the
    // caller's long-lived ones (`moatsim serve` shares stores across
    // every client request). Null members leave the engine to create
    // env-configured stores of its own.
    sc.traceStore = stores.traces;
    sc.resultStore = stores.results
                         ? stores.results
                         : std::make_shared<ResultStore>(config.resultStore);
    return sc;
}

/**
 * Run one row of cells per point -- every workload at that point,
 * built by @p make -- as one parallel batch, and cut the flat results
 * back into rows: result [i][w] is point i on workload w.
 */
template <typename Point, typename MakeCell>
auto
runRows(SweepEngine &engine,
        const std::vector<workload::WorkloadSpec> &workloads,
        const std::vector<Point> &points, const MakeCell &make)
{
    std::vector<decltype(make(points.front(), workloads.front()))> cells;
    cells.reserve(points.size() * workloads.size());
    for (const auto &p : points) {
        for (const auto &w : workloads)
            cells.push_back(make(p, w));
    }
    const auto flat = engine.run(cells);

    std::vector<std::remove_const_t<decltype(flat)>> rows(points.size());
    for (size_t i = 0; i < points.size(); ++i) {
        const auto first =
            flat.begin() + static_cast<ptrdiff_t>(i * workloads.size());
        rows[i].assign(first,
                       first + static_cast<ptrdiff_t>(workloads.size()));
    }
    return rows;
}

} // namespace

Experiment::Experiment(const ExperimentConfig &config)
    : Experiment(config, ExperimentStores{})
{
}

Experiment::Experiment(const ExperimentConfig &config,
                       const ExperimentStores &stores)
    : config_(config),
      engine_(sweepConfigOf(config, stores), stores.baselines)
{
}

std::vector<workload::WorkloadSpec>
Experiment::selectedWorkloads() const
{
    if (config_.workload == "all") {
        const auto all = workload::table4Workloads();
        return {all.begin(), all.end()};
    }
    return {workload::findWorkload(config_.workload)};
}

std::vector<PerfResult>
Experiment::run(const SweepEngine::CellSink<PerfResult> &sink)
{
    return engine_.run(crossCells(selectedWorkloads(),
                                  {{config_.mitigator, config_.aboLevel}}),
                       sink);
}

std::vector<std::vector<PerfResult>>
Experiment::runMatrix(const std::vector<SweepPoint> &points)
{
    return runRows(engine_, selectedWorkloads(), points,
                   [](const SweepPoint &p, const workload::WorkloadSpec &w) {
                       return SweepCell{w, p.mitigator, p.level};
                   });
}

std::vector<CoAttackResult>
Experiment::runCoAttack(const CoAttackScenario &attack,
                        const SweepEngine::CellSink<CoAttackResult> &sink)
{
    return engine_.run(crossCoAttackCells(selectedWorkloads(),
                                          {config_.mitigator},
                                          config_.aboLevel, attack),
                       sink);
}

std::vector<std::vector<CoAttackResult>>
Experiment::runCoAttackMatrix(const std::vector<CoAttackPoint> &points)
{
    return runRows(engine_, selectedWorkloads(), points,
                   [](const CoAttackPoint &p,
                      const workload::WorkloadSpec &w) {
                       return CoAttackCell{w, p.mitigator, p.level,
                                           p.attack};
                   });
}

} // namespace moatsim::sim
