#include "sim/sweep.hh"

#include <utility>

#include "common/fault.hh"
#include "common/thread_pool.hh"
#include "sim/result_io.hh"

namespace moatsim::sim
{

SweepEngine::SweepEngine(const SweepConfig &config)
    : SweepEngine(config, std::make_shared<BaselineCache>())
{
}

SweepEngine::SweepEngine(const SweepConfig &config,
                         std::shared_ptr<BaselineCache> baselines)
    : config_(config),
      jobs_(config.jobs > 0 ? config.jobs : ThreadPool::hardwareThreads()),
      baselines_(std::move(baselines))
{
    if (!config_.traceStore)
        config_.traceStore = std::make_shared<workload::TraceStore>();
    if (!config_.resultStore)
        config_.resultStore = std::make_shared<ResultStore>();
}

PerfResult
SweepEngine::runCell(const SweepCell &cell)
{
    // Store-first: a warm hit serves the cached JSONL payload without
    // touching traces or baselines (a warm matrix re-run does zero
    // trace generations). Both the hit and the compute path round-trip
    // the result through serialize -> parse, so the returned struct is
    // byte-equivalent either way; with the store disabled the
    // round-trip is skipped entirely, reproducing the pre-store
    // pipeline exactly.
    if (!config_.resultStore->enabled())
        return computeCell(cell);
    const uint64_t key = perfCellKey(config_.tracegen, config_.core,
                                     cell.workload, cell.mitigator,
                                     cell.level);
    const auto payload = config_.resultStore->getOrCompute(
        key, [&] { return toJsonLine(computeCell(cell)); });
    return perfResultOfJsonLine(*payload);
}

PerfResult
SweepEngine::computeCell(const SweepCell &cell)
{
    // The chaos suite fails whole cells here, upstream of the result
    // store, so an injected failure is never cached and a retried
    // request recomputes only the cells that failed.
    fault::failPoint("sweep.compute");
    // One store fetch serves the cell and (on first touch of this
    // workload) its baseline: each distinct trace of a matrix is
    // generated exactly once, and with the store disabled exactly once
    // per cell.
    const auto traces =
        config_.traceStore->get(cell.workload, config_.tracegen);
    const auto base = baselines_->get(config_.tracegen, config_.core,
                                      cell.workload, *traces);
    return runPerfCell(config_.tracegen, config_.core, cell.workload,
                       cell.mitigator, cell.level, *traces, *base);
}

std::vector<PerfResult>
SweepEngine::run(const std::vector<SweepCell> &cells)
{
    return run(cells, nullptr);
}

std::vector<PerfResult>
SweepEngine::run(const std::vector<SweepCell> &cells, const CellSink &sink)
{
    std::vector<PerfResult> results(cells.size());
    // A failed cell does not stop the others (their results still land
    // in the store); parallelFor rethrows the lowest failed index, so
    // which error surfaces is schedule-independent.
    parallelFor(jobs_, cells.size(), [&](size_t i) {
        results[i] = runCell(cells[i]);
        if (sink)
            sink(i, results[i]);
    });
    return results;
}

std::vector<SweepCell>
crossCells(const std::vector<workload::WorkloadSpec> &workloads,
           const std::vector<std::pair<mitigation::MitigatorSpec,
                                       abo::Level>> &points)
{
    std::vector<SweepCell> cells;
    cells.reserve(workloads.size() * points.size());
    for (const auto &[mitigator, level] : points) {
        for (const auto &w : workloads)
            cells.push_back({w, mitigator, level});
    }
    return cells;
}

} // namespace moatsim::sim
