#include "sim/sweep.hh"

#include <utility>

#include "common/fault.hh"
#include "common/hash.hh"
#include "common/thread_pool.hh"
#include "sim/result_io.hh"

namespace moatsim::sim
{

namespace
{

uint64_t
cellKey(const SweepConfig &config, const SweepCell &cell)
{
    return perfCellKey(config.tracegen, config.core, cell.workload,
                       cell.mitigator, cell.level);
}

uint64_t
cellKey(const SweepConfig &config, const CoAttackCell &cell)
{
    return coAttackCellKey(config.tracegen, config.core, cell);
}

uint64_t
cellKey(const SweepConfig &, const AttackCell &cell)
{
    return attackCellKey(cell);
}

/** Key of the attack-free co-run every attacked cell of one
 *  (workload, mitigator, level) tuple compares against. */
uint64_t
coBaselineKey(const SweepConfig &config, const CoAttackCell &cell)
{
    uint64_t key = hashCombine(perfConfigKey(config.tracegen, config.core),
                               stableHash64(cell.workload.name));
    key = hashCombine(key, stableHash64(cell.mitigator.describe()));
    key = hashCombine(key,
                      static_cast<uint64_t>(abo::levelValue(cell.level)));
    return hashCombine(key, stableHash64("coattack-baseline"));
}

} // namespace

uint64_t
attackCellKey(const AttackCell &cell)
{
    // The timing stands in for the device grade it came from: two
    // grades with equal timings run the same attack.
    uint64_t h = dram::foldTiming(stableHash64("attack-cell"),
                                  cell.attack.timing);
    h = hashCombine(h, stableHash64(cell.mitigator.describe()));
    h = hashCombine(
        h, static_cast<uint64_t>(abo::levelValue(cell.attack.aboLevel)));
    h = hashCombine(h, stableHash64(cell.attack.pattern));
    h = hashCombine(h, static_cast<uint64_t>(cell.attack.poolRows));
    h = hashCombine(h, cell.attack.budget);
    h = hashCombine(h, static_cast<uint64_t>(cell.attack.trials));
    return hashCombine(h, static_cast<uint64_t>(cell.attack.banks));
}

SweepEngine::SweepEngine(const SweepConfig &config,
                         std::shared_ptr<BaselineCache> baselines)
    : config_(config),
      jobs_(config.jobs > 0 ? config.jobs : ThreadPool::hardwareThreads()),
      baselines_(baselines ? std::move(baselines)
                           : std::make_shared<BaselineCache>())
{
    if (!config_.traceStore)
        config_.traceStore = std::make_shared<workload::TraceStore>();
    if (!config_.resultStore)
        config_.resultStore = std::make_shared<ResultStore>();
}

template <typename Cell, typename Result>
Result
SweepEngine::storeFirst(const Cell &cell,
                        Result (*parse)(const std::string &))
{
    const auto compute = [&] {
        // The chaos suite fails whole cells here, upstream of the
        // result store, so an injected failure is never cached and a
        // retried request recomputes only the cells that failed.
        fault::failPoint("sweep.compute");
        return computeCell(cell);
    };
    // A warm hit serves the cached JSONL payload without touching
    // traces or baselines (a warm matrix re-run does zero trace
    // generations). Both the hit and the compute path round-trip the
    // result through serialize -> parse, so the returned struct is
    // byte-equivalent either way; with the store disabled the
    // round-trip is skipped entirely, reproducing the pre-store
    // pipeline exactly.
    if (!config_.resultStore->enabled())
        return compute();
    const auto payload = config_.resultStore->getOrCompute(
        cellKey(config_, cell), [&] { return toJsonLine(compute()); });
    return parse(*payload);
}

PerfResult
SweepEngine::runCell(const SweepCell &cell)
{
    return storeFirst(cell, perfResultOfJsonLine);
}

CoAttackResult
SweepEngine::runCell(const CoAttackCell &cell)
{
    return storeFirst(cell, coAttackResultOfJsonLine);
}

attacks::AttackResult
SweepEngine::runCell(const AttackCell &cell)
{
    return storeFirst(cell, attackResultOfJsonLine);
}

PerfResult
SweepEngine::computeCell(const SweepCell &cell)
{
    // One store fetch serves the cell and, if the cell ALERTs and no
    // baseline of this workload is resident yet, the null baseline
    // replay: each distinct trace of a matrix is generated exactly
    // once, and with the store disabled exactly once per cell. An
    // ALERT-free cell is its own baseline and supplies it to the cache.
    const auto traces =
        config_.traceStore->get(cell.workload, config_.tracegen);
    return runPerfCell(config_.tracegen, config_.core, cell.workload,
                       cell.mitigator, cell.level, *traces, *baselines_);
}

CoAttackResult
SweepEngine::computeCell(const CoAttackCell &cell)
{
    // As for a perf cell, one store fetch serves the cell and its
    // attack-free baseline.
    const auto benign =
        config_.traceStore->get(cell.workload, config_.tracegen);
    const auto base = coBaselines_.get(coBaselineKey(config_, cell), [&] {
        return std::make_shared<const CoAttackBaseline>(runCoAttackBaseline(
            config_.tracegen, config_.core, cell, *benign));
    });
    return runCoAttackCell(config_.tracegen, config_.core, cell,
                           *base.value, *benign);
}

attacks::AttackResult
SweepEngine::computeCell(const AttackCell &cell)
{
    return attacks::runAttack(cell.attack, cell.mitigator);
}

template <typename Cell, typename Result>
std::vector<Result>
SweepEngine::fanOut(const std::vector<Cell> &cells,
                    const CellSink<Result> &sink)
{
    std::vector<Result> results(cells.size());
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

std::vector<PerfResult>
SweepEngine::run(const std::vector<SweepCell> &cells,
                 const CellSink<PerfResult> &sink)
{
    return fanOut(cells, sink);
}

std::vector<CoAttackResult>
SweepEngine::run(const std::vector<CoAttackCell> &cells,
                 const CellSink<CoAttackResult> &sink)
{
    return fanOut(cells, sink);
}

std::vector<attacks::AttackResult>
SweepEngine::run(const std::vector<AttackCell> &cells,
                 const CellSink<attacks::AttackResult> &sink)
{
    return fanOut(cells, sink);
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
