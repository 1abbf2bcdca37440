/**
 * @file
 * The one cell engine: parallel sweeps of (workload x mitigator x
 * level[ x attack]) grids.
 *
 * The paper measures three kinds of cell -- performance (SweepCell,
 * runPerfCell), a design under attack with benign co-runners
 * (CoAttackCell, runCoAttackCell; sim/coattack.hh), and an isolated
 * attack on one bank (AttackCell, attacks::runAttack) -- and the
 * engine keys, caches and fans out all three the same way. Every cell is an
 * independent simulation, so run() fans the cells out with
 * parallelFor over a thread pool with one FIFO job queue
 * (common/thread_pool.hh). Determinism is by construction: the only
 * RNG on a result path is trace generation, seeded from
 * workload::traceSeed(spec, config); each cell's workload traces come
 * out of the shared content-addressed workload::TraceStore (generated
 * exactly once per distinct key, baselines included), and its
 * baseline comes from a thread-safe compute-once cache (or, for an
 * ALERT-free cell, from the cell's own replay, which equals it), so
 * the result vector is
 * bit-identical at any --jobs value and under any thread schedule --
 * and identical again with the trace store disabled. The serial path
 * (jobs=1) runs inline on the calling thread and produces the same
 * bytes.
 *
 * The engine itself holds no lock and so carries no thread-safety
 * annotations (src/common/thread_annotations.hh): each worker writes
 * only results[i] of its own pre-assigned cell index, every shared
 * input is const, and all cross-thread state lives behind the
 * annotated SingleFlight maps the stores and caches front.
 * parallelFor's join provides the happens-before edge that makes the
 * result vector safe to read afterwards.
 */

#ifndef MOATSIM_SIM_SWEEP_HH
#define MOATSIM_SIM_SWEEP_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "abo/abo.hh"
#include "attacks/attack.hh"
#include "common/single_flight.hh"
#include "mitigation/registry.hh"
#include "sim/coattack.hh"
#include "sim/perf.hh"
#include "sim/result_store.hh"
#include "workload/spec.hh"
#include "workload/tracegen.hh"

namespace moatsim::sim
{

/** One independent simulation cell of a sweep matrix. */
struct SweepCell
{
    workload::WorkloadSpec workload;
    mitigation::MitigatorSpec mitigator;
    abo::Level level = abo::Level::L1;
};

/** One isolated attack: a pattern against one design on a single-bank
 *  sub-channel (attacks::runAttack). Folded into attackCellKey() in
 *  full (the attack side delegates to AttackConfig's own key-source
 *  contract). */
// moatlint: key-source(attackCellKey)
struct AttackCell
{
    attacks::AttackConfig attack;
    mitigation::MitigatorSpec mitigator;
};

/** Content address of one attack cell for the sim::ResultStore. Equal
 *  keys produce byte-identical toJsonLine(AttackResult) payloads. */
uint64_t attackCellKey(const AttackCell &cell);

/** Engine configuration. */
struct SweepConfig
{
    /** Trace generation: DRAM timing, window fraction, cores, seed,
     *  and sub-channel count (tracegen.subchannels). */
    workload::TraceGenConfig tracegen{};
    /** Core model (memory-level parallelism). */
    CoreModel core{};
    /** Worker threads; 0 = hardware concurrency, 1 = run inline. */
    unsigned jobs = 0;
    /**
     * Shared trace store: each distinct workload trace of a matrix is
     * generated exactly once and shared across cells (baselines
     * included) and across the pool. Null = the engine creates an
     * env-configured store of its own (MOATSIM_TRACE_STORE=0 yields a
     * disabled one); pass an explicit store to share it between
     * engines (`moatsim serve` shares one across every client
     * request).
     */
    std::shared_ptr<workload::TraceStore> traceStore;
    /**
     * Shared result store: every cell is keyed by perfCellKey,
     * coAttackCellKey or attackCellKey and its JSONL payload cached
     * across runs, engines, and (when the store is persistent)
     * processes, so a warm matrix re-run recomputes only changed
     * cells. Null = the
     * engine creates an env-configured store of its own
     * (MOATSIM_RESULT_STORE unset yields a disabled pass-through);
     * pass an explicit store to share it -- `moatsim serve` shares
     * one across every client request.
     */
    std::shared_ptr<ResultStore> resultStore;
};

/** Runs perf, co-attack and attack cells in parallel with
 *  bit-identical-to-serial results. */
class SweepEngine
{
  public:
    /** @p baselines shares a perf baseline cache with other engines
     *  (null = the engine's own). */
    explicit SweepEngine(const SweepConfig &config,
                         std::shared_ptr<BaselineCache> baselines = {});

    /**
     * Per-cell completion callback of run(): called with (cell index,
     * result) as each cell finishes -- `moatsim serve` responds per
     * cell as it completes instead of after the batch. Invoked from
     * worker threads in completion order, so the sink must be
     * thread-safe; per-cell results themselves stay bit-identical to
     * the returned vector at any jobs count.
     */
    template <typename Result>
    using CellSink = std::function<void(size_t, const Result &)>;

    /**
     * Run every cell, streaming each finished one to @p sink (null =
     * none); results are returned in cell order, independent of the
     * execution schedule.
     */
    std::vector<PerfResult> run(const std::vector<SweepCell> &cells,
                                const CellSink<PerfResult> &sink = {});
    std::vector<CoAttackResult>
    run(const std::vector<CoAttackCell> &cells,
        const CellSink<CoAttackResult> &sink = {});
    std::vector<attacks::AttackResult>
    run(const std::vector<AttackCell> &cells,
        const CellSink<attacks::AttackResult> &sink = {});

    /** Run one cell inline (shares the baseline caches and stores). */
    PerfResult runCell(const SweepCell &cell);
    CoAttackResult runCell(const CoAttackCell &cell);
    attacks::AttackResult runCell(const AttackCell &cell);

    /** Resolved worker count (after the 0 -> hardware default). */
    unsigned jobs() const { return jobs_; }

    /** The trace store (config.traceStore, or the engine's own). */
    const std::shared_ptr<workload::TraceStore> &traceStore() const
    {
        return config_.traceStore;
    }

    /** The result store (config.resultStore, or the engine's own). */
    const std::shared_ptr<ResultStore> &resultStore() const
    {
        return config_.resultStore;
    }

  private:
    /** Store-first: serve @p cell from the result store, computing it
     *  (the one `sweep.compute` fault site) on a miss. */
    template <typename Cell, typename Result>
    Result storeFirst(const Cell &cell,
                      Result (*parse)(const std::string &));

    /** Fan @p cells out across the pool, streaming to @p sink. */
    template <typename Cell, typename Result>
    std::vector<Result> fanOut(const std::vector<Cell> &cells,
                               const CellSink<Result> &sink);

    /** Simulate one cell (the result store's compute path). */
    PerfResult computeCell(const SweepCell &cell);
    CoAttackResult computeCell(const CoAttackCell &cell);
    attacks::AttackResult computeCell(const AttackCell &cell);

    SweepConfig config_;
    unsigned jobs_;
    std::shared_ptr<BaselineCache> baselines_;
    /** Attack-free co-runs, one per (workload, mitigator, level):
     *  concurrent first-requesters block on one computation. */
    SingleFlight<CoAttackBaseline> coBaselines_;
};

/** Cross product: every workload at every (mitigator, level) point. */
std::vector<SweepCell>
crossCells(const std::vector<workload::WorkloadSpec> &workloads,
           const std::vector<std::pair<mitigation::MitigatorSpec,
                                       abo::Level>> &points);

} // namespace moatsim::sim

#endif // MOATSIM_SIM_SWEEP_HH
