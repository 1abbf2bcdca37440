/**
 * @file
 * The traced pass's cell pipeline: the work SweepEngine::runCell and
 * CoAttackEngine::runCell do for one cell, re-driven from the
 * benchmark through the same public functions, with a span around each
 * layer call.
 *
 * The engines hide the layer boundaries (TraceStore::get generates and
 * flattens in one call; runCoSystem synthesizes the attack inside the
 * replay), so this pipeline calls the layers one level down:
 * generateTraces and the TraceSet constructor under a benchmark-side
 * single-flight cache keyed by TraceStore::key, BaselineCache::get,
 * runPerfCell, runCoSystem for the attack-free co-run, and
 * generateAttackTrace plus System/runSystem for the attacked co-run.
 * Cells still go through a fresh ResultStore and the JSONL codec, as
 * in the engines. Every traced cell must serialize to the same bytes as
 * the untraced engine run; the benchmark checks that, which is what
 * makes the per-layer numbers describe the same work.
 */

#ifndef MOATBENCH_PIPELINE_HH
#define MOATBENCH_PIPELINE_HH

#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "sim/coattack.hh"
#include "sim/perf.hh"
#include "sim/result_store.hh"
#include "sim/sweep.hh"
#include "trace.hh"

namespace moatbench
{

/**
 * Compute-once map: concurrent first requesters of a key block on one
 * computation; that blocking is recorded as a @p wait span.
 */
template <class V>
class Flight
{
  public:
    /** The value of @p key; @p computed says whether this call made it. */
    V get(uint64_t key, const std::function<V()> &compute, SpanBuf &buf,
          const char *wait, bool *computed)
    {
        std::shared_future<V> future;
        std::promise<V> promise;
        {
            std::lock_guard<std::mutex> lock(mu_);
            auto it = entries_.find(key);
            *computed = it == entries_.end();
            if (*computed) {
                future = promise.get_future().share();
                entries_.emplace(key, future);
            } else {
                future = it->second;
            }
        }
        if (*computed) {
            try {
                promise.set_value(compute());
            } catch (...) {
                promise.set_exception(std::current_exception());
            }
            return future.get();
        }
        if (future.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
            ScopedSpan span(buf, wait);
            future.wait();
        }
        return future.get();
    }

  private:
    std::mutex mu_;
    std::unordered_map<uint64_t, std::shared_future<V>> entries_;
};

/** Traced perf and co-attack cells under one trace-generator config. */
class TracedPipeline
{
  public:
    TracedPipeline(const moatsim::workload::TraceGenConfig &tracegen,
                   Counters &counters);

    /** One perf cell, as SweepEngine::runCell computes it. */
    moatsim::sim::PerfResult perfCell(const moatsim::sim::SweepCell &cell,
                                      SpanBuf &buf);

    /** One co-attack cell, as CoAttackEngine::runCell computes it. */
    moatsim::sim::CoAttackResult
    coAttackCell(const moatsim::sim::CoAttackCell &cell, SpanBuf &buf);

    const moatsim::sim::ResultStore &store() const { return *store_; }

    /** Time the fresh result store took to construct, in ms. */
    double storeLoadMs() const { return store_load_ms_; }

  private:
    /** Attack-free co-run of one (workload, mitigator, level). */
    struct CoBaseline
    {
        std::vector<moatsim::Time> coreFinish;
        uint64_t totalActs = 0;
        uint64_t alerts = 0;
        uint64_t rfms = 0;
        uint64_t refs = 0;
    };

    std::shared_ptr<const moatsim::workload::TraceSet>
    traces(const moatsim::workload::WorkloadSpec &spec, SpanBuf &buf);

    std::shared_ptr<const moatsim::sim::BaselineCache::Finish>
    perfBaseline(const moatsim::workload::WorkloadSpec &spec,
                 const moatsim::workload::TraceSet &traces, SpanBuf &buf);

    std::shared_ptr<const CoBaseline>
    coBaseline(const moatsim::sim::CoAttackCell &cell, SpanBuf &buf);

    std::string computeCoAttack(const moatsim::sim::CoAttackCell &cell,
                                SpanBuf &buf);

    moatsim::workload::TraceGenConfig tracegen_;
    moatsim::sim::CoreModel core_{};
    Counters &counters_;
    double store_load_ms_ = 0.0;
    std::unique_ptr<moatsim::sim::ResultStore> store_;
    moatsim::sim::BaselineCache baseline_cache_;
    Flight<std::shared_ptr<const moatsim::workload::TraceSet>> traces_;
    Flight<std::shared_ptr<const moatsim::sim::BaselineCache::Finish>>
        baselines_;
    Flight<std::shared_ptr<const CoBaseline>> co_baselines_;
};

} // namespace moatbench

#endif // MOATBENCH_PIPELINE_HH
