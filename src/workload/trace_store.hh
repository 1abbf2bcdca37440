/**
 * @file
 * Content-addressed, thread-safe store of generated workload traces.
 *
 * Every figure/table of the paper is a (workload x mitigator x level)
 * matrix, and each cell replays the *same* workload trace: the trace
 * seed is deliberately independent of the mitigator under test (see
 * workload::traceSeed). Before the store, every cell -- baselines
 * included -- regenerated that trace from scratch, so a
 * four-point matrix paid for each workload's generation five times or
 * more. The store generates each distinct trace exactly once and hands
 * out std::shared_ptr<const TraceSet> values that sweep cells share
 * across the ThreadPool.
 *
 * A TraceSet is immutable: it adopts the per-core event vectors
 * generateTraces sorted straight into their exact-size storage
 * (final coordinates, the XOR bank hash applied once), with no
 * flatten copy, and the replay loops (sim/system.hh) consume
 * CoreTraceView spans straight out of that storage.
 *
 * Keys are content addresses: hashCombine(traceSeed(spec, config),
 * configKey(config)) covers everything that shapes a generated trace,
 * so equal keys mean bit-identical traces and results never depend on
 * whether the store was hit, missed, or disabled. The store is bounded
 * (approximate bytes; least-recently-used entries are evicted once the
 * bound is exceeded -- outstanding shared_ptr holders keep evicted
 * sets alive) and surfaces hit/miss/eviction stats for the sweep
 * engine and bench_sweep_scale.
 *
 * Disable it with MOATSIM_TRACE_STORE=0 (or Config::enabled = false):
 * get() then generates a fresh set
 * per call -- one generation per sweep cell, which the cell's baseline
 * replays too -- and the determinism suite proves cached and uncached
 * runs emit byte-identical JSONL.
 */

#ifndef MOATSIM_WORKLOAD_TRACE_STORE_HH
#define MOATSIM_WORKLOAD_TRACE_STORE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/mutex.hh"
#include "common/single_flight.hh"
#include "workload/spec.hh"
#include "workload/tracegen.hh"

namespace moatsim::workload
{

/**
 * One immutable, shareable set of per-core traces: each core's events
 * (coordinates final at generation time) in the storage
 * generateTraces sorted them into, plus per-core spans. Always held
 * behind std::shared_ptr<const TraceSet>; non-copyable and non-movable
 * so the views into the storage stay valid for every holder.
 */
class TraceSet
{
  public:
    /** Adopt @p cores (as returned by generateTraces); no copy. */
    explicit TraceSet(std::vector<CoreTrace> cores);

    TraceSet(const TraceSet &) = delete;
    TraceSet &operator=(const TraceSet &) = delete;

    /** Number of cores. */
    size_t numCores() const { return views_.size(); }

    /** Per-core spans into the shared event storage. */
    const std::vector<CoreTraceView> &views() const { return views_; }

    /** Events across all cores. */
    uint64_t totalEvents() const { return events_; }

    /** Approximate heap footprint (for the store's size bound). */
    size_t bytes() const { return bytes_; }

  private:
    std::vector<CoreTrace> cores_;
    std::vector<CoreTraceView> views_;
    uint64_t events_ = 0;
    size_t bytes_ = 0;
};

/** Shared, bounded cache of generated TraceSets: a front over a
 *  SingleFlight bounded by Config::maxBytes. */
class TraceStore
{
  public:
    struct Config
    {
        /** false: get() generates fresh sets and caches nothing. */
        bool enabled = true;
        /** Approximate byte bound; LRU entries evicted beyond it. */
        size_t maxBytes = size_t{1} << 30;
    };

    /** Counters of store activity (monotonic over the store's life). */
    struct Stats
    {
        /** get() calls served from a cached (or in-flight) entry. */
        uint64_t hits = 0;
        /** get() calls that generated (store disabled included). */
        uint64_t misses = 0;
        /** Entries dropped by the size bound. */
        uint64_t evictions = 0;
        /** Entries currently resident. */
        size_t entries = 0;
        /** Approximate bytes currently resident. */
        size_t bytes = 0;

        /** Fraction of get() calls served without regenerating. */
        double hitRate() const
        {
            const uint64_t total = hits + misses;
            return total > 0 ? static_cast<double>(hits) /
                                   static_cast<double>(total)
                             : 0.0;
        }
    };

    /** Store configured from the environment (envConfig()). */
    TraceStore();

    explicit TraceStore(const Config &config);

    /**
     * The trace set of @p spec under @p config; generated on first
     * touch, shared afterwards. Concurrent first-touchers of one key
     * block on the single generation. Thread-safe.
     */
    std::shared_ptr<const TraceSet> get(const WorkloadSpec &spec,
                                        const TraceGenConfig &config)
        EXCLUDES(mu_);

    /** Whether the store caches at all. */
    bool enabled() const { return config_.enabled; }

    const Config &config() const { return config_; }

    Stats stats() const EXCLUDES(mu_);

    /** Content address: everything that shapes the generated trace. */
    static uint64_t key(const WorkloadSpec &spec,
                        const TraceGenConfig &config);

    /**
     * Config from the environment: MOATSIM_TRACE_STORE=0 disables,
     * MOATSIM_TRACE_STORE_BYTES overrides the size bound.
     */
    static Config envConfig();

  private:
    /** Immutable after construction. */
    Config config_;
    SingleFlight<TraceSet> flight_;
    mutable Mutex mu_;
    /** Generations of the disabled store (never cached). */
    uint64_t uncached_ GUARDED_BY(mu_) = 0;
};

} // namespace moatsim::workload

#endif // MOATSIM_WORKLOAD_TRACE_STORE_HH
