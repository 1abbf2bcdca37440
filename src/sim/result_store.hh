/**
 * @file
 * Content-addressed, thread-safe store of computed cell results.
 *
 * workload::TraceStore eliminated redundant work on the *input* side of
 * a sweep (each distinct trace generated once); this store does the
 * same for the *outputs*. Every perf/co-attack cell is keyed by a
 * stable hash of everything that shapes its result -- the trace
 * generator configuration (device, seed, and timing included), the
 * core model, the workload, the mitigator's canonical describe() text,
 * the ABO level, and for co-attack cells the full attack scenario (see
 * sim::perfCellKey / sim::coAttackCellKey; an isolated attack cell
 * folds its timing, design and attack shape, sim::attackCellKey) --
 * so equal keys mean
 * bit-identical result lines, and a warm re-run of a full matrix is
 * O(changed cells).
 *
 * Values are the byte-stable JSONL payloads of sim/result_io: both the
 * cold and the warm path of an engine round-trip the result through
 * serialize -> parse, so a hit is byte-for-byte the line a recompute
 * would have produced (the determinism suite proves it). The in-memory
 * front is a SingleFlight (common/single_flight.hh): concurrent
 * first-touchers of one key block on one computation -- this is what
 * dedupes in-flight cells across `moatsim serve` clients -- and a
 * compute that throws propagates to every waiter and is never cached,
 * so a retry recomputes. The on-disk back is a directory of append-only JSONL
 * shards, each record framed with the key, an FNV payload checksum,
 * and a CRC-32 over all three fields (older records without the CRC
 * still parse by their checksum alone).
 *
 * Crash safety: a torn, truncated, or bit-flipped record is *counted
 * and quarantined*, never silently skipped and never an error -- the
 * load moves the damaged raw lines to `quarantine.jsonl` in the shard
 * directory and compacts the shard atomically (tmp + rename), so the
 * next load is clean and the damaged cells simply recompute.
 * `moatsim store fsck` runs the same scan/repair offline (fsck()).
 * Append failures degrade the store to in-memory for that shard and
 * are warned once and counted; the health counters (append failures,
 * quarantined records, compactions) ride the Stats snapshot and the
 * serve `stats` reply. All of these failure paths are exercised under
 * the deterministic fault sites `result-store.append` and
 * `result-store.read` (common/fault.hh).
 *
 * Invalidation is explicit: the store folds Config::epoch into every
 * key, so a code change that alters what results mean (new fields, new
 * semantics, recalibration) must bump kResultStoreEpoch -- stale
 * entries then simply never match again. Nothing else invalidates;
 * that is the contract that makes warm runs O(changed cells).
 *
 * Enable it with MOATSIM_RESULT_STORE=DIR (persistent) or
 * MOATSIM_RESULT_STORE=1 (in-memory only), or the CLI --result-store
 * flag; unset or "0" leaves it disabled and getOrCompute() computes
 * every call.
 */

#ifndef MOATSIM_SIM_RESULT_STORE_HH
#define MOATSIM_SIM_RESULT_STORE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/mutex.hh"
#include "common/single_flight.hh"

namespace moatsim::sim
{

/**
 * Schema epoch of the result store. Bump it whenever a change alters
 * what a stored result means for an unchanged key: result fields added
 * or reinterpreted, metric definitions recalibrated, cell-key inputs
 * added (see CONTRIBUTING.md). Old entries then miss instead of
 * serving stale bytes. Epoch 2: trace events replay in the total
 * order (at, subchannel, bank, row), not std::sort's tie order. Epoch
 * 3: the jailbreak and postponement attacks run at the ABO level their
 * key names, not always at level 1.
 */
inline constexpr uint64_t kResultStoreEpoch = 3;

/** Shared, persistent cache of computed result lines. */
class ResultStore
{
  public:
    // moatlint: key-source(ResultStore::foldKey)
    struct Config
    {
        /** false: getOrCompute() computes every call, caches nothing. */
        // moatlint: key-exempt(ResultStore::foldKey): whether caching
        // is on changes how a result is obtained, never its bytes --
        // keying on it would make cold and warm runs disjoint
        bool enabled = false;
        /**
         * Shard directory (created on demand). Empty = in-memory only:
         * single-flight dedupe and warm hits within the process, no
         * persistence.
         */
        // moatlint: key-exempt(ResultStore::foldKey): a storage
        // location; the same result must hit wherever the shards live
        std::string dir;
        /** Schema epoch folded into every key (kResultStoreEpoch). */
        uint64_t epoch = kResultStoreEpoch;
    };

    /** Counters of store activity (monotonic over the store's life). */
    struct Stats
    {
        /** Calls served from a resolved or in-flight entry. */
        uint64_t hits = 0;
        /** Calls that found no entry (disabled store included). */
        uint64_t misses = 0;
        /** Payloads actually computed (= misses that ran the lambda). */
        uint64_t computes = 0;
        /** Entries loaded from the shard files at construction. */
        uint64_t loaded = 0;
        /** Shard records found corrupt/truncated/bad-checksum. */
        uint64_t corrupt = 0;
        /** Damaged raw lines moved to quarantine.jsonl. */
        uint64_t quarantined = 0;
        /** Shard files compacted (rewritten atomically) at load. */
        uint64_t compactions = 0;
        /** Shard appends that failed (store degraded to in-memory). */
        uint64_t appendFailures = 0;
        /** Entries currently resident (in-flight included). */
        size_t entries = 0;
        /** Computations currently in flight. */
        size_t inFlight = 0;

        /** Fraction of calls served without recomputing. */
        double hitRate() const
        {
            const uint64_t total = hits + misses;
            return total > 0 ? static_cast<double>(hits) /
                                   static_cast<double>(total)
                             : 0.0;
        }
    };

    /** What a shard-directory scan found (`moatsim store fsck`). */
    struct FsckReport
    {
        /** Shard files present and scanned. */
        uint64_t shards = 0;
        /** Records that parse and checksum. */
        uint64_t valid = 0;
        /** Damaged records (quarantined in repair mode). */
        uint64_t corrupt = 0;
        /** Same-key re-appends (latest wins; dropped by repair). */
        uint64_t duplicates = 0;
        /** Shard files rewritten (repair mode only). */
        uint64_t repaired = 0;

        /** Whether every record on disk is intact. */
        bool clean() const { return corrupt == 0; }
    };

    /** Store configured from the environment (envConfig()). */
    ResultStore();

    /** Loads every shard of config.dir up front when enabled. */
    explicit ResultStore(const Config &config);

    /**
     * The payload of @p key; computed by @p compute on first touch,
     * shared afterwards. Concurrent first-touchers of one key block on
     * the single computation (the computing thread runs @p compute
     * outside every store lock). A @p compute that throws propagates
     * the exception to the caller and every waiter, and the entry is
     * dropped -- failures are never cached. Thread-safe. The epoch is
     * folded in here -- callers pass the raw cell key.
     */
    std::shared_ptr<const std::string>
    getOrCompute(uint64_t key,
                 const std::function<std::string()> &compute)
        EXCLUDES(mu_, io_mu_);

    /** Whether the store caches at all. */
    bool enabled() const { return config_.enabled; }

    const Config &config() const { return config_; }

    Stats stats() const EXCLUDES(mu_, io_mu_);

    /**
     * Scan the shard files of @p dir: every record must decode and
     * match its checksums. With @p repair, damaged raw lines move to
     * `quarantine.jsonl` and each affected shard is compacted in place
     * (atomic tmp + rename, latest record per key wins, records
     * re-framed with the CRC). Standalone -- does not construct a
     * store or consult the epoch.
     */
    static FsckReport fsck(const std::string &dir, bool repair);

    /**
     * Config from the environment: MOATSIM_RESULT_STORE unset or "0"
     * = disabled, "1" = enabled in-memory only, anything else = the
     * shard directory of an enabled persistent store.
     * MOATSIM_RESULT_STORE_EPOCH overrides the epoch (test hook).
     */
    static Config envConfig();

    /** The Config a knob string denotes -- the shared grammar of
     *  MOATSIM_RESULT_STORE and the CLI --result-store flag: "" or
     *  "0" = disabled, "1" = enabled in-memory only, anything else =
     *  the shard directory of an enabled persistent store. */
    static Config configOf(const std::string &text);

  private:
    /** Fold the schema epoch into a raw cell key. */
    uint64_t foldKey(uint64_t key) const;

    /** Seed every shard record of config_.dir into the front,
     *  quarantining and compacting damaged shards (ctor only). */
    void loadShards() EXCLUDES(mu_);

    /** Append one resolved record to its shard file. */
    void appendRecord(uint64_t folded, const std::string &payload)
        EXCLUDES(io_mu_);

    /** Shard file path of a (folded) key. */
    std::string shardPathOf(uint64_t folded) const;

    /** Immutable after construction. */
    Config config_;
    /** The in-memory front, keyed by folded key. */
    SingleFlight<std::string> flight_;
    mutable Mutex mu_;
    /** Computes of the disabled store (never cached). */
    uint64_t uncached_ GUARDED_BY(mu_) = 0;
    uint64_t loaded_ GUARDED_BY(mu_) = 0;
    uint64_t corrupt_ GUARDED_BY(mu_) = 0;
    uint64_t quarantined_ GUARDED_BY(mu_) = 0;
    uint64_t compactions_ GUARDED_BY(mu_) = 0;
    /** Serializes shard appends (never held together with mu_). */
    mutable Mutex io_mu_;
    uint64_t append_failures_ GUARDED_BY(io_mu_) = 0;
    /** Shards already warned about failing appends (bit per shard). */
    uint32_t warned_shards_ GUARDED_BY(io_mu_) = 0;
};

} // namespace moatsim::sim

#endif // MOATSIM_SIM_RESULT_STORE_HH
