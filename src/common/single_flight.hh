/**
 * @file
 * The one single-flight primitive: a thread-safe compute-once map.
 *
 * Every cache in moatsim -- the trace store, the result store's
 * in-memory front, the perf baseline cache, and the sweep engine's
 * co-attack baselines -- is a thin front over a SingleFlight, which
 * owns the rules in one place:
 *
 *   - concurrent first-touchers of a key block on one compute, which
 *     runs outside the map's lock;
 *   - a compute that throws propagates its exception to the caller and
 *     to every waiter blocked on it, and its entry is dropped: failures
 *     are never cached, so the next get() recomputes;
 *   - get() reports whether this call ran the compute (the result store
 *     appends to disk only then);
 *   - seed() installs already-resolved values (a result-store shard
 *     load);
 *   - an optional byte bound evicts least-recently-used *resolved*
 *     entries once exceeded. The entry a compute just produced is never
 *     evicted by its own resolution, and an in-flight entry is never
 *     evicted; outstanding shared_ptr holders keep evicted values alive.
 *
 * Keys are already-derived 64-bit content addresses; each front keeps
 * its own key derivation. Values are handed out as
 * std::shared_ptr<const V>, so a compute builds its value in place
 * (TraceSet is neither copyable nor movable).
 */

#ifndef MOATSIM_COMMON_SINGLE_FLIGHT_HH
#define MOATSIM_COMMON_SINGLE_FLIGHT_HH

#include <cstddef>
#include <cstdint>
#include <exception>
#include <future>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/mutex.hh"

namespace moatsim
{

/** Compute-once map from uint64_t keys; see the file header. */
template <class V>
class SingleFlight
{
  public:
    using Ptr = std::shared_ptr<const V>;

    /** Resident bytes of a resolved value (the bound's cost model). */
    using BytesOf = std::size_t (*)(const V &);

    /** What get() found. */
    struct Result
    {
        Ptr value;
        /** Whether this call ran the compute (false: hit or waited). */
        bool computed = false;
    };

    /** Counters (monotonic) and residency (current) of the map. */
    struct Stats
    {
        /** get() calls served by a resolved or in-flight entry. */
        uint64_t hits = 0;
        /** get() calls that ran the compute. */
        uint64_t misses = 0;
        /** seed() calls that installed a value (key not resident). */
        uint64_t seeded = 0;
        /** Resolved entries dropped by the byte bound. */
        uint64_t evictions = 0;
        /** Entries resident, in-flight included. */
        std::size_t entries = 0;
        /** Computes currently running. */
        std::size_t inFlight = 0;
        /** Approximate resolved bytes resident (bounded maps only). */
        std::size_t bytes = 0;
    };

    /** Unbounded map. */
    SingleFlight() = default;

    /** Bounded to about @p max_bytes, each value costed by @p bytes_of. */
    SingleFlight(std::size_t max_bytes, BytesOf bytes_of)
        : max_bytes_(max_bytes), bytes_of_(bytes_of)
    {
    }

    /**
     * The value of @p key: a resident entry's (blocking while it is in
     * flight), else the Ptr @p compute returns. Only the first toucher
     * runs @p compute, outside the lock. A throwing @p compute rethrows
     * to the caller and every waiter and leaves no entry behind.
     */
    template <class Compute>
    Result get(uint64_t key, Compute &&compute) EXCLUDES(mu_)
    {
        std::shared_future<Ptr> future;
        std::optional<std::promise<Ptr>> promise; // engaged on a miss
        {
            MutexLock lock(mu_);
            auto it = entries_.find(key);
            if (it != entries_.end()) {
                it->second.lastUse = ++tick_;
                future = it->second.future;
                ++hits_;
            } else {
                Entry e;
                e.future = promise.emplace().get_future().share();
                e.lastUse = ++tick_;
                entries_.emplace(key, std::move(e));
                ++misses_;
                ++in_flight_;
            }
        }
        if (!promise)
            return {future.get(), false};

        Ptr value;
        try {
            value = compute();
        } catch (...) {
            {
                MutexLock lock(mu_);
                entries_.erase(key);
                --in_flight_;
            }
            promise->set_exception(std::current_exception());
            throw;
        }
        promise->set_value(value);
        MutexLock lock(mu_);
        --in_flight_;
        auto it = entries_.find(key);
        if (it != entries_.end())
            resolveLocked(key, it->second, value);
        return {std::move(value), true};
    }

    /** Install @p value as resolved under @p key, unless the key is
     *  already resident. Counts neither a hit nor a miss. */
    void seed(uint64_t key, Ptr value) EXCLUDES(mu_)
    {
        std::promise<Ptr> promise;
        promise.set_value(value);
        MutexLock lock(mu_);
        Entry e;
        e.future = promise.get_future().share();
        e.lastUse = ++tick_;
        const auto [it, inserted] = entries_.emplace(key, std::move(e));
        if (inserted) {
            ++seeded_;
            resolveLocked(key, it->second, value);
        }
    }

    Stats stats() const EXCLUDES(mu_)
    {
        MutexLock lock(mu_);
        Stats s;
        s.hits = hits_;
        s.misses = misses_;
        s.seeded = seeded_;
        s.evictions = evictions_;
        s.entries = entries_.size();
        s.inFlight = in_flight_;
        s.bytes = bytes_;
        return s;
    }

  private:
    struct Entry
    {
        std::shared_future<Ptr> future;
        /** LRU tick of the last get() or seed() that touched it. */
        uint64_t lastUse = 0;
        /** Resident bytes (bounded maps; 0 while in flight). */
        std::size_t bytes = 0;
        bool resolved = false;
    };

    /** Mark @p e (the entry of @p key) resolved to @p value, then
     *  enforce the bound. */
    void resolveLocked(uint64_t key, Entry &e, const Ptr &value)
        REQUIRES(mu_)
    {
        e.resolved = true;
        if (bytes_of_ == nullptr)
            return;
        e.bytes = bytes_of_(*value);
        bytes_ += e.bytes;
        evictLocked(key);
    }

    /** Drop LRU resolved entries until the bound holds. Never drops
     *  @p keep (the entry the caller is handing out). */
    void evictLocked(uint64_t keep) REQUIRES(mu_)
    {
        while (bytes_ > max_bytes_ && entries_.size() > 1) {
            auto victim = entries_.end();
            // moatlint: allow(unordered-iter): min-by-lastUse scan; the
            // LRU tick picks the victim regardless of visit order, and
            // eviction is invisible to results (equal keys recompute
            // bit-identical values on a later miss)
            for (auto it = entries_.begin(); it != entries_.end(); ++it) {
                if (it->first == keep || !it->second.resolved)
                    continue;
                if (victim == entries_.end() ||
                    it->second.lastUse < victim->second.lastUse)
                    victim = it;
            }
            if (victim == entries_.end())
                break;
            bytes_ -= victim->second.bytes;
            entries_.erase(victim);
            ++evictions_;
        }
    }

    /** Immutable after construction; bytes_of_ null = unbounded. */
    std::size_t max_bytes_ = 0;
    BytesOf bytes_of_ = nullptr;

    mutable Mutex mu_;
    std::unordered_map<uint64_t, Entry> entries_ GUARDED_BY(mu_);
    uint64_t tick_ GUARDED_BY(mu_) = 0;
    uint64_t hits_ GUARDED_BY(mu_) = 0;
    uint64_t misses_ GUARDED_BY(mu_) = 0;
    uint64_t seeded_ GUARDED_BY(mu_) = 0;
    uint64_t evictions_ GUARDED_BY(mu_) = 0;
    std::size_t in_flight_ GUARDED_BY(mu_) = 0;
    std::size_t bytes_ GUARDED_BY(mu_) = 0;
};

} // namespace moatsim

#endif // MOATSIM_COMMON_SINGLE_FLIGHT_HH
