/**
 * @file
 * Recycled PRAC-counter storage for a SubChannel.
 *
 * PRAC puts a counter in every row, so a sub-channel keeps one ActCount
 * per row of every bank: 8 MiB for a Table-3 sub-channel (32 banks x
 * 65,536 rows), 16 MiB per two-sub-channel System. Zero-filling a fresh
 * slab for every System cost more than a short replay itself, so a
 * CounterSlab is taken from a process-wide free list keyed by its exact
 * shape (banks x rows) and goes back to it when its SubChannel dies.
 *
 * Beside the counters a slab keeps a dirty bitmap with one bit per
 * 64-byte line (dram::kCountersPerLine counters): 512 B for a
 * 65,536-row bank. dram::Bank::activate() sets the bit of the line it
 * increments. On release only the dirty lines are re-zeroed (a bank
 * with 2/5 or more of its lines dirty gets one memset instead), so
 * every slab a SubChannel receives reads all zeros, as a freshly
 * zero-filled one did. That rests on one invariant: only
 * Bank::activate() makes a counter nonzero.
 *
 * The free list holds at most poolCapacity() slabs: two per hardware
 * thread, one Table-3 System for each worker of a sweep at the default
 * job count. Releasing a slab into a full list frees the oldest one, so
 * the pool's footprint is bounded by that constant and reported through
 * poolStats() (the serve `stats` reply carries it).
 */

#ifndef MOATSIM_SUBCHANNEL_COUNTER_SLAB_HH
#define MOATSIM_SUBCHANNEL_COUNTER_SLAB_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "common/types.hh"

namespace moatsim::subchannel
{

/** The PRAC counters and dirty bitmap of every bank of one
 *  sub-channel, recycled through a bounded process-wide pool. */
class CounterSlab
{
  public:
    /** Counters of the free list, read under its lock. */
    struct PoolStats
    {
        /** Bytes (counters plus bitmaps) of the slabs on the list. */
        uint64_t pooledBytes = 0;
        /** Slabs handed out from the list. */
        uint64_t reuses = 0;
        /** Slabs freshly allocated because none of the shape was
         *  listed. */
        uint64_t allocs = 0;
    };

    /** A slab of @p banks x @p rows_per_bank zero counters with a
     *  clean bitmap, recycled when one of that shape is listed. */
    CounterSlab(uint32_t banks, uint32_t rows_per_bank);

    /** Re-zeroes the dirty lines and returns the slab to the pool. */
    ~CounterSlab();

    /** Moves keep every span valid: the storage stays where it is. */
    CounterSlab(CounterSlab &&other) noexcept;
    CounterSlab &operator=(CounterSlab &&) = delete;
    CounterSlab(const CounterSlab &) = delete;
    CounterSlab &operator=(const CounterSlab &) = delete;

    /** The counters of bank @p b (rows_per_bank entries). */
    std::span<ActCount> counters(BankId b);

    /** The dirty bitmap of bank @p b
     *  (dram::dirtyWordsFor(rows_per_bank) words). */
    std::span<uint64_t> dirtyLines(BankId b);

    /** Bytes this slab holds (counters plus bitmaps); 0 once moved
     *  from. */
    size_t bytes() const;

    /** The free list's counters. */
    static PoolStats poolStats();

    /** Most slabs the free list holds: 2 x
     *  ThreadPool::hardwareThreads(). */
    static size_t poolCapacity();

  private:
    struct Storage;
    struct Pool;

    /** Zero the dirty lines of @p s and put it on the free list. */
    static void release(std::unique_ptr<Storage> s);

    std::unique_ptr<Storage> storage_;
};

} // namespace moatsim::subchannel

#endif // MOATSIM_SUBCHANNEL_COUNTER_SLAB_HH
