/**
 * @file
 * Behavioural model of one DRAM bank with PRAC per-row activation
 * counters.
 *
 * The bank tracks only what Rowhammer mitigation needs: one activation
 * counter per row (the PRAC counter stored inline with the row) and the
 * currently open row. Data contents are not modelled. Per the JEDEC
 * PRAC extension, the counter read-modify-write physically happens
 * during precharge; behaviourally we increment it at activate() and the
 * sub-channel delays any resulting ALERT to the precharge point.
 *
 * activate(), counter() and resetCounter() are defined in this header
 * so the per-ACT calls inline. The counters are the replay loop's
 * dominant cache miss; the loop prefetches them through
 * counterAddress() (see sim/system.hh).
 *
 * Beside its counters a bank records which 64-byte lines of them
 * (kCountersPerLine counters each) activate() has written, one bit per
 * line. A sub-channel's counter storage is recycled across systems
 * (subchannel/counter_slab.hh), and only the marked lines are re-zeroed
 * before the next system gets it.
 */

#ifndef MOATSIM_DRAM_BANK_HH
#define MOATSIM_DRAM_BANK_HH

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hh"
#include "dram/timing.hh"

namespace moatsim::dram
{

/** PRAC counters per 64-byte line, the granularity of a bank's dirty
 *  bitmap. */
inline constexpr uint32_t kCountersPerLine = 64 / sizeof(ActCount);

/** Rows one 64-bit word of a dirty bitmap covers. */
inline constexpr uint32_t kRowsPerDirtyWord = kCountersPerLine * 64;

/** Dirty-bitmap words a bank of @p rows rows needs. */
constexpr size_t
dirtyWordsFor(uint32_t rows)
{
    return (static_cast<size_t>(rows) + kRowsPerDirtyWord - 1) /
           kRowsPerDirtyWord;
}

/** One DRAM bank: PRAC counters plus open-row state. */
class Bank
{
  public:
    /** Construct a bank of params.rowsPerBank rows, every PRAC
     *  counter at zero. */
    explicit Bank(const TimingParams &params);

    /**
     * Construct a bank whose counters live in caller-owned @p storage
     * (rowsPerBank zero-initialized entries) and whose dirty bitmap is
     * @p dirty_lines (dirtyWordsFor(rowsPerBank) words). A SubChannel
     * hands every bank a slice of one recycled CounterSlab, so
     * building a 64-bank system costs no allocation once a slab of its
     * shape has been released. Both must outlive the bank.
     */
    Bank(const TimingParams &params, std::span<ActCount> storage,
         std::span<uint64_t> dirty_lines);

    /**
     * Moves keep the counters valid (both storage flavours live on
     * the heap); copies are deleted -- a copy's span would alias the
     * source's storage instead of its own.
     */
    Bank(Bank &&) = default;
    Bank &operator=(Bank &&) = default;
    Bank(const Bank &) = delete;
    Bank &operator=(const Bank &) = delete;

    /** Number of rows in this bank. */
    uint32_t numRows() const { return static_cast<uint32_t>(counters_.size()); }

    /**
     * Activate a row: opens it, increments its PRAC counter and marks
     * the counter's line dirty.
     *
     * Invariant: this is the only write that can make a counter
     * nonzero (resetCounter() writes 0), so the dirty bitmap names
     * every line that can hold a nonzero count. Any new write that can
     * make a counter nonzero must mark its line the same way, or a
     * recycled CounterSlab hands the count to the next system.
     * @return the counter value after the increment.
     */
    ActCount activate(RowId row)
    {
        assert(row < counters_.size());
        open_row_ = row;
        ++total_acts_;
        dirty_[row / kRowsPerDirtyWord] |= uint64_t{1}
                                           << (row / kCountersPerLine % 64);
        return ++counters_[row];
    }

    /** Precharge the open row (no-op when already closed). */
    void precharge() { open_row_ = kInvalidRow; }

    /** Row currently open, or kInvalidRow. */
    RowId openRow() const { return open_row_; }

    /** Current PRAC counter of a row. */
    ActCount counter(RowId row) const
    {
        assert(row < counters_.size());
        return counters_[row];
    }

    /** Address of a row's PRAC counter, or nullptr for a row past the
     *  bank; the replay loop prefetches through it. */
    const ActCount *counterAddress(RowId row) const
    {
        return row < counters_.size() ? &counters_[row] : nullptr;
    }

    /** Reset a row's PRAC counter to zero (mitigation / refresh). */
    void resetCounter(RowId row)
    {
        assert(row < counters_.size());
        counters_[row] = 0;
    }

    /** Total activations ever issued to this bank. */
    uint64_t totalActivations() const { return total_acts_; }

    /** The dirty bitmap: bit (row / kCountersPerLine) % 64 of word
     *  row / kRowsPerDirtyWord is set once activate() wrote that row's
     *  line. */
    std::span<const uint64_t> dirtyLines() const { return dirty_; }

  private:
    /** Backing storage when the bank owns its counters and bitmap
     *  (empty when a caller-owned slab backs them). */
    std::vector<ActCount> owned_;
    std::vector<uint64_t> owned_dirty_;
    /** The counters; views owned_ or the caller's slab. Stays valid
     *  across moves (both point at heap storage). */
    std::span<ActCount> counters_;
    /** The dirty bitmap; views owned_dirty_ or the caller's slab. */
    std::span<uint64_t> dirty_;
    RowId open_row_ = kInvalidRow;
    uint64_t total_acts_ = 0;
};

} // namespace moatsim::dram

#endif // MOATSIM_DRAM_BANK_HH
