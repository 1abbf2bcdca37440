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
 */

#ifndef MOATSIM_DRAM_BANK_HH
#define MOATSIM_DRAM_BANK_HH

#include <span>
#include <vector>

#include "common/types.hh"
#include "dram/timing.hh"

namespace moatsim::dram
{

/** One DRAM bank: PRAC counters plus open-row state. */
class Bank
{
  public:
    /** Construct a bank of params.rowsPerBank rows, every PRAC
     *  counter at zero. */
    explicit Bank(const TimingParams &params);

    /**
     * Construct a bank whose counters live in caller-owned @p storage
     * (rowsPerBank zero-initialized entries). A SubChannel hands every
     * bank a slice of one flat slab, so building a 64-bank system
     * costs one large allocation instead of one multi-hundred-KB
     * allocation (and its page faults) per bank. The storage must
     * outlive the bank.
     */
    Bank(const TimingParams &params, std::span<ActCount> storage);

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
     * Activate a row: opens it and increments its PRAC counter.
     * @return the counter value after the increment.
     */
    ActCount activate(RowId row);

    /** Precharge the open row (no-op when already closed). */
    void precharge() { open_row_ = kInvalidRow; }

    /** Row currently open, or kInvalidRow. */
    RowId openRow() const { return open_row_; }

    /** Current PRAC counter of a row. */
    ActCount counter(RowId row) const;

    /**
     * Hint that @p row's counter is about to be read-modify-written.
     * The per-ACT counter update is a random access into a multi-MB
     * array, so the replay loop prefetches the next event's counter
     * while earlier events are still being issued. Pure hint: no
     * state changes.
     */
    void prefetchCounter(RowId row) const
    {
        if (row < counters_.size())
            __builtin_prefetch(&counters_[row], 1, 1);
    }

    /** Reset a row's PRAC counter to zero (mitigation / refresh). */
    void resetCounter(RowId row);

    /** Total activations ever issued to this bank. */
    uint64_t totalActivations() const { return total_acts_; }

  private:
    /** Backing storage when the bank owns its counters (empty when a
     *  caller-owned slab backs them). */
    std::vector<ActCount> owned_;
    /** The counters; views owned_ or the caller's slab. Stays valid
     *  across moves (both point at heap storage). */
    std::span<ActCount> counters_;
    RowId open_row_ = kInvalidRow;
    uint64_t total_acts_ = 0;
};

} // namespace moatsim::dram

#endif // MOATSIM_DRAM_BANK_HH
