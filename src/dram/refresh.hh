/**
 * @file
 * Auto-refresh scheduler of a sub-channel.
 *
 * DDR5 divides each bank's rows into 8192 spatially contiguous groups;
 * one REF command refreshes one group, and the group pointer wraps once
 * per tREFW (Section 2.2). Every REF is an all-bank REF, so one pointer
 * serves every bank of the sub-channel. Refresh postponement (Appendix B) is a
 * channel-level decision: subchannel::SubChannel owes REFs and later
 * issues them as a batch, each through issueRef().
 */

#ifndef MOATSIM_DRAM_REFRESH_HH
#define MOATSIM_DRAM_REFRESH_HH

#include <cstdint>
#include <utility>

#include "common/types.hh"
#include "dram/timing.hh"

namespace moatsim::dram
{

/** The auto-refresh group pointer of a sub-channel's banks. */
class RefreshScheduler
{
  public:
    explicit RefreshScheduler(const TimingParams &params);

    /** Group that the next REF command will refresh. */
    uint32_t nextGroup() const { return next_group_; }

    /** Inclusive [first, last] row range of a group. */
    std::pair<RowId, RowId> groupRows(uint32_t group) const;

    /**
     * Issue one REF: refreshes the next group and advances the pointer.
     * @return the group index that was refreshed.
     */
    uint32_t issueRef();

    /** Total REFs issued. */
    uint64_t refsIssued() const { return refs_issued_; }

    /** Number of groups (wraps modulo this). */
    uint32_t numGroups() const { return num_groups_; }

  private:
    uint32_t num_groups_;
    uint32_t rows_per_group_;
    uint32_t next_group_ = 0;
    uint64_t refs_issued_ = 0;
};

} // namespace moatsim::dram

#endif // MOATSIM_DRAM_REFRESH_HH
