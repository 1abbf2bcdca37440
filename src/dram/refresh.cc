#include "dram/refresh.hh"

#include <cassert>

namespace moatsim::dram
{

RefreshScheduler::RefreshScheduler(const TimingParams &params)
    : num_groups_(params.refreshGroups),
      rows_per_group_(params.rowsPerGroup())
{
    assert(num_groups_ > 0 && rows_per_group_ > 0);
}

std::pair<RowId, RowId>
RefreshScheduler::groupRows(uint32_t group) const
{
    assert(group < num_groups_);
    const RowId first = group * rows_per_group_;
    return {first, first + rows_per_group_ - 1};
}

uint32_t
RefreshScheduler::issueRef()
{
    const uint32_t group = next_group_;
    next_group_ = (next_group_ + 1) % num_groups_;
    ++refs_issued_;
    return group;
}

} // namespace moatsim::dram
