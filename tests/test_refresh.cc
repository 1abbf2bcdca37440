/**
 * @file
 * Unit tests for the refresh scheduler (grouping, wrap).
 */

#include <gtest/gtest.h>

#include <vector>

#include "dram/refresh.hh"

namespace moatsim::dram
{
namespace
{

TimingParams
smallTiming()
{
    TimingParams t;
    t.rowsPerBank = 64;
    t.refreshGroups = 8;
    return t;
}

TEST(Refresh, GroupRowsAreContiguous)
{
    RefreshScheduler rs(smallTiming());
    EXPECT_EQ(rs.groupRows(0), (std::pair<RowId, RowId>{0, 7}));
    EXPECT_EQ(rs.groupRows(1), (std::pair<RowId, RowId>{8, 15}));
    EXPECT_EQ(rs.groupRows(7), (std::pair<RowId, RowId>{56, 63}));
}

TEST(Refresh, IssueAdvancesAndWraps)
{
    RefreshScheduler rs(smallTiming());
    for (uint32_t i = 0; i < 8; ++i)
        EXPECT_EQ(rs.issueRef(), i);
    EXPECT_EQ(rs.issueRef(), 0u); // wrapped
    EXPECT_EQ(rs.refsIssued(), 9u);
}

TEST(Refresh, FullWindowCoversEveryRowOnce)
{
    const TimingParams t = smallTiming();
    RefreshScheduler rs(t);
    std::vector<int> refreshed(t.rowsPerBank, 0);
    for (uint32_t i = 0; i < t.refreshGroups; ++i) {
        const auto [lo, hi] = rs.groupRows(rs.issueRef());
        for (RowId r = lo; r <= hi; ++r)
            ++refreshed[r];
    }
    for (RowId r = 0; r < t.rowsPerBank; ++r)
        EXPECT_EQ(refreshed[r], 1) << "row " << r;
}

TEST(Refresh, DefaultGeometryGroups)
{
    TimingParams t; // 64K rows, 8192 groups
    RefreshScheduler rs(t);
    EXPECT_EQ(rs.numGroups(), 8192u);
    EXPECT_EQ(rs.groupRows(8191).second, 65535u);
}

} // namespace
} // namespace moatsim::dram
