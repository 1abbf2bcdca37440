/**
 * @file
 * Unit tests for the DRAM bank model with PRAC counters.
 */

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "dram/bank.hh"

namespace moatsim::dram
{
namespace
{

TimingParams
smallTiming()
{
    TimingParams t;
    t.rowsPerBank = 1024;
    t.refreshGroups = 128;
    return t;
}

TEST(Bank, StartsClosedAndZeroed)
{
    Bank b(smallTiming());
    EXPECT_EQ(b.openRow(), kInvalidRow);
    EXPECT_EQ(b.numRows(), 1024u);
    for (RowId r = 0; r < b.numRows(); r += 97)
        EXPECT_EQ(b.counter(r), 0u);
    EXPECT_EQ(b.totalActivations(), 0u);
}

TEST(Bank, ActivateIncrementsCounter)
{
    Bank b(smallTiming());
    EXPECT_EQ(b.activate(5), 1u);
    EXPECT_EQ(b.activate(5), 2u);
    EXPECT_EQ(b.activate(7), 1u);
    EXPECT_EQ(b.counter(5), 2u);
    EXPECT_EQ(b.counter(7), 1u);
    EXPECT_EQ(b.totalActivations(), 3u);
}

TEST(Bank, ActivateOpensRowPrechargeCloses)
{
    Bank b(smallTiming());
    b.activate(11);
    EXPECT_EQ(b.openRow(), 11u);
    b.precharge();
    EXPECT_EQ(b.openRow(), kInvalidRow);
}

TEST(Bank, ResetCounterZeroesOnlyThatRow)
{
    Bank b(smallTiming());
    b.activate(3);
    b.activate(3);
    b.activate(4);
    b.resetCounter(3);
    EXPECT_EQ(b.counter(3), 0u);
    EXPECT_EQ(b.counter(4), 1u);
}

TEST(Bank, ActivateMarksOnlyItsLineDirty)
{
    const TimingParams t = smallTiming();
    std::vector<ActCount> slab(t.rowsPerBank, 0);
    std::vector<uint64_t> dirty(dirtyWordsFor(t.rowsPerBank), 0);
    Bank b(t, slab, dirty);
    ASSERT_EQ(b.dirtyLines().size(), 1u);
    b.activate(0);
    b.activate(kCountersPerLine - 1); // same line as row 0
    b.activate(5 * kCountersPerLine + 3);
    b.activate(t.rowsPerBank - 1); // the bank's last line
    const uint64_t last = (t.rowsPerBank - 1) / kCountersPerLine % 64;
    EXPECT_EQ(dirty[0], (uint64_t{1} << 0) | (uint64_t{1} << 5) |
                            (uint64_t{1} << last));
    b.resetCounter(0);
    EXPECT_EQ(b.counter(0), 0u);
    EXPECT_EQ(dirty[0] & 1u, 1u) << "a reset leaves the line marked";
}

TEST(BankDeathTest, StorageOfTheWrongSizeIsFatal)
{
    std::vector<ActCount> slab(smallTiming().rowsPerBank - 1, 0);
    std::vector<uint64_t> dirty(dirtyWordsFor(smallTiming().rowsPerBank), 0);
    EXPECT_EXIT(Bank(smallTiming(), slab, dirty),
                testing::ExitedWithCode(1), "storage size");
}

TEST(BankDeathTest, BitmapOfTheWrongSizeIsFatal)
{
    std::vector<ActCount> slab(smallTiming().rowsPerBank, 0);
    std::vector<uint64_t> dirty(dirtyWordsFor(smallTiming().rowsPerBank) + 1,
                                0);
    EXPECT_EXIT(Bank(smallTiming(), slab, dirty),
                testing::ExitedWithCode(1), "dirty bitmap size");
}

TEST(Bank, CounterIsFreeRunningPastThresholdBits)
{
    Bank b(smallTiming());
    for (int i = 0; i < 300; ++i)
        b.activate(0);
    EXPECT_EQ(b.counter(0), 300u);
}

} // namespace
} // namespace moatsim::dram
