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

TEST(BankDeathTest, StorageOfTheWrongSizeIsFatal)
{
    std::vector<ActCount> slab(smallTiming().rowsPerBank - 1, 0);
    EXPECT_EXIT(Bank(smallTiming(), std::span<ActCount>(slab)),
                testing::ExitedWithCode(1), "storage size");
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
