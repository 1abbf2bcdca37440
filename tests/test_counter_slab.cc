/**
 * @file
 * Recycled PRAC-counter slabs (subchannel/counter_slab.hh): a System
 * built on slabs an earlier replay dirtied reads all zeros, for every
 * registered design, at ABO levels 1 and 4, with the oracle on and off,
 * and with a slab of another shape recycled in between; both re-zero
 * paths (line by line, whole bank) leave nothing behind; and the free
 * list never holds more than its capacity.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "dram/bank.hh"
#include "mitigation/registry.hh"
#include "sim/perf.hh"
#include "sim/run_request.hh"
#include "sim/system.hh"
#include "subchannel/counter_slab.hh"
#include "subchannel/subchannel.hh"
#include "workload/spec.hh"
#include "workload/tracegen.hh"

namespace moatsim::subchannel
{
namespace
{

/** Nonzero PRAC counters across every bank of @p ch. */
uint64_t
nonzeroCounters(const SubChannel &ch)
{
    uint64_t n = 0;
    for (BankId b = 0; b < ch.numBanks(); ++b) {
        const dram::Bank &bank = ch.bank(b);
        for (RowId r = 0; r < bank.numRows(); ++r)
            n += bank.counter(r) != 0 ? 1 : 0;
    }
    return n;
}

/** Nonzero PRAC counters across every sub-channel of @p system. */
uint64_t
nonzeroCounters(const sim::System &system)
{
    uint64_t n = 0;
    for (uint32_t i = 0; i < system.numSubchannels(); ++i)
        n += nonzeroCounters(system.subchannel(i));
    return n;
}

uint64_t
reuses()
{
    return CounterSlab::poolStats().reuses;
}

TEST(CounterSlab, RecycledSystemsStartAtZero)
{
    workload::TraceGenConfig tg;
    tg.windowFraction = 1.0 / 256;
    const auto traces =
        workload::generateTraces(workload::findWorkload("roms"), tg);

    for (const std::string &name : mitigation::Registry::names()) {
        for (const abo::Level level : {abo::Level::L1, abo::Level::L4}) {
            const auto spec = sim::withMoatLevelEntries(
                mitigation::Registry::parse(name), level);
            for (const bool oracle : {false, true}) {
                SCOPED_TRACE(name + " L" +
                             std::to_string(abo::levelValue(level)) +
                             (oracle ? " oracle on" : " oracle off"));
                sim::SystemConfig sys =
                    sim::systemConfigFor(tg, level, 1, std::nullopt);
                sys.channel.securityEnabled = oracle;
                {
                    sim::System first(sys, spec.factory());
                    sim::runSystem(first, traces);
                    ASSERT_GT(nonzeroCounters(first), 0u)
                        << "the replay must leave counts to clear";
                }

                // A one-bank attack channel between the two Systems
                // takes a slab of another shape.
                SubChannelConfig one;
                one.timing = tg.timing;
                one.numBanks = 1;
                one.aboLevel = level;
                one.securityEnabled = oracle;
                {
                    SubChannel ch(one, spec.factory());
                    EXPECT_EQ(nonzeroCounters(ch), 0u);
                    for (int i = 0; i < 400; ++i)
                        ch.activate(0, static_cast<RowId>(i % 7) * 1000);
                    ASSERT_GT(nonzeroCounters(ch), 0u);
                }

                const uint64_t before = reuses();
                sim::System second(sys, spec.factory());
                EXPECT_GE(reuses() - before, second.numSubchannels())
                    << "the second System must run on recycled slabs";
                EXPECT_EQ(nonzeroCounters(second), 0u);
            }
        }
    }
}

TEST(CounterSlab, ReleaseClearsSparseAndWholeBanks)
{
    // A shape no other test uses, with a partial last line (1000 rows
    // is 62.5 lines), so this slab is the one recycled below.
    constexpr uint32_t kBanks = 3;
    constexpr uint32_t kRows = 1000;
    dram::TimingParams t;
    t.rowsPerBank = kRows;
    {
        CounterSlab slab(kBanks, kRows);
        std::vector<dram::Bank> banks;
        for (BankId b = 0; b < kBanks; ++b)
            banks.emplace_back(t, slab.counters(b), slab.dirtyLines(b));
        // Bank 0: every line dirty (the whole-bank path).
        for (RowId r = 0; r < kRows; ++r)
            banks[0].activate(r);
        // Bank 1: three lines, one of them the partial last line.
        for (const RowId r : {RowId{0}, RowId{500}, RowId{kRows - 1}})
            banks[1].activate(r);
        // Bank 2 stays clean.
    }
    const uint64_t before = reuses();
    CounterSlab again(kBanks, kRows);
    ASSERT_EQ(reuses() - before, 1u);
    for (BankId b = 0; b < kBanks; ++b) {
        for (const ActCount c : again.counters(b))
            ASSERT_EQ(c, 0u) << "bank " << b;
        for (const uint64_t w : again.dirtyLines(b))
            ASSERT_EQ(w, 0u) << "bank " << b;
    }
}

TEST(CounterSlab, PoolHoldsAtMostItsCapacity)
{
    const size_t cap = CounterSlab::poolCapacity();
    ASSERT_GE(cap, 2u);
    std::vector<CounterSlab> slabs;
    for (size_t i = 0; i < cap + 3; ++i)
        slabs.emplace_back(1, 64);
    const size_t each = slabs.front().bytes();
    ASSERT_GT(each, 0u);
    slabs.clear();
    // The oldest slabs (any shape) were freed to make room.
    EXPECT_EQ(CounterSlab::poolStats().pooledBytes, cap * each);
}

} // namespace
} // namespace moatsim::subchannel
