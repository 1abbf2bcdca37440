/**
 * @file
 * Tests of the Table-4 workload specs and the synthetic trace
 * generator's calibration.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>
#include <string>

#include "workload/spec.hh"
#include "workload/tracegen.hh"

namespace moatsim::workload
{
namespace
{

TEST(Spec, TwentyOneWorkloads)
{
    EXPECT_EQ(table4Workloads().size(), 21u);
}

TEST(Spec, TierCountsAreCumulative)
{
    for (const auto &w : table4Workloads()) {
        EXPECT_GE(w.act32, w.act64) << w.name;
        EXPECT_GE(w.act64, w.act128) << w.name;
    }
}

TEST(Spec, PaperSpotChecks)
{
    const auto &roms = findWorkload("roms");
    EXPECT_DOUBLE_EQ(roms.actPki, 9.6);
    EXPECT_EQ(roms.act64, 995u);
    EXPECT_EQ(roms.act128, 431u);
    const auto &cc = findWorkload("cc");
    EXPECT_TRUE(cc.isGap);
    EXPECT_DOUBLE_EQ(cc.actPki, 71.5);
    const auto &tc = findWorkload("tc");
    EXPECT_EQ(tc.act64, 0u);
}

TEST(SpecDeathTest, UnknownWorkloadIsFatal)
{
    EXPECT_EXIT(findWorkload("nosuch"), testing::ExitedWithCode(1),
                "unknown");
}

TEST(Spec, AverageAct64BelowMitigationCapacity)
{
    // Table 4's observation: average ACT-64+ rows < 1400, which the
    // REF-time mitigation (1638 per tREFW) can absorb.
    double sum = 0;
    for (const auto &w : table4Workloads())
        sum += w.act64;
    EXPECT_LT(sum / 21.0, 1400.0);
}

struct TraceGenTest : public ::testing::Test
{
    TraceGenConfig cfg = [] {
        TraceGenConfig c;
        c.banksSimulated = 8; // small and fast
        c.windowFraction = 0.0625;
        return c;
    }();
};

TEST_F(TraceGenTest, TracesAreSortedAndInWindow)
{
    const auto &spec = findWorkload("omnetpp");
    const auto traces = generateTraces(spec, cfg);
    ASSERT_EQ(traces.size(), cfg.numCores);
    for (const auto &t : traces) {
        EXPECT_GT(t.events.size(), 0u);
        for (size_t i = 1; i < t.events.size(); ++i)
            EXPECT_LE(t.events[i - 1].at, t.events[i].at);
        for (const auto &e : t.events) {
            EXPECT_GE(e.at, 0);
            EXPECT_LT(e.at, t.window);
            EXPECT_LT(e.bank, cfg.banksSimulated);
        }
    }
}

TEST_F(TraceGenTest, CoresUseDisjointRowRanges)
{
    const auto &spec = findWorkload("mcf");
    const auto traces = generateTraces(spec, cfg);
    const uint32_t rows_per_core =
        cfg.timing.rowsPerBank / cfg.numCores;
    for (uint32_t c = 0; c < cfg.numCores; ++c) {
        for (const auto &e : traces[c].events) {
            EXPECT_GE(e.row, c * rows_per_core);
            EXPECT_LT(e.row, (c + 1) * rows_per_core);
        }
    }
}

TEST_F(TraceGenTest, CensusMatchesTable4Tiers)
{
    // The generator's whole purpose: the per-bank-per-tREFW tier
    // census must reproduce Table 4 within sampling error, for every
    // workload of the suite.
    for (const WorkloadSpec &spec : table4Workloads()) {
        const std::string &name = spec.name;
        const auto traces = generateTraces(spec, cfg);
        const TierCensus census = censusOf(traces, cfg, spec);
        EXPECT_NEAR(census.act32, spec.act32, spec.act32 * 0.15 + 40)
            << name;
        EXPECT_NEAR(census.act64, spec.act64, spec.act64 * 0.15 + 40)
            << name;
        EXPECT_NEAR(census.act128, spec.act128, spec.act128 * 0.15 + 40)
            << name;
    }

    // And the ACT-PKI, at 1/8 tREFW: within 2% of Table 4, except on
    // the workloads listed here, whose hot-row tiers ask for more ACTs
    // than the PKI budget of the instructions effectiveIpc() sizes
    // (budget = max(PKI budget, hot ACTs)). They must stay outside the
    // band, so a generator fix has to move them off this list.
    const std::set<std::string> deviates = {
        "cactuBSSN", // 3.6 -> 9.3
        "blender",   // 1.1 -> 2.3
        "gcc",       // 0.6 -> 0.9
        "xalancbmk", // 0.9 -> 1.2
        "wrf",       // 0.8 -> 1.0
        "xz",        // 8.8 -> 9.3
    };
    constexpr double kPkiBand = 0.02;
    auto cfg8 = cfg;
    cfg8.windowFraction = 0.125;
    for (const WorkloadSpec &spec : table4Workloads()) {
        const double pki =
            censusOf(generateTraces(spec, cfg8), cfg8, spec).actPki;
        const double off = std::abs(pki / spec.actPki - 1.0);
        if (deviates.contains(spec.name))
            EXPECT_GT(off, kPkiBand) << spec.name << " ACT-PKI " << pki;
        else
            EXPECT_LE(off, kPkiBand) << spec.name << " ACT-PKI " << pki;
    }
}

TEST_F(TraceGenTest, DeterministicForSameSeed)
{
    const auto &spec = findWorkload("bfs");
    const auto a = generateTraces(spec, cfg);
    const auto b = generateTraces(spec, cfg);
    ASSERT_EQ(a.size(), b.size());
    for (size_t c = 0; c < a.size(); ++c) {
        ASSERT_EQ(a[c].events.size(), b[c].events.size());
        for (size_t i = 0; i < a[c].events.size(); i += 101) {
            EXPECT_EQ(a[c].events[i].row, b[c].events[i].row);
            EXPECT_EQ(a[c].events[i].at, b[c].events[i].at);
        }
    }
}

TEST_F(TraceGenTest, SubChannelEmissionSpansAndBalances)
{
    // Full-system emission: events carry a valid sub-channel, both
    // sub-channels see traffic, and the split is roughly even (every
    // core's banks spread across the system).
    auto cfg2 = cfg;
    cfg2.subchannels = 2;
    const auto &spec = findWorkload("omnetpp");
    const auto traces = generateTraces(spec, cfg2);
    uint64_t per_sc[2] = {0, 0};
    for (const auto &t : traces) {
        for (const auto &e : t.events) {
            ASSERT_LT(e.subchannel, 2u);
            EXPECT_LT(e.bank, cfg2.banksSimulated);
            ++per_sc[e.subchannel];
        }
    }
    ASSERT_GT(per_sc[0], 0u);
    ASSERT_GT(per_sc[1], 0u);
    const double ratio = static_cast<double>(per_sc[0]) /
                         static_cast<double>(per_sc[1]);
    EXPECT_NEAR(ratio, 1.0, 0.2);

    // Single-sub-channel emission stays on sub-channel 0.
    for (const auto &t : generateTraces(spec, cfg)) {
        for (const auto &e : t.events)
            ASSERT_EQ(e.subchannel, 0u);
    }
}

TEST_F(TraceGenTest, BankIsTheRawBankXorTheRowBits)
{
    // Placement XORs a flat bank's index with the row's low bits (the
    // bank hash of the Table-3 mapping). Each core gives every raw
    // (slot, bank) exactly floor(PKI budget) ACTs when that budget
    // covers the hot rows, as it does for bwaves; so undoing the XOR
    // must give every raw bank the same count, and each raw bank's
    // rows must land on every bank.
    auto cfg2 = cfg;
    cfg2.subchannels = 2;
    const uint32_t banks = cfg2.banksSimulated;
    for (const auto &t : generateTraces(findWorkload("bwaves"), cfg2)) {
        std::vector<uint64_t> acts(2 * banks, 0);
        std::vector<std::set<BankId>> landed(2 * banks);
        for (const auto &e : t.events) {
            ASSERT_LT(e.subchannel, 2u);
            const uint32_t raw =
                e.subchannel * banks + (e.bank ^ (e.row & (banks - 1)));
            ++acts[raw];
            landed[raw].insert(e.bank);
        }
        ASSERT_GT(acts[0], 0u);
        for (uint32_t raw = 0; raw < 2 * banks; ++raw) {
            EXPECT_EQ(acts[raw], acts[0]) << "raw bank " << raw;
            EXPECT_EQ(landed[raw].size(), banks) << "raw bank " << raw;
        }
    }
}

TEST_F(TraceGenTest, SubChannelCountMovesTheConfigKey)
{
    auto cfg2 = cfg;
    cfg2.subchannels = 2;
    EXPECT_NE(configKey(cfg), configKey(cfg2));
}

TEST_F(TraceGenTest, CensusHoldsOnTheFullSystem)
{
    // The per-bank tier census must survive the sub-channel split --
    // the whole point of routing instead of duplicating traffic.
    auto cfg2 = cfg;
    cfg2.subchannels = 2;
    const auto &spec = findWorkload("roms");
    const auto traces = generateTraces(spec, cfg2);
    const TierCensus census = censusOf(traces, cfg2, spec);
    EXPECT_NEAR(census.act64, spec.act64, spec.act64 * 0.15 + 40);
    EXPECT_NEAR(census.act128, spec.act128, spec.act128 * 0.15 + 40);
}

TEST_F(TraceGenTest, EffectiveIpcCapsMemoryBoundWorkloads)
{
    // cc at 71.5 ACT-PKI cannot run at the nominal IPC of 2.
    EXPECT_LT(effectiveIpc(findWorkload("cc"), cfg), 0.5);
    // xalancbmk at 0.9 ACT-PKI is compute bound: full IPC.
    EXPECT_DOUBLE_EQ(effectiveIpc(findWorkload("xalancbmk"), cfg), 2.0);
}

TEST_F(TraceGenTest, HotMassNeverExceedsBankTime)
{
    // Whatever the spec, the generated per-bank activation count must
    // fit the bank's command bandwidth in the window.
    for (const auto &spec : table4Workloads()) {
        const auto traces = generateTraces(spec, cfg);
        std::vector<uint64_t> per_bank(cfg.banksSimulated, 0);
        for (const auto &t : traces) {
            for (const auto &e : t.events)
                ++per_bank[e.bank];
        }
        const uint64_t capacity = static_cast<uint64_t>(
            traces.front().window / cfg.timing.tRC);
        for (uint32_t b = 0; b < cfg.banksSimulated; ++b) {
            EXPECT_LE(per_bank[b], capacity * 11 / 10)
                << spec.name << " bank " << b;
        }
    }
}

TEST(TierCensus, SlotsTwoHundredFiftySixApartAreDistinctRows)
{
    // The census key packs slot, bank and row exactly, so the same
    // (bank, row) on slots 0 and 256 is two rows of 64 ACTs each,
    // not one row of 128.
    TraceGenConfig cfg;
    cfg.banksSimulated = 1;
    cfg.subchannels = 512;
    cfg.windowFraction = 1.0;
    std::vector<CoreTrace> traces(1);
    traces[0].window = fromNs(1000);
    for (const uint16_t slot : {uint16_t{0}, uint16_t{256}}) {
        for (int i = 0; i < 64; ++i) {
            traces[0].events.push_back(
                {.at = i, .row = 5, .bank = 3, .subchannel = slot});
        }
    }
    const TierCensus census = censusOf(traces, cfg, findWorkload("roms"));
    // Counts are rescaled by banksSimulated x slots x windowFraction.
    const double denom = 512.0;
    EXPECT_DOUBLE_EQ(census.act32 * denom, 2.0);
    EXPECT_DOUBLE_EQ(census.act64 * denom, 2.0);
    EXPECT_DOUBLE_EQ(census.act128 * denom, 0.0);
}

TEST(TraceGenDeathTest, SlotsBeyondSixteenBitsFatal)
{
    // 2^17 sub-channel slots cannot be carried in TraceEvent's 16-bit
    // slot field; generation must refuse rather than wrap. systemBanks
    // stays at its default, so without the slot check the banks check
    // fails instead of generating 2^17 slots of traffic.
    TraceGenConfig cfg;
    cfg.banksSimulated = 1;
    cfg.subchannels = uint32_t{1} << 17;
    EXPECT_EXIT(generateTraces(findWorkload("roms"), cfg),
                testing::ExitedWithCode(1), "131072 replay slots");
}

TEST(TraceGenDeathTest, WindowPastTheSortRangeFatal)
{
    // The radix sort covers times below 2^36 ps (~68.7 ms). A direct
    // caller's windowFraction of 2.5 asks for 80 ms of a 32 ms tREFW;
    // generation must refuse and name the window, not wrap.
    TraceGenConfig cfg;
    cfg.windowFraction = 2.5;
    EXPECT_EXIT(generateTraces(findWorkload("roms"), cfg),
                testing::ExitedWithCode(1),
                "window of 80000000000 ps .* reaches the trace sort's "
                "2\\^36 ps range");
}

} // namespace
} // namespace moatsim::workload
