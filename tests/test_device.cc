/**
 * @file
 * Tests of the named DDR5 device model (dram/device.hh): spec
 * parse/describe round-trips and error text, the default grade's
 * bit-exact equivalence with the hand-assembled Table-3 system, the
 * geometry each preset resolves to, and the per-level seed-derivation
 * determinism of channels x ranks x sub-channels sweeps.
 */

#include <gtest/gtest.h>

#include "common/hash.hh"
#include "common/logging.hh"
#include "dram/device.hh"
#include "mitigation/registry.hh"
#include "sim/result_io.hh"
#include "sim/sweep.hh"
#include "sim/system.hh"
#include "workload/tracegen.hh"

namespace moatsim::dram
{
namespace
{

class DeviceTest : public ::testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }
    void TearDown() override { setQuiet(false); }
};

// ------------------------------------------------------ spec round-trip

TEST_F(DeviceTest, DefaultSpecDescribesBare)
{
    EXPECT_EQ(DeviceSpec{}.describe(), "device");
    EXPECT_TRUE(DeviceSpec{}.isDefault());
    EXPECT_EQ(DeviceSpec{}.org(), defaultDeviceOrg());
    EXPECT_EQ(DeviceSpec{}.speed(), defaultDeviceSpeed());
}

TEST_F(DeviceTest, DescribeReproducesGivenKeysOnly)
{
    EXPECT_EQ(DeviceSpec::parse("device").describe(), "device");
    EXPECT_EQ(DeviceSpec::parse("device:org=8gb").describe(),
              "device:org=8gb");
    EXPECT_EQ(DeviceSpec::parse("device:speed=ddr5-prac-fast").describe(),
              "device:speed=ddr5-prac-fast");
}

TEST_F(DeviceTest, DescribeCanonicalizesKeyOrder)
{
    const auto spec =
        DeviceSpec::parse("device:speed=ddr5-prac-slow,org=16gb");
    EXPECT_EQ(spec.describe(), "device:org=16gb,speed=ddr5-prac-slow");
    // parse(describe()) is a fixed point.
    EXPECT_EQ(DeviceSpec::parse(spec.describe()).describe(),
              spec.describe());
}

TEST_F(DeviceTest, NamingTheDefaultsIsStillDefault)
{
    const auto spec =
        DeviceSpec::parse("device:org=32gb,speed=ddr5-prac");
    EXPECT_TRUE(spec.isDefault());
    // describe() keeps the spelled-out form (round-trip fidelity) ...
    EXPECT_EQ(spec.describe(), "device:org=32gb,speed=ddr5-prac");
    // ... but resolves to the same model as the bare spec.
    EXPECT_EQ(spec.resolve().totalBanks(),
              DeviceModel{}.totalBanks());
}

TEST_F(DeviceTest, EveryPresetCombinationRoundTrips)
{
    for (const auto &o : deviceOrgs()) {
        for (const auto &s : deviceSpeeds()) {
            const std::string text =
                "device:org=" + o.name + ",speed=" + s.name;
            const auto spec = DeviceSpec::parse(text);
            EXPECT_EQ(spec.describe(), text);
            const DeviceModel m = spec.resolve();
            EXPECT_EQ(m.org().name, o.name);
            EXPECT_EQ(m.speed().name, s.name);
            EXPECT_EQ(m.describe(), text);
        }
    }
}

// ---------------------------------------------------------- error text

TEST_F(DeviceTest, TryParseReportsUnknownNames)
{
    std::string error;
    EXPECT_FALSE(DeviceSpec::tryParse("dram:org=32gb", &error));
    EXPECT_EQ(error, "unknown device spec 'dram' (expected "
                     "device:org=...,speed=...)");

    EXPECT_FALSE(DeviceSpec::tryParse(":org=32gb", &error));
    EXPECT_EQ(error, "empty device name in ':org=32gb' (expected "
                     "device:org=...,speed=...)");
}

TEST_F(DeviceTest, TryParseReportsUnknownOrgAndSpeed)
{
    std::string error;
    EXPECT_FALSE(DeviceSpec::tryParse("device:org=99gb", &error));
    EXPECT_EQ(error,
              "device: unknown org '99gb' (known: 32gb, 8gb, 16gb, "
              "64gb-2r, 64gb-2ch, 128gb-2r2ch)");

    EXPECT_FALSE(DeviceSpec::tryParse("device:speed=ddr4", &error));
    EXPECT_EQ(error, "device: unknown speed 'ddr4' (known: ddr5-prac, "
                     "ddr5-prac-fast, ddr5-prac-slow)");
}

TEST_F(DeviceTest, TryParseReportsMalformedParameters)
{
    std::string error;
    EXPECT_FALSE(DeviceSpec::tryParse("device:org", &error));
    EXPECT_EQ(error,
              "device: malformed parameter 'org' (expected key=value)");

    EXPECT_FALSE(DeviceSpec::tryParse("device:org=", &error));
    EXPECT_EQ(error,
              "device: malformed parameter 'org=' (expected key=value)");

    EXPECT_FALSE(DeviceSpec::tryParse("device:rows=64", &error));
    EXPECT_EQ(error,
              "device: unknown key 'rows' (known keys: org, speed)");

    EXPECT_FALSE(
        DeviceSpec::tryParse("device:org=8gb,org=16gb", &error));
    EXPECT_EQ(error, "device: duplicate key 'org'");
}

// --------------------------------------------- default-grade identity

TEST_F(DeviceTest, DefaultTimingEqualsHandAssembledDefaults)
{
    const TimingParams def;
    const TimingParams t = DeviceModel{}.timing();
    EXPECT_EQ(t.tACT, def.tACT);
    EXPECT_EQ(t.tPRE, def.tPRE);
    EXPECT_EQ(t.tRAS, def.tRAS);
    EXPECT_EQ(t.tRC, def.tRC);
    EXPECT_EQ(t.tREFW, def.tREFW);
    EXPECT_EQ(t.tREFI, def.tREFI);
    EXPECT_EQ(t.tRFC, def.tRFC);
    EXPECT_EQ(t.tRRD, def.tRRD);
    EXPECT_EQ(t.tFAW, def.tFAW);
    EXPECT_EQ(t.tRFM, def.tRFM);
    EXPECT_EQ(t.tAlertNormal, def.tAlertNormal);
    EXPECT_EQ(t.rowsPerBank, def.rowsPerBank);
    EXPECT_EQ(t.banksPerSubchannel, def.banksPerSubchannel);
    EXPECT_EQ(t.refreshGroups, def.refreshGroups);
    EXPECT_EQ(t.blastRadius, def.blastRadius);
}

TEST_F(DeviceTest, WithDeviceDefaultGradeIsIdentity)
{
    const workload::TraceGenConfig base;
    const workload::TraceGenConfig derived =
        workload::withDevice(base, DeviceModel{});
    // Field-for-field identical -- the config key, every derived seed,
    // and the JSONL output stay bit-identical to the legacy pipeline.
    EXPECT_EQ(derived.device, "");
    EXPECT_EQ(derived.channels, base.channels);
    EXPECT_EQ(derived.ranks, base.ranks);
    EXPECT_EQ(derived.systemBanks, base.systemBanks);
    EXPECT_EQ(derived.timing.tRC, base.timing.tRC);
    EXPECT_EQ(derived.timing.rowsPerBank, base.timing.rowsPerBank);
    EXPECT_EQ(workload::configKey(derived), workload::configKey(base));
}

// ------------------------------------------------------------ geometry

TEST_F(DeviceTest, PresetGeometry)
{
    const DeviceModel small =
        DeviceSpec::parse("device:org=8gb").resolve();
    EXPECT_EQ(small.rowsPerBank(), kTable3RowsPerBank / 4);
    EXPECT_EQ(small.banksPerSubchannel(), kTable3BanksPerSubchannel);
    EXPECT_EQ(small.totalSubchannelSlots(), 2u);

    const DeviceModel big =
        DeviceSpec::parse("device:org=128gb-2r2ch").resolve();
    EXPECT_EQ(big.channels(), 2u);
    EXPECT_EQ(big.ranks(), 2u);
    EXPECT_EQ(big.totalSubchannelSlots(), 8u);
    EXPECT_EQ(big.totalBanks(), 8u * 32u);
}

TEST_F(DeviceTest, SpeedGradeTimings)
{
    const DeviceModel fast =
        DeviceSpec::parse("device:speed=ddr5-prac-fast").resolve();
    const TimingParams t = fast.timing();
    EXPECT_EQ(t.tRC, fromNs(44));
    EXPECT_EQ(t.tRFC, fromNs(350));
    // Geometry still comes from the (default) org.
    EXPECT_EQ(t.rowsPerBank, kTable3RowsPerBank);
    // The PRAC counter-update cost is the tPRE/tACT gap per JEDEC.
    EXPECT_EQ(fast.speed().pracIncrement,
              fast.speed().tPRE - fast.speed().tACT);
}

// ------------------------------------------- per-level seed derivation

TEST_F(DeviceTest, SystemSlotSeedsFollowTheLevelScheme)
{
    const auto factory = mitigation::Registry::parse("moat").factory();

    sim::SystemConfig flat;
    flat.channel.seed = 99;
    flat.channel.numBanks = 4;
    flat.subchannels = 3;
    const sim::System legacy(flat, factory);
    for (uint32_t i = 0; i < 3; ++i)
        EXPECT_EQ(legacy.subchannel(i).config().seed, hashCombine(99, i));

    sim::SystemConfig deep = flat;
    deep.channels = 2;
    deep.ranks = 2;
    deep.subchannels = 2;
    const sim::System system(deep, factory);
    ASSERT_EQ(system.numSubchannels(), 8u);
    for (uint32_t c = 0; c < 2; ++c) {
        for (uint32_t r = 0; r < 2; ++r) {
            for (uint32_t s = 0; s < 2; ++s) {
                const uint64_t want = hashCombine(
                    hashCombine(hashCombine(uint64_t{99}, c), r), s);
                const uint32_t slot = system.slotIndex(c, r, s);
                EXPECT_EQ(system.subchannel(slot).config().seed, want)
                    << "slot " << slot;
            }
        }
    }
}

TEST_F(DeviceTest, MultiTopologySweepBitIdenticalAcrossJobCounts)
{
    // The acceptance bar: a channels x ranks x sub-channels device
    // sweep is deterministic at any --jobs count, bit-identically.
    workload::TraceGenConfig tg;
    tg.banksSimulated = 4;
    tg.numCores = 4;
    tg.windowFraction = 0.015625;
    tg.subchannels = 2; // withDevice keeps the simulated slice size
    tg = workload::withDevice(
        tg, DeviceSpec::parse("device:org=128gb-2r2ch,"
                              "speed=ddr5-prac-fast")
                .resolve());

    std::vector<sim::SweepCell> cells;
    for (const char *w : {"roms", "xz"}) {
        cells.push_back({workload::findWorkload(w),
                         mitigation::Registry::parse("moat"),
                         abo::Level::L1});
    }

    std::vector<std::vector<sim::PerfResult>> runs;
    for (const unsigned jobs : {1u, 8u}) {
        sim::SweepConfig sc;
        sc.tracegen = tg;
        sc.jobs = jobs;
        sim::SweepEngine engine(sc);
        runs.push_back(engine.run(cells));
    }
    ASSERT_EQ(runs[0].size(), runs[1].size());
    for (size_t i = 0; i < runs[0].size(); ++i) {
        EXPECT_EQ(sim::toJsonLine(runs[0][i]),
                  sim::toJsonLine(runs[1][i]))
            << "cell " << i;
        // Every cell simulated the full 2x2x2 slot grid and carries
        // the device tag into the serialized result.
        EXPECT_EQ(runs[0][i].perSubchannel.size(), 8u);
        EXPECT_EQ(runs[0][i].device,
                  "device:org=128gb-2r2ch,speed=ddr5-prac-fast");
        EXPECT_NE(sim::toJsonLine(runs[0][i]).find("\"device\":"),
                  std::string::npos);
    }
}

TEST_F(DeviceTest, DeviceGradeChangesTheConfigKey)
{
    // Different grades must never share traces, baselines, or seeds.
    const workload::TraceGenConfig base;
    const auto fast = workload::withDevice(
        base, DeviceSpec::parse("device:speed=ddr5-prac-fast").resolve());
    const auto slow = workload::withDevice(
        base, DeviceSpec::parse("device:speed=ddr5-prac-slow").resolve());
    EXPECT_NE(workload::configKey(fast), workload::configKey(base));
    EXPECT_NE(workload::configKey(fast), workload::configKey(slow));
}

TEST_F(DeviceTest, ResultDeviceFieldRoundTripsThroughJsonl)
{
    sim::PerfResult r;
    r.workload = "roms";
    r.mitigator = "moat";
    r.device = "device:org=8gb";
    const std::string line = sim::toJsonLine(r);
    EXPECT_NE(line.find("\"device\":\"device:org=8gb\""),
              std::string::npos);
    EXPECT_EQ(sim::perfResultOfJsonLine(line).device, "device:org=8gb");

    // Absent field decodes as the empty (legacy) tag.
    r.device.clear();
    const std::string bare = sim::toJsonLine(r);
    EXPECT_EQ(bare.find("\"device\":"), std::string::npos);
    EXPECT_EQ(sim::perfResultOfJsonLine(bare).device, "");
}

} // namespace
} // namespace moatsim::dram
