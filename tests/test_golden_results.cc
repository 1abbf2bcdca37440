/**
 * @file
 * Golden-result regression harness.
 *
 * Regenerates a small, fast sweep of every registered mitigator (perf
 * cells through the parallel SweepEngine, attack outcomes through
 * runAttack) and byte-compares the JSONL serialization against the
 * checked-in files under tests/golden/. Any intentional change to
 * simulation behaviour must regenerate them:
 *
 *     ./test_golden_results --update-golden
 *     (or MOATSIM_UPDATE_GOLDEN=1 ctest -R golden)
 *
 * Regenerated output is always also written to golden_actual/ in the
 * build directory, so CI can upload the diff as an artifact when the
 * comparison fails.
 *
 * This binary has its own main() (it must see argv before gtest eats
 * it), so CMake links it against gtest, not gtest_main.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "attacks/attack.hh"
#include "dram/device.hh"
#include "sim/coattack.hh"
#include "sim/result_io.hh"
#include "sim/sweep.hh"

#ifndef MOATSIM_GOLDEN_DIR
#error "MOATSIM_GOLDEN_DIR must point at the checked-in golden files"
#endif
#ifndef MOATSIM_GOLDEN_OUT
#define MOATSIM_GOLDEN_OUT "."
#endif

namespace moatsim::sim
{
namespace
{

bool g_update_golden = false;

workload::TraceGenConfig
goldenTracegen()
{
    workload::TraceGenConfig tg;
    tg.banksSimulated = 8;
    tg.numCores = 4;
    tg.windowFraction = 0.015625;
    return tg;
}

/** The golden perf sweep of one registered design: 2 workloads x L1,
 *  run through the parallel engine (jobs=2 exercises the pool). */
std::vector<std::string>
perfLinesFor(const std::string &mitigator, uint32_t subchannels = 1)
{
    SweepConfig sc;
    sc.tracegen = goldenTracegen();
    sc.tracegen.subchannels = subchannels;
    sc.jobs = 2;
    SweepEngine engine(sc);

    std::vector<SweepCell> cells;
    for (const char *w : {"roms", "xz"}) {
        cells.push_back({workload::findWorkload(w),
                         mitigation::Registry::parse(mitigator),
                         abo::Level::L1});
    }
    std::vector<std::string> lines;
    for (const auto &r : engine.run(cells))
        lines.push_back(toJsonLine(r));
    return lines;
}

/**
 * The golden adversary-under-load sweep of one registered design: the
 * hammer and postponement patterns co-scheduled with 2 workloads on
 * the full 2-sub-channel System, run through the parallel sweep
 * engine (jobs=2 exercises the pool and the baseline cache). The
 * attacker sits on (@p subchannel, @p bank).
 */
std::vector<std::string>
coattackLinesFor(const std::string &mitigator, uint32_t subchannel = 0,
                 uint32_t bank = 0)
{
    SweepConfig sc;
    sc.tracegen = goldenTracegen();
    sc.tracegen.subchannels = 2;
    sc.jobs = 2;
    SweepEngine engine(sc);

    std::vector<CoAttackCell> cells;
    for (const char *p : {"hammer", "postponement"}) {
        for (const char *w : {"roms", "xz"}) {
            CoAttackScenario attack;
            attack.pattern = p;
            attack.subchannel = subchannel;
            attack.bank = bank;
            cells.push_back({workload::findWorkload(w),
                             mitigation::Registry::parse(mitigator),
                             abo::Level::L1, attack});
        }
    }
    std::vector<std::string> lines;
    for (const auto &r : engine.run(cells))
        lines.push_back(toJsonLine(r));
    return lines;
}

/** The golden attack matrix: the generic pattern against every design,
 *  each specialized pattern against its natural target, and the
 *  throughput attacks at the pools and banks of Figures 12 and 13 and
 *  Section 7.2. */
std::vector<std::string>
attackLines()
{
    struct AttackCell
    {
        const char *pattern;
        const char *mitigator;
        uint64_t budget;
        uint32_t trials;
        uint32_t poolRows;
        uint32_t banks;
    };
    const AttackCell cells[] = {
        {"hammer", "null", 2048, 0, 0, 0},
        {"hammer", "moat", 2048, 0, 0, 0},
        {"hammer", "panopticon", 2048, 0, 0, 0},
        {"hammer", "panopticon-counter", 2048, 0, 0, 0},
        {"hammer", "ideal-prc", 2048, 0, 0, 0},
        {"round-robin", "moat", 1024, 0, 0, 0},
        {"ratchet", "moat", 0, 0, 0, 0},
        {"jailbreak", "panopticon", 0, 0, 0, 0},
        {"feinting", "ideal-prc", 0, 0, 0, 0},
        {"postponement", "panopticon", 0, 8, 0, 0},
        {"kernel", "moat", 0, 0, 1, 1},
        {"kernel", "moat", 0, 0, 5, 1},
        {"kernel", "moat", 0, 0, 5, 4},
        {"tsa", "moat", 0, 0, 5, 4},
        {"tsa", "moat", 0, 0, 5, 17},
    };
    std::vector<std::string> lines;
    for (const auto &cell : cells) {
        attacks::AttackConfig cfg;
        cfg.pattern = cell.pattern;
        cfg.budget = cell.budget;
        cfg.trials = cell.trials;
        cfg.poolRows = cell.poolRows;
        cfg.banks = cell.banks;
        const auto spec = mitigation::Registry::parse(cell.mitigator);
        lines.push_back(toJsonLine(attacks::runAttack(cfg, spec)));
    }
    return lines;
}

/**
 * The golden knob matrix: one line per way a request's knobs reach a
 * pattern driver beyond the defaults attackLines() pins -- pool size,
 * budget, trials, ABO level, the mitigator's parameters and the
 * device timing -- so a driver that drops or reinterprets one of them
 * shows up as a changed line.
 */
std::vector<std::string>
attackKnobLines()
{
    struct KnobCell
    {
        const char *pattern;
        const char *mitigator;
        abo::Level level;
        uint32_t poolRows;
        uint64_t budget;
        uint32_t trials;
        const char *device;
    };
    using abo::Level;
    const KnobCell cells[] = {
        {"ratchet", "moat:entries=2", Level::L2, 0, 0, 0, ""},
        {"ratchet", "moat:entries=4", Level::L4, 0, 0, 0, ""},
        {"ratchet", "moat", Level::L1, 64, 0, 0, ""},
        // Figure 9's micro examples: ATH + 15 at ATH 32, 64 and 128.
        {"ratchet", "moat:ath=32,eth=16,entries=1", Level::L4, 4, 0, 0, ""},
        {"ratchet", "moat:ath=64,eth=32,entries=1", Level::L4, 4, 0, 0, ""},
        {"ratchet", "moat:ath=128,eth=64,entries=1", Level::L4, 4, 0, 0,
         ""},
        {"ratchet", "moat", Level::L1, 64, 0, 0,
         "device:speed=ddr5-prac-fast"},
        {"jailbreak", "panopticon:entries=2", Level::L1, 0, 0, 0, ""},
        {"jailbreak", "panopticon:entries=4", Level::L1, 0, 0, 0, ""},
        {"jailbreak", "panopticon:entries=16", Level::L1, 0, 0, 0, ""},
        {"jailbreak", "panopticon", Level::L1, 0, 1024, 0, ""},
        {"jailbreak", "panopticon", Level::L1, 0, 0, 0, "device:org=8gb"},
        // A configuration that ALERTs, at a level other than 1.
        {"jailbreak", "panopticon:drain-all=true,drain-per-ref=0",
         Level::L4, 0, 0, 0, ""},
        {"feinting", "ideal-prc:period=2", Level::L1, 0, 0, 0, ""},
        {"feinting", "ideal-prc", Level::L1, 128, 0, 0, ""},
        {"feinting", "ideal-prc", Level::L1, 128, 0, 0,
         "device:org=8gb,speed=ddr5-prac-fast"},
        {"postponement", "panopticon", Level::L1, 0, 0, 16, ""},
        {"postponement", "panopticon:entries=1", Level::L4, 0, 0, 16, ""},
        {"round-robin", "moat", Level::L1, 4, 0, 0, ""},
    };
    std::vector<std::string> lines;
    for (const auto &cell : cells) {
        attacks::AttackConfig cfg;
        if (*cell.device != '\0')
            cfg.timing =
                dram::DeviceSpec::parse(cell.device).resolve().timing();
        cfg.aboLevel = cell.level;
        cfg.pattern = cell.pattern;
        cfg.poolRows = cell.poolRows;
        cfg.budget = cell.budget;
        cfg.trials = cell.trials;
        const auto spec = mitigation::Registry::parse(cell.mitigator);
        lines.push_back(toJsonLine(attacks::runAttack(cfg, spec)));
    }
    return lines;
}

void
writeLines(const std::filesystem::path &path,
           const std::vector<std::string> &lines)
{
    std::filesystem::create_directories(path.parent_path());
    std::ofstream os(path);
    ASSERT_TRUE(os) << "cannot write " << path;
    for (const auto &line : lines)
        os << line << "\n";
}

std::vector<std::string>
readLines(const std::filesystem::path &path)
{
    std::ifstream is(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(is, line))
        lines.push_back(line);
    return lines;
}

/**
 * Compare regenerated lines against the golden file (or rewrite it in
 * update mode). The regenerated lines always land in golden_actual/
 * next to the test binary for CI artifact upload.
 */
void
checkGolden(const std::string &name, const std::vector<std::string> &actual)
{
    const std::filesystem::path golden =
        std::filesystem::path(MOATSIM_GOLDEN_DIR) / name;
    writeLines(std::filesystem::path(MOATSIM_GOLDEN_OUT) / "golden_actual" /
                   name,
               actual);

    if (g_update_golden) {
        writeLines(golden, actual);
        std::cout << "updated " << golden << " (" << actual.size()
                  << " lines)\n";
        return;
    }

    ASSERT_TRUE(std::filesystem::exists(golden))
        << golden << " is missing; run with --update-golden to create it";
    const auto expected = readLines(golden);
    EXPECT_EQ(expected.size(), actual.size())
        << name << ": cell count changed; if intentional, regenerate "
        << "with --update-golden";
    const size_t n = std::min(expected.size(), actual.size());
    for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(expected[i], actual[i])
            << name << " line " << (i + 1) << " diverged\n"
            << "  golden: " << expected[i] << "\n"
            << "  actual: " << actual[i] << "\n"
            << "If the change is intentional, regenerate with "
            << "--update-golden and commit the diff.";
    }
}

class GoldenPerf : public ::testing::TestWithParam<std::string>
{
};

TEST_P(GoldenPerf, MatchesCheckedInResults)
{
    checkGolden("perf_" + GetParam() + ".jsonl", perfLinesFor(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    AllMitigators, GoldenPerf,
    ::testing::ValuesIn(mitigation::Registry::names()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (auto &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

TEST(GoldenAttacks, MatchCheckedInResults)
{
    checkGolden("attack_results.jsonl", attackLines());
}

TEST(GoldenAttacks, KnobVariantsMatchCheckedInResults)
{
    checkGolden("attack_knobs.jsonl", attackKnobLines());
}

class GoldenCoAttack : public ::testing::TestWithParam<std::string>
{
};

TEST_P(GoldenCoAttack, MatchesCheckedInResults)
{
    checkGolden("coattack_" + GetParam() + ".jsonl",
                coattackLinesFor(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    AllMitigators, GoldenCoAttack,
    ::testing::ValuesIn(mitigation::Registry::names()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (auto &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

TEST(GoldenCoAttackOffSlot, MoatMatchesCheckedInResults)
{
    // The attacker off the default slot: sub-channel 1, bank 3. The
    // per-design goldens above all pin slot 0, bank 0.
    checkGolden("coattack_moat_offslot.jsonl",
                coattackLinesFor("moat", 1, 3));
}

TEST(GoldenFormat, CoAttackLinesRoundTripThroughParser)
{
    const auto lines = coattackLinesFor("moat");
    for (const auto &line : lines) {
        const CoAttackResult r = coAttackResultOfJsonLine(line);
        EXPECT_EQ(toJsonLine(r), line);
    }
}

TEST(GoldenSystem, FullSystemSweepMatchesCheckedInResults)
{
    // The 2-sub-channel System path, per-sub-channel breakdowns
    // included, locked down end to end.
    checkGolden("perf_system2_moat.jsonl", perfLinesFor("moat", 2));
}

/**
 * The golden device-grade sweep: a named non-default grade applied via
 * workload::withDevice. Locks the whole device axis end to end -- the
 * speed grade's timing swap, the 2-rank topology with its per-level
 * seed derivation, the device fold in the trace config key, and the
 * JSONL "device" field -- through the same parallel engine as the
 * default-grade goldens.
 */
std::vector<std::string>
deviceLinesFor(const std::string &mitigator, const std::string &device)
{
    SweepConfig sc;
    sc.tracegen = workload::withDevice(
        goldenTracegen(), dram::DeviceSpec::parse(device).resolve());
    sc.jobs = 2;
    SweepEngine engine(sc);

    std::vector<SweepCell> cells;
    for (const char *w : {"roms", "xz"}) {
        cells.push_back({workload::findWorkload(w),
                         mitigation::Registry::parse(mitigator),
                         abo::Level::L1});
    }
    std::vector<std::string> lines;
    for (const auto &r : engine.run(cells))
        lines.push_back(toJsonLine(r));
    return lines;
}

TEST(GoldenDevice, NamedGradeSweepMatchesCheckedInResults)
{
    checkGolden(
        "perf_device_64gb_2r_fast.jsonl",
        deviceLinesFor("moat", "device:org=64gb-2r,speed=ddr5-prac-fast"));
}

TEST(GoldenDevice, NamedGradeLinesCarryTheDeviceTag)
{
    const auto lines =
        deviceLinesFor("moat", "device:org=64gb-2r,speed=ddr5-prac-fast");
    for (const auto &line : lines) {
        EXPECT_NE(line.find("\"device\":\"device:org=64gb-2r,"
                            "speed=ddr5-prac-fast\""),
                  std::string::npos)
            << line;
        const PerfResult r = perfResultOfJsonLine(line);
        EXPECT_EQ(toJsonLine(r), line);
    }
}

TEST(GoldenFormat, PerfLinesRoundTripThroughParser)
{
    // The golden files stay useful to external tooling only if the
    // serialization is parseable; round-trip one file's worth.
    const auto lines = perfLinesFor("moat");
    for (const auto &line : lines) {
        const PerfResult r = perfResultOfJsonLine(line);
        EXPECT_EQ(toJsonLine(r), line);
    }
}

} // namespace
} // namespace moatsim::sim

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--update-golden")
            moatsim::sim::g_update_golden = true;
    }
    if (const char *env = std::getenv("MOATSIM_UPDATE_GOLDEN")) {
        if (env[0] != '\0' && env[0] != '0')
            moatsim::sim::g_update_golden = true;
    }
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
