/**
 * @file
 * Unit tests for the common utilities (rng, stats, table,
 * and the strict number grammar of number_text).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/number_text.hh"
#include "common/rng.hh"
#include "common/spec_text.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/time.hh"

namespace moatsim
{
namespace
{

TEST(NumberText, IntegersAreDigitsOnlyAndFitTheirType)
{
    uint64_t u64 = 7;
    EXPECT_TRUE(parseDecimal("18446744073709551615", &u64));
    EXPECT_EQ(u64, UINT64_MAX);
    EXPECT_TRUE(parseDecimal("007", &u64));
    EXPECT_EQ(u64, 7u);
    for (const char *bad : {"", "-1", "+1", " 1", "1 ", "0x10", "1.0", "1e3",
                            "18446744073709551616"}) {
        EXPECT_FALSE(parseDecimal(bad, &u64)) << "'" << bad << "'";
        EXPECT_EQ(u64, 7u) << "rejects leave the value untouched";
    }
    uint32_t u32 = 0;
    EXPECT_TRUE(parseDecimal("4294967295", &u32));
    EXPECT_FALSE(parseDecimal("4294967365", &u32)) << "would wrap to 69";
    int level = 0;
    EXPECT_TRUE(parseDecimal("2147483647", &level));
    EXPECT_FALSE(parseDecimal("2147483648", &level));
    EXPECT_FALSE(parseDecimal("-2", &level));
}

TEST(NumberText, DoublesAreOneWholeTokenWithoutLeadingSpace)
{
    double d = 0.0;
    EXPECT_TRUE(parseDouble("0.10000000000000001", &d));
    EXPECT_EQ(d, 0.1);
    EXPECT_TRUE(parseDouble("-2.5e-3", &d));
    EXPECT_EQ(d, -2.5e-3);
    EXPECT_TRUE(parseDouble("1", &d));
    EXPECT_EQ(d, 1.0);
    for (const char *bad : {"", " 0.5", "\t0.5", "0.5 ", "0.5x", "x", "."}) {
        EXPECT_FALSE(parseDouble(bad, &d)) << "'" << bad << "'";
        EXPECT_EQ(d, 1.0);
    }
}

TEST(NumberText, HexTextIsFixedWidthLowercase)
{
    EXPECT_EQ(hexText(0xabc, 8), "00000abc");
    EXPECT_EQ(hexText(UINT64_MAX, 16), "ffffffffffffffff");
}

TEST(SpecText, SplitListKeepsEveryItem)
{
    EXPECT_EQ(splitList("a,b", ','), (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(splitList("a,,b", ','),
              (std::vector<std::string>{"a", "", "b"}));
    EXPECT_EQ(splitList("a;", ';'), (std::vector<std::string>{"a", ""}));
    EXPECT_EQ(splitList("", ','), (std::vector<std::string>{""}));
}

TEST(SpecText, ParamsComeBackCheckedInKeyTableOrder)
{
    // A toy grammar: "size" must be even and is canonicalized.
    const std::vector<SpecKey> keys = {
        {"size",
         [](std::string &v) -> std::string {
             if (v.size() % 2 != 0)
                 return "odd '" + v + "'";
             v = "<" + v + ">";
             return "";
         }},
        {"mode", [](std::string &) { return std::string(); }},
    };
    const auto params =
        parseSpecParams("toy:mode=fast,size=ab", keys, "toy: ", nullptr);
    ASSERT_TRUE(params.has_value());
    EXPECT_EQ(*params, (std::vector<SpecParam>{{"size", "<ab>"},
                                               {"mode", "fast"}}));
    EXPECT_EQ(describeSpec("toy", *params), "toy:size=<ab>,mode=fast");
    EXPECT_EQ(describeSpec("toy", {}), "toy");
    EXPECT_EQ(specName("toy:mode=fast"), "toy");
    EXPECT_TRUE(parseSpecParams("toy", keys, "toy: ", nullptr)->empty());

    std::string error;
    EXPECT_FALSE(parseSpecParams("toy:size=abc", keys, "toy: ", &error));
    EXPECT_EQ(error, "toy: odd 'abc'");
    EXPECT_FALSE(parseSpecParams("toy:speed=1", keys, "toy: ", &error));
    EXPECT_EQ(error, "toy: unknown key 'speed' (known keys: size, mode)");
    EXPECT_FALSE(
        parseSpecParams("toy:mode=a,mode=b", keys, "toy: ", &error));
    EXPECT_EQ(error, "toy: duplicate key 'mode'");
    EXPECT_FALSE(parseSpecParams("toy:mode=a,", keys, "toy: ", &error));
    EXPECT_EQ(error, "toy: malformed parameter '' (expected key=value)");
    EXPECT_FALSE(parseSpecParams("toy:x=1", {}, "toy: ", &error));
    EXPECT_EQ(error, "toy: unknown key 'x' (known keys: (none))");
}

TEST(Time, UnitConversions)
{
    EXPECT_EQ(fromNs(52), 52'000);
    EXPECT_DOUBLE_EQ(toNs(fromNs(3900)), 3900.0);
    EXPECT_DOUBLE_EQ(toUs(fromNs(1000)), 1.0);
    EXPECT_DOUBLE_EQ(toMs(32 * kMillisecond), 32.0);
}

TEST(Time, SubNanosecondResolutionIsExact)
{
    EXPECT_EQ(fromNs(0.5), 500);
    EXPECT_EQ(kMillisecond, 1'000'000'000);
}

TEST(Rng, Deterministic)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int differ = 0;
    for (int i = 0; i < 16; ++i)
        differ += (a.next() != b.next());
    EXPECT_GT(differ, 0);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(13), 13u);
}

TEST(Rng, InRangeInclusive)
{
    Rng rng(9);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const uint64_t v = rng.inRange(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        saw_lo |= (v == 3);
        saw_hi |= (v == 5);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng rng(11);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(RunningStat, BasicMoments)
{
    RunningStat s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, EmptyIsZero)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Stats, GeomeanOfEqualValues)
{
    std::vector<double> xs(10, 3.0);
    EXPECT_NEAR(geomean(xs), 3.0, 1e-12);
}

TEST(Stats, GeomeanSimple)
{
    std::vector<double> xs = {1.0, 4.0};
    EXPECT_NEAR(geomean(xs), 2.0, 1e-12);
}

TEST(Stats, HarmonicSmallValues)
{
    EXPECT_DOUBLE_EQ(harmonic(1), 1.0);
    EXPECT_DOUBLE_EQ(harmonic(2), 1.5);
    EXPECT_NEAR(harmonic(100), 5.1873775, 1e-6);
}

TEST(Stats, HarmonicLargeUsesAsymptotic)
{
    // H_n ~ ln n + gamma; check continuity across the exact/asymptotic
    // switchover at 1e6.
    const double below = harmonic(999'999);
    const double above = harmonic(1'000'001);
    EXPECT_NEAR(above - below, 2e-6, 1e-7);
}

TEST(Stats, FormatHelpers)
{
    EXPECT_EQ(formatFixed(3.14159, 2), "3.14");
    EXPECT_EQ(formatPercent(0.0028), "0.28%");
    EXPECT_EQ(formatPercent(0.5, 0), "50%");
}

TEST(TablePrinter, AlignsColumns)
{
    TablePrinter tp({"a", "long-header"});
    tp.addRow({"xxxx", "1"});
    std::ostringstream os;
    tp.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("| a    | long-header |"), std::string::npos);
    EXPECT_NE(out.find("| xxxx | 1           |"), std::string::npos);
}

TEST(TablePrinter, SeparatorRows)
{
    TablePrinter tp({"x"});
    tp.addRow({"1"});
    tp.addSeparator();
    tp.addRow({"2"});
    std::ostringstream os;
    tp.print(os);
    // Header sep + mid sep + bottom sep + top = 4 separator lines.
    int seps = 0;
    std::istringstream is(os.str());
    std::string line;
    while (std::getline(is, line))
        seps += (line[0] == '+');
    EXPECT_EQ(seps, 4);
}

} // namespace
} // namespace moatsim
