/**
 * @file
 * Self-tests of the moatlint determinism linter (tools/moatlint).
 *
 * Four layers:
 *   - per-rule fixture snippets through lintSource(): each rule fires
 *     on its target idiom and stays quiet on the sanctioned
 *     alternative (comments and string literals never trigger);
 *   - the suppression machinery round-trip: same-line and standalone
 *     allow() comments, multi-line justifications, stacking, the
 *     bad-suppression diagnostics for unknown rules or missing
 *     justifications, and the stale-suppression audit;
 *   - the keylint semantic pass through lintFiles(): key-source
 *     coverage (direct folds, helper closures, member folds, nested
 *     delegation), key-exempt leaks, drift diagnostics, and the
 *     mutate-check oracle that proves the pass catches a dropped fold;
 *   - the real tree (MOATSIM_SOURCE_DIR) through lintTree()/
 *     lintFiles(): the clean-tree gate CI enforces -- zero
 *     unsuppressed findings across src/, tools/, and tests/ -- plus
 *     the invariants the linter exists to keep true (JSONL %.17g,
 *     cache keys sound).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "moatlint/keylint.hh"
#include "moatlint/lint.hh"

namespace
{

using moatlint::Finding;
using moatlint::lintFiles;
using moatlint::lintSource;
using moatlint::lintTree;
using moatlint::mutateCheck;
using moatlint::passOf;
using moatlint::reportJson;
using moatlint::reportSarif;
using moatlint::SourceFile;
using moatlint::unsuppressedCount;

/** Findings of @p rule (suppressed included). */
std::vector<Finding>
ofRule(const std::vector<Finding> &findings, const std::string &rule)
{
    std::vector<Finding> out;
    for (const auto &f : findings) {
        if (f.rule == rule)
            out.push_back(f);
    }
    return out;
}

/** Lines of unsuppressed @p rule findings. */
std::vector<int>
linesOf(const std::vector<Finding> &findings, const std::string &rule)
{
    std::vector<int> lines;
    for (const auto &f : ofRule(findings, rule)) {
        if (!f.suppressed)
            lines.push_back(f.line);
    }
    return lines;
}

// ------------------------------------------------------------ std-hash

TEST(MoatlintStdHash, FlagsInstantiation)
{
    const auto f = lintSource(
        "src/sim/x.cc",
        "uint64_t k = std::hash<std::string>{}(name);\n");
    EXPECT_EQ(linesOf(f, "std-hash"), (std::vector<int>{1}));
}

TEST(MoatlintStdHash, QuietOnStableHash)
{
    const auto f = lintSource(
        "src/sim/x.cc",
        "uint64_t k = common::stableHash64(name);\n"
        "uint64_t c = common::hashCombine(k, 7);\n");
    EXPECT_TRUE(ofRule(f, "std-hash").empty());
}

TEST(MoatlintStdHash, QuietInCommentAndString)
{
    const auto f = lintSource(
        "src/sim/x.cc",
        "// std::hash<int> is banned here\n"
        "const char *s = \"std::hash<int>\";\n");
    EXPECT_TRUE(ofRule(f, "std-hash").empty());
}

// ----------------------------------------------------------- libc-rand

TEST(MoatlintLibcRand, FlagsRandCalls)
{
    const auto f = lintSource("src/sim/x.cc",
                              "int a = rand() % 7;\n"
                              "int b = std::rand();\n"
                              "srand(42);\n"
                              "std::random_device rd;\n");
    EXPECT_EQ(linesOf(f, "libc-rand"), (std::vector<int>{1, 2, 3, 4}));
}

TEST(MoatlintLibcRand, QuietOnMemberAndPrefixNames)
{
    // Member functions and identifiers merely containing "rand" are
    // someone else's business.
    const auto f = lintSource("src/sim/x.cc",
                              "int a = rng.rand();\n"
                              "int b = gen->rand();\n"
                              "int operand = my_rand_count;\n"
                              "int c = brand();\n");
    EXPECT_TRUE(ofRule(f, "libc-rand").empty());
}

// ---------------------------------------------------------- wall-clock

TEST(MoatlintWallClock, FlagsClockReads)
{
    const auto f = lintSource(
        "src/sim/x.cc",
        "auto t = std::chrono::steady_clock::now();\n"
        "auto u = std::chrono::system_clock::now();\n"
        "time_t v = time(nullptr);\n"
        "clock_gettime(CLOCK_MONOTONIC, &ts);\n");
    EXPECT_EQ(linesOf(f, "wall-clock"), (std::vector<int>{1, 2, 3, 4}));
}

TEST(MoatlintWallClock, QuietOnSimulationTime)
{
    const auto f = lintSource(
        "src/sim/x.cc",
        "Time t = picoseconds(5);\n"
        "uint64_t lifetime = spec.lifetime;\n" // substring, not a call
        "double realtime_factor = 2.0;\n");
    EXPECT_TRUE(ofRule(f, "wall-clock").empty());
}

// ------------------------------------------------------ unordered-iter

TEST(MoatlintUnorderedIter, FlagsRangeForAndBegin)
{
    const auto f = lintSource(
        "src/sim/x.cc",
        "std::unordered_map<uint64_t, int> counts;\n"
        "void scan() {\n"
        "    for (const auto &[k, v] : counts) { use(k, v); }\n"
        "    for (auto it = counts.begin(); it != counts.end(); ++it)\n"
        "        use(*it);\n"
        "}\n");
    EXPECT_EQ(linesOf(f, "unordered-iter"), (std::vector<int>{3, 4}));
}

TEST(MoatlintUnorderedIter, QuietOnLookupAndEndSentinel)
{
    const auto f = lintSource(
        "src/sim/x.cc",
        "std::unordered_map<uint64_t, int> counts;\n"
        "bool has(uint64_t k) { return counts.find(k) != counts.end(); }\n"
        "auto sentinel() { return counts.end(); }\n"
        "int get(uint64_t k) { return counts.at(k); }\n");
    EXPECT_TRUE(ofRule(f, "unordered-iter").empty());
}

TEST(MoatlintUnorderedIter, QuietOnOrderedContainers)
{
    const auto f = lintSource(
        "src/sim/x.cc",
        "std::map<uint64_t, int> counts;\n"
        "void scan() { for (const auto &[k, v] : counts) use(k, v); }\n");
    EXPECT_TRUE(ofRule(f, "unordered-iter").empty());
}

TEST(MoatlintUnorderedIter, ExtraNamesCoverHeaderMembers)
{
    // A .cc iterating a member declared in its header is caught when
    // the header's declarations are passed through (lintTree does).
    const std::string cc =
        "void Store::scan() { for (const auto &e : entries_) use(e); }\n";
    EXPECT_TRUE(ofRule(lintSource("src/sim/x.cc", cc), "unordered-iter")
                    .empty());
    EXPECT_EQ(linesOf(lintSource("src/sim/x.cc", cc, {"entries_"}),
                      "unordered-iter"),
              (std::vector<int>{1}));
}

// ------------------------------------------------------- pointer-order

TEST(MoatlintPointerOrder, FlagsCastLessAndComparator)
{
    const auto f = lintSource(
        "src/sim/x.cc",
        "uint64_t k = reinterpret_cast<uintptr_t>(p);\n"
        "std::set<Foo *, std::less<Foo *>> s;\n"
        "auto cmp = [](const Foo *a, const Foo *b) { return a < b; };\n");
    EXPECT_EQ(linesOf(f, "pointer-order"), (std::vector<int>{1, 2, 3}));
}

TEST(MoatlintPointerOrder, QuietOnEqualityAndStableKeys)
{
    const auto f = lintSource(
        "src/sim/x.cc",
        "bool same = (a == b);\n"
        "auto cmp = [](const Foo *a, const Foo *b)\n"
        "    { return a->id < b->id; };\n");
    EXPECT_TRUE(ofRule(f, "pointer-order").empty());
}

TEST(MoatlintPointerOrder, ScopedToReplayAndSweepCode)
{
    // The same idiom outside src/{sim,subchannel,workload} -- e.g.
    // common/ debug utilities -- is out of scope.
    const auto f = lintSource(
        "src/common/x.cc",
        "uint64_t k = reinterpret_cast<uintptr_t>(p);\n");
    EXPECT_TRUE(ofRule(f, "pointer-order").empty());
}

// ----------------------------------------------------- jsonl-stability

TEST(MoatlintJsonlStability, FlagsLooseFloatsInEmitters)
{
    const auto f = lintSource(
        "src/sim/x.cc",
        "// MOATSIM_JSONL emitter\n"
        // moatlint: allow(jsonl-stability): fixture bytes for the rule
        // under test (the marker above makes this file an emitter too)
        "void emit() { std::printf(\"%.6f\", v); }\n"
        "void also() { os << std::setprecision(9) << v; }\n"
        "void fine() { std::snprintf(b, n, \"%.17g\", v); }\n"
        "void ints() { std::printf(\"%d %s %u\", i, s, u); }\n");
    EXPECT_EQ(linesOf(f, "jsonl-stability"), (std::vector<int>{2, 3}));
}

TEST(MoatlintJsonlStability, DoubleFormatterFileIsAnEmitter)
{
    // The codec file formats every double through jsonDouble; it stays
    // in scope by that name alone, without toJsonLine in its text.
    const auto f = lintSource(
        "src/sim/result_io.cc",
        "std::string\n"
        "jsonDouble(double d)\n"
        "{\n"
        "    char buf[64];\n"
        // moatlint: allow(jsonl-stability): fixture bytes for the rule
        // under test (this test file carries the emitter marker)
        "    std::snprintf(buf, sizeof buf, \"%.6f\", d);\n"
        "    return buf;\n"
        "}\n");
    EXPECT_EQ(linesOf(f, "jsonl-stability"), (std::vector<int>{5}));
}

TEST(MoatlintJsonlStability, QuietOffEmitters)
{
    // Human-readable CLI summaries may format floats freely.
    const auto f = lintSource(
        "src/tools/cli.cc",
        // moatlint: allow(jsonl-stability): fixture bytes for the rule
        // under test (this test file carries the emitter marker)
        "void show() { std::printf(\"%.2f ms\", toMs(d)); }\n");
    EXPECT_TRUE(ofRule(f, "jsonl-stability").empty());
}

// ------------------------------------------------------ magic-geometry

TEST(MoatlintMagicGeometry, FlagsRowAndBankLiterals)
{
    const auto f = lintSource(
        "src/workload/x.cc",
        "uint32_t rows = 64 * 1024;\n"
        "uint32_t rows2 = 64*1024;\n"
        "uint32_t rows3 = 65536;\n"
        "uint32_t banks_per_chip = 32;\n"
        "config.numBanks = 32;\n");
    EXPECT_EQ(linesOf(f, "magic-geometry"),
              (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(MoatlintMagicGeometry, QuietOnNamedConstantsAndOtherNumbers)
{
    const auto f = lintSource(
        "src/workload/x.cc",
        "uint32_t rows = dram::kTable3RowsPerBank;\n"
        "uint32_t banks = device.banksPerSubchannel();\n"
        "uint32_t eth = 32;\n"          // a threshold, not a bank count
        "uint32_t window = 32 * 1024;\n" // not the 64K row count
        "uint32_t x = 165536;\n");
    EXPECT_TRUE(ofRule(f, "magic-geometry").empty());
}

TEST(MoatlintMagicGeometry, QuietInCommentAndString)
{
    const auto f = lintSource(
        "src/workload/x.cc",
        "// the Table-3 system has 64 * 1024 rows, numBanks = 32\n"
        "const char *s = \"rows = 64 * 1024\";\n");
    EXPECT_TRUE(ofRule(f, "magic-geometry").empty());
}

TEST(MoatlintMagicGeometry, DeviceTablesAreExempt)
{
    const std::string body = "uint32_t rowsPerBank = 64 * 1024;\n"
                             "uint32_t banksPerChip = 32;\n";
    EXPECT_TRUE(
        ofRule(lintSource("src/dram/device.cc", body), "magic-geometry")
            .empty());
    EXPECT_TRUE(
        ofRule(lintSource("src/dram/device.hh", body), "magic-geometry")
            .empty());
    EXPECT_TRUE(
        ofRule(lintSource("src/dram/timing.hh", body), "magic-geometry")
            .empty());
    // Elsewhere in dram/ the rule applies.
    EXPECT_EQ(linesOf(lintSource("src/dram/bank.cc", body),
                      "magic-geometry"),
              (std::vector<int>{1, 2}));
}

// ------------------------------------------------------- single-flight

TEST(MoatlintSingleFlight, FlagsHandRolledFuturesInSrc)
{
    const auto f = lintSource(
        "src/sim/x.cc",
        "std::promise<std::shared_ptr<const V>> promise;\n"
        "std::shared_future<std::shared_ptr<const V>> future;\n");
    EXPECT_EQ(linesOf(f, "single-flight"), (std::vector<int>{1, 2}));
}

TEST(MoatlintSingleFlight, QuietInThePrimitiveAndOutsideSrc)
{
    const std::string body = "std::promise<Ptr> promise;\n"
                             "std::shared_future<Ptr> future;\n";
    EXPECT_TRUE(ofRule(lintSource("src/common/single_flight.hh", body),
                       "single-flight")
                    .empty());
    EXPECT_TRUE(
        ofRule(lintSource("tests/test_x.cc", body), "single-flight")
            .empty());
    // Comments, strings, and SingleFlight fronts never trigger.
    EXPECT_TRUE(ofRule(lintSource("src/sim/x.cc",
                                  "// no std::promise here\n"
                                  "const char *s = \"std::promise\";\n"
                                  "SingleFlight<Finish> flight_;\n"),
                       "single-flight")
                    .empty());
}

TEST(MoatlintSingleFlight, SuppressionRoundTrip)
{
    const auto f = lintSource(
        "src/sim/x.cc",
        "std::promise<int> p; // moatlint: allow(single-flight): fixture\n");
    const auto hits = ofRule(f, "single-flight");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_TRUE(hits[0].suppressed);
    EXPECT_TRUE(linesOf(f, "bad-suppression").empty());
}

// ------------------------------------------------------------- fan-out

TEST(MoatlintFanOut, FlagsThreadsAndAsyncInSrc)
{
    const auto f = lintSource("src/sim/x.cc",
                              "std::vector<std::thread> workers;\n"
                              "std::jthread t([] {});\n"
                              "auto f = std::async(work);\n");
    EXPECT_EQ(linesOf(f, "fan-out"), (std::vector<int>{1, 2, 3}));
}

TEST(MoatlintFanOut, QuietInThePoolServeAndOutsideSrc)
{
    const std::string body = "std::thread t(work);\n";
    for (const char *path :
         {"src/common/thread_pool.hh", "src/common/thread_pool.cc",
          "src/sim/serve.hh", "src/sim/serve.cc", "tests/test_x.cc"}) {
        EXPECT_TRUE(ofRule(lintSource(path, body), "fan-out").empty())
            << path;
    }
    // Members of std::thread, comments and strings start no thread.
    EXPECT_TRUE(
        ofRule(lintSource("src/sim/x.cc",
                          "unsigned n = std::thread::hardware_concurrency();\n"
                          "std::thread::id owner;\n"
                          "// no std::async here\n"
                          "const char *s = \"std::jthread\";\n"),
               "fan-out")
            .empty());
}

TEST(MoatlintFanOut, FlagsParallelForOutsideThePoolAndTheSweepEngine)
{
    // The isolated-attack driver once ran its own trial fan-out; cells
    // now go through the engine. serve may start threads, not fan out.
    const std::string body =
        "parallelFor(jobs, trials, [&](size_t i) { run(i); });\n";
    for (const char *path : {"src/attacks/driver.cc", "src/sim/serve.cc",
                             "src/sim/experiment.cc"}) {
        EXPECT_EQ(linesOf(lintSource(path, body), "fan-out"),
                  (std::vector<int>{1}))
            << path;
    }
    // The sweep engine's home sanctions parallelFor, not raw threads.
    EXPECT_EQ(linesOf(lintSource("src/sim/sweep.cc",
                                 "parallelFor(jobs_, n, fn);\n"
                                 "std::thread t(work);\n"),
                      "fan-out"),
              (std::vector<int>{2}));
}

TEST(MoatlintFanOut, ParallelForQuietInThePoolTheEngineAndOutsideSrc)
{
    const std::string body = "parallelFor(jobs, n, fn);\n";
    for (const char *path :
         {"src/common/thread_pool.hh", "src/common/thread_pool.cc",
          "src/sim/sweep.cc", "tests/test_x.cc", "bench/bench_x.cc"}) {
        EXPECT_TRUE(ofRule(lintSource(path, body), "fan-out").empty())
            << path;
    }
    // Members, longer names, comments and strings fan nothing out.
    EXPECT_TRUE(ofRule(lintSource("src/sim/x.cc",
                                  "pool.parallelFor(n);\n"
                                  "parallelForEach(n);\n"
                                  "// parallelFor(jobs, n, fn)\n"
                                  "const char *s = \"parallelFor\";\n"),
                       "fan-out")
                    .empty());
}

TEST(MoatlintFanOut, SuppressionRoundTrip)
{
    const auto f = lintSource(
        "src/sim/x.cc",
        "std::thread t(work); // moatlint: allow(fan-out): fixture\n"
        "parallelFor(jobs, n, fn); // moatlint: allow(fan-out): fixture\n");
    const auto hits = ofRule(f, "fan-out");
    ASSERT_EQ(hits.size(), 2u);
    EXPECT_TRUE(hits[0].suppressed);
    EXPECT_TRUE(hits[1].suppressed);
    EXPECT_TRUE(linesOf(f, "bad-suppression").empty());
}

// -------------------------------------------------- partial-order-sort

TEST(MoatlintPartialOrderSort, FlagsUnstableSortsInDeterminismDirs)
{
    // Each sort leaves the order of equal elements to the library.
    const std::string body =
        "std::sort(v.begin(), v.end(), byAt);\n"
        "std::partial_sort(v.begin(), mid, v.end());\n"
        "std::nth_element(v.begin(), mid, v.end());\n"
        "std::ranges::sort(v, byAt);\n";
    for (const char *path :
         {"src/sim/x.cc", "src/subchannel/x.cc", "src/workload/x.cc",
          "src/mitigation/x.hh", "src/dram/x.cc", "src/attacks/x.cc"}) {
        EXPECT_EQ(linesOf(lintSource(path, body), "partial-order-sort"),
                  (std::vector<int>{1, 2, 3, 4}))
            << path;
    }
}

TEST(MoatlintPartialOrderSort, QuietOutsideTheScopeAndOnStableSorts)
{
    const std::string body = "std::sort(v.begin(), v.end());\n";
    for (const char *path :
         {"src/common/x.cc", "src/analysis/x.cc", "src/tools/x.cc",
          "tools/moatlint/lint.cc", "tests/test_x.cc", "bench/b.cc"}) {
        EXPECT_TRUE(
            ofRule(lintSource(path, body), "partial-order-sort").empty())
            << path;
    }
    // The helper, a stable sort, longer names, comments and strings
    // leave no tie to the library.
    EXPECT_TRUE(ofRule(lintSource("src/workload/x.cc",
                                  "sortEventsInto(drawn, out);\n"
                                  "std::stable_sort(v.begin(), v.end());\n"
                                  "std::partial_sort_copy(a, b, c, d);\n"
                                  "// std::sort(v.begin(), v.end())\n"
                                  "const char *s = \"std::sort(\";\n"),
                       "partial-order-sort")
                    .empty());
}

TEST(MoatlintPartialOrderSort, SuppressionRoundTrip)
{
    const auto f = lintSource(
        "src/workload/x.cc",
        "// moatlint: allow(partial-order-sort): the comparator is a\n"
        "// total order, so equal elements are identical\n"
        "std::sort(v.begin(), v.end(), eventBefore);\n");
    const auto hits = ofRule(f, "partial-order-sort");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_TRUE(hits[0].suppressed);
    EXPECT_TRUE(linesOf(f, "bad-suppression").empty());
}

// -------------------------------------------------------- suppressions

TEST(MoatlintSuppression, SameLineRoundTrip)
{
    const auto f = lintSource(
        "src/sim/x.cc",
        "int a = rand(); // moatlint: allow(libc-rand): fixture only\n");
    const auto hits = ofRule(f, "libc-rand");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_TRUE(hits[0].suppressed);
    EXPECT_EQ(hits[0].justification, "fixture only");
    EXPECT_EQ(unsuppressedCount(f), 0u);
}

TEST(MoatlintSuppression, StandaloneCoversNextCodeLine)
{
    const auto f = lintSource(
        "src/sim/x.cc",
        "// moatlint: allow(libc-rand): seeding the fixture\n"
        "// (order does not matter here)\n"
        "int a = rand();\n");
    const auto hits = ofRule(f, "libc-rand");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_TRUE(hits[0].suppressed);
    EXPECT_EQ(unsuppressedCount(f), 0u);
}

TEST(MoatlintSuppression, StackedStandaloneSuppressions)
{
    const auto f = lintSource(
        "src/sim/x.cc",
        "// moatlint: allow(libc-rand): fixture\n"
        "// moatlint: allow(std-hash): fixture\n"
        "int a = rand() + std::hash<int>{}(7);\n");
    EXPECT_EQ(unsuppressedCount(f), 0u);
}

TEST(MoatlintSuppression, WrongRuleDoesNotSuppress)
{
    const auto f = lintSource(
        "src/sim/x.cc",
        "int a = rand(); // moatlint: allow(std-hash): wrong rule\n");
    EXPECT_EQ(linesOf(f, "libc-rand"), (std::vector<int>{1}));
    // And the unused allow(std-hash) is itself flagged as stale.
    EXPECT_EQ(linesOf(f, "bad-suppression"), (std::vector<int>{1}));
}

TEST(MoatlintSuppression, StaleSuppressionIsBadSuppression)
{
    // A well-formed allow() whose target line no longer triggers the
    // rule must not linger: left in place it would silently mask the
    // next regression at that line.
    const auto f = lintSource(
        "src/sim/x.cc",
        "int a = 7; // moatlint: allow(libc-rand): was rand() once\n");
    const auto hits = ofRule(f, "bad-suppression");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].line, 1);
    EXPECT_NE(hits[0].message.find("stale"), std::string::npos);
    EXPECT_FALSE(hits[0].suppressed);
}

TEST(MoatlintSuppression, LiveSuppressionIsNotStale)
{
    const auto f = lintSource(
        "src/sim/x.cc",
        "int a = rand(); // moatlint: allow(libc-rand): fixture\n");
    EXPECT_TRUE(ofRule(f, "bad-suppression").empty());
}

TEST(MoatlintSuppression, AllowBadSuppressionKeepsAStaleOne)
{
    // An intentionally kept stale allow() can itself be suppressed --
    // and allow(bad-suppression) is never audited as stale, or the
    // pair would oscillate.
    const auto f = lintSource(
        "src/sim/x.cc",
        "// moatlint: allow(bad-suppression): kept for the pending\n"
        "// re-land of the rand() fixture\n"
        "int a = 7; // moatlint: allow(libc-rand): fixture to re-land\n");
    const auto hits = ofRule(f, "bad-suppression");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_TRUE(hits[0].suppressed);
    EXPECT_EQ(unsuppressedCount(f), 0u);
}

TEST(MoatlintSuppression, UnknownDirectiveIsBadSuppression)
{
    const auto f = lintSource(
        "src/sim/x.cc",
        "int a = 7; // moatlint: disable(libc-rand): not a directive\n");
    const auto hits = ofRule(f, "bad-suppression");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_NE(hits[0].message.find("unknown moatlint directive"),
              std::string::npos);
}

TEST(MoatlintSuppression, UnknownRuleIsBadSuppression)
{
    const auto f = lintSource(
        "src/sim/x.cc",
        "int a = rand(); // moatlint: allow(no-such-rule): nope\n");
    EXPECT_EQ(linesOf(f, "libc-rand"), (std::vector<int>{1}));
    EXPECT_EQ(linesOf(f, "bad-suppression"), (std::vector<int>{1}));
}

TEST(MoatlintSuppression, MissingJustificationIsBadSuppression)
{
    const auto f = lintSource(
        "src/sim/x.cc",
        "int a = rand(); // moatlint: allow(libc-rand):\n"
        "int b = rand(); // moatlint: allow(libc-rand)\n");
    EXPECT_EQ(linesOf(f, "libc-rand"), (std::vector<int>{1, 2}));
    EXPECT_EQ(linesOf(f, "bad-suppression"), (std::vector<int>{1, 2}));
}

// --------------------------------------------------------- JSON report

TEST(MoatlintReport, JsonIsByteStableAndComplete)
{
    const auto f = lintSource(
        "src/sim/x.cc",
        "int a = rand();\n"
        "int b = rand(); // moatlint: allow(libc-rand): fixture\n");
    const std::string json = reportJson(f);
    EXPECT_EQ(json, reportJson(f)) << "report must be deterministic";
    EXPECT_NE(json.find("\"rule\":\"libc-rand\""), std::string::npos);
    EXPECT_NE(json.find("\"suppressed\":true"), std::string::npos);
    EXPECT_NE(json.find("\"suppressed\":false"), std::string::npos);
    EXPECT_NE(json.find("\"justification\":\"fixture\""),
              std::string::npos);
    EXPECT_NE(json.find("\"total\":2"), std::string::npos);
    EXPECT_NE(json.find("\"unsuppressed\":1"), std::string::npos);
}

TEST(MoatlintReport, EscapesQuotesAndBackslashes)
{
    std::vector<Finding> f{
        {"src/a \"b\".cc", 1, "libc-rand", "back\\slash", false, ""}};
    const std::string json = reportJson(f);
    EXPECT_NE(json.find("src/a \\\"b\\\".cc"), std::string::npos);
    EXPECT_NE(json.find("back\\\\slash"), std::string::npos);
}

TEST(MoatlintReport, PassLabelsSplitTextualFromSemantic)
{
    EXPECT_STREQ(passOf("key-coverage"), "semantic");
    EXPECT_STREQ(passOf("key-exempt-leak"), "semantic");
    EXPECT_STREQ(passOf("key-source-drift"), "semantic");
    EXPECT_STREQ(passOf("libc-rand"), "textual");
    EXPECT_STREQ(passOf("bad-suppression"), "textual");
    const auto f = lintSource("src/sim/x.cc", "int a = rand();\n");
    EXPECT_NE(reportJson(f).find("\"pass\":\"textual\""),
              std::string::npos);
}

TEST(MoatlintReport, SarifCarriesRulesResultsAndSuppressions)
{
    const auto f = lintSource(
        "src/sim/x.cc",
        "int a = rand();\n"
        "int b = rand(); // moatlint: allow(libc-rand): fixture\n");
    const std::string sarif = reportSarif(f);
    EXPECT_EQ(sarif, reportSarif(f)) << "report must be deterministic";
    EXPECT_NE(sarif.find("\"version\":\"2.1.0\""), std::string::npos);
    EXPECT_NE(sarif.find("\"name\":\"moatlint\""), std::string::npos);
    // Every rule appears in the driver's rule list with its pass.
    EXPECT_NE(sarif.find("\"id\":\"key-coverage\""), std::string::npos);
    EXPECT_NE(sarif.find("\"pass\":\"semantic\""), std::string::npos);
    // The live finding is an error, the suppressed one a note with an
    // inSource suppression (code scanning then opens no alert for it).
    EXPECT_NE(sarif.find("\"ruleId\":\"libc-rand\""), std::string::npos);
    EXPECT_NE(sarif.find("\"level\":\"error\""), std::string::npos);
    EXPECT_NE(sarif.find("\"level\":\"note\""), std::string::npos);
    EXPECT_NE(sarif.find("\"kind\":\"inSource\""), std::string::npos);
    EXPECT_NE(sarif.find("\"justification\":\"fixture\""),
              std::string::npos);
    EXPECT_NE(sarif.find("\"startLine\":1"), std::string::npos);
}

// -------------------------------------------------------------- keylint

/** A two-file key-source fixture: header with the annotated struct,
 *  impl with the fold. @p fold is the body of cfgKey. */
std::vector<SourceFile>
keyFixture(const std::string &fold,
           const std::string &extra_fields = "")
{
    return {
        {"src/sim/cfg.hh",
         "// moatlint: key-source(cfgKey)\n"
         "struct Cfg {\n"
         "    uint64_t seed = 0;\n"
         "    uint32_t banks = 0;\n" +
             extra_fields +
             "};\n"
             "uint64_t cfgKey(const Cfg &c);\n"},
        {"src/sim/cfg.cc",
         "uint64_t cfgKey(const Cfg &c)\n"
         "{\n" +
             fold + "}\n"}};
}

TEST(MoatlintKeylint, CoverageFlagsUnfoldedField)
{
    const auto f =
        lintFiles(keyFixture("    return hashCombine(7, c.seed);\n"));
    const auto hits = ofRule(f, "key-coverage");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].file, "src/sim/cfg.hh");
    EXPECT_EQ(hits[0].line, 4);
    EXPECT_NE(hits[0].message.find("'Cfg::banks'"), std::string::npos);
    EXPECT_FALSE(hits[0].suppressed);
}

TEST(MoatlintKeylint, QuietWhenEveryFieldIsFolded)
{
    const auto f = lintFiles(keyFixture(
        "    return hashCombine(c.banks, c.seed);\n"));
    EXPECT_TRUE(ofRule(f, "key-coverage").empty());
    EXPECT_TRUE(ofRule(f, "key-source-drift").empty());
    EXPECT_EQ(unsuppressedCount(f), 0u);
}

TEST(MoatlintKeylint, CoverageReachesThroughHelperClosure)
{
    // configKey folds geometry via helpers (subchannelsOf et al.); a
    // field touched only inside a transitively called helper counts.
    auto files = keyFixture("    return hashCombine(banksOf(c), c.seed);\n");
    files[1].content =
        "static uint64_t widen(uint32_t v) { return v; }\n"
        "static uint64_t banksOf(const Cfg &c) { return widen(c.banks); }\n" +
        files[1].content;
    EXPECT_TRUE(ofRule(lintFiles(files), "key-coverage").empty());
}

TEST(MoatlintKeylint, MentionsInCommentsAndStringsDoNotCover)
{
    const auto f = lintFiles(keyFixture(
        "    // c.banks is deliberately not folded\n"
        "    const char *s = \"c.banks\";\n"
        "    (void) s;\n"
        "    return hashCombine(7, c.seed);\n"));
    EXPECT_EQ(linesOf(f, "key-coverage"), (std::vector<int>{4}));
}

TEST(MoatlintKeylint, ExemptQuietsCoverageAndLeakFiresOnFold)
{
    const std::string exempt_field =
        "    // moatlint: key-exempt(cfgKey): a storage knob, not a\n"
        "    // result input\n"
        "    bool cache = false;\n";
    // Exempt and absent from the fold: clean.
    const auto quiet = lintFiles(keyFixture(
        "    return hashCombine(c.banks, c.seed);\n", exempt_field));
    EXPECT_TRUE(ofRule(quiet, "key-coverage").empty());
    EXPECT_TRUE(ofRule(quiet, "key-exempt-leak").empty());
    // Exempt yet folded: the annotation lies; key-exempt-leak.
    const auto leak = lintFiles(keyFixture(
        "    return hashCombine(c.banks, c.seed ^ c.cache);\n",
        exempt_field));
    const auto hits = ofRule(leak, "key-exempt-leak");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].line, 7);
    EXPECT_NE(hits[0].message.find("'Cfg::cache'"), std::string::npos);
}

TEST(MoatlintKeylint, ExemptWithoutJustificationIsBadSuppression)
{
    const auto f = lintFiles(keyFixture(
        "    return hashCombine(c.banks, c.seed);\n",
        "    // moatlint: key-exempt(cfgKey)\n"
        "    bool cache = false;\n"));
    const auto hits = ofRule(f, "bad-suppression");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_NE(hits[0].message.find("justification"), std::string::npos);
    // Without a valid exemption the field still needs folding.
    EXPECT_EQ(ofRule(f, "key-coverage").size(), 1u);
}

TEST(MoatlintKeylint, ExemptNamingWrongFunctionIsDrift)
{
    const auto f = lintFiles(keyFixture(
        "    return hashCombine(c.banks, c.seed);\n",
        "    // moatlint: key-exempt(otherKey): wrong function\n"
        "    bool cache = false;\n"));
    const auto hits = ofRule(f, "key-source-drift");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_NE(hits[0].message.find("otherKey"), std::string::npos);
}

TEST(MoatlintKeylint, AnnotationOffAStructIsDrift)
{
    const auto f = lintFiles(
        {{"src/sim/x.cc",
          "// moatlint: key-source(cfgKey)\n"
          "int not_a_struct = 0;\n"}});
    const auto hits = ofRule(f, "key-source-drift");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_NE(hits[0].message.find("does not precede a struct"),
              std::string::npos);
}

TEST(MoatlintKeylint, MissingDefinitionIsDriftOnTreesOnly)
{
    // On a full tree an undefined key fn means the contract checks
    // nothing; in a lone header the impl legitimately lives elsewhere.
    const std::string hh =
        "// moatlint: key-source(cfgKey)\n"
        "struct Cfg { uint64_t seed = 0; };\n"
        "uint64_t cfgKey(const Cfg &c);\n";
    const auto tree = lintFiles({{"src/sim/cfg.hh", hh}});
    const auto hits = ofRule(tree, "key-source-drift");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_NE(hits[0].message.find("no definition"), std::string::npos);
    EXPECT_TRUE(
        ofRule(lintSource("src/sim/cfg.hh", hh), "key-source-drift")
            .empty());
}

TEST(MoatlintKeylint, NestedKeySourceDelegates)
{
    const std::string common =
        "// moatlint: key-source(innerKey)\n"
        "struct Inner { uint64_t a = 0; };\n"
        "// moatlint: key-source(outerKey)\n"
        "struct Outer {\n"
        "    Inner in;\n"
        "    uint64_t b = 0;\n"
        "};\n"
        "uint64_t innerKey(const Inner &i) { return i.a; }\n";
    // Routing through the nested struct's own key fn: clean.
    const auto good = lintFiles(
        {{"src/sim/k.hh",
          common + "uint64_t outerKey(const Outer &o)\n"
                   "{ return hashCombine(innerKey(o.in), o.b); }\n"}});
    EXPECT_TRUE(ofRule(good, "key-coverage").empty());
    EXPECT_TRUE(ofRule(good, "key-source-drift").empty());
    // Restating the nested fields bypasses Inner's contract: drift.
    const auto bypass = lintFiles(
        {{"src/sim/k.hh",
          common + "uint64_t outerKey(const Outer &o)\n"
                   "{ return hashCombine(o.in.a, o.b); }\n"}});
    const auto hits = ofRule(bypass, "key-source-drift");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_NE(hits[0].message.find("nested key is bypassed"),
              std::string::npos);
}

TEST(MoatlintKeylint, NestedMemberKeyFunctionDelegatesByMemberCall)
{
    // MitigatorSpec::describe() is the live example: a cell key folds
    // its spec field as cell.spec.describe(), a member call.
    const std::string common =
        "// moatlint: key-source(Inner::key)\n"
        "class Inner {\n"
        "  public:\n"
        "    uint64_t key() const { return a_; }\n"
        "  private:\n"
        "    uint64_t a_ = 0;\n"
        "};\n"
        "// moatlint: key-source(outerKey)\n"
        "struct Outer {\n"
        "    Inner in;\n"
        "    uint64_t b = 0;\n"
        "};\n";
    const auto good = lintFiles(
        {{"src/sim/k.hh",
          common + "uint64_t outerKey(const Outer &o)\n"
                   "{ return hashCombine(o.in.key(), o.b); }\n"}});
    EXPECT_TRUE(ofRule(good, "key-coverage").empty());
    EXPECT_TRUE(ofRule(good, "key-source-drift").empty());
    // Folding the field without its key fn still bypasses it.
    const auto bypass = lintFiles(
        {{"src/sim/k.hh",
          common + "uint64_t outerKey(const Outer &o)\n"
                   "{ return hashCombine(hashOf(o.in), o.b); }\n"}});
    const auto hits = ofRule(bypass, "key-source-drift");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_NE(hits[0].message.find("nested key is bypassed"),
              std::string::npos);
}

TEST(MoatlintKeylint, MemberFoldCountsBareFieldMentions)
{
    // DeviceSpec::describe() is the live example: a member key fn
    // reaches fields without an object prefix.
    const auto f = lintFiles(
        {{"src/sim/spec.hh",
          "// moatlint: key-source(Spec::key)\n"
          "class Spec {\n"
          "  public:\n"
          "    uint64_t key() const;\n"
          "  private:\n"
          "    uint64_t org_ = 0;\n"
          "    uint64_t speed_ = 0;\n"
          "};\n"},
         {"src/sim/spec.cc",
          "uint64_t Spec::key() const\n"
          "{ return hashCombine(org_, speed_); }\n"}});
    EXPECT_TRUE(ofRule(f, "key-coverage").empty());
    EXPECT_TRUE(ofRule(f, "key-source-drift").empty());
}

// ---------------------------------------------------------- mutate-check

TEST(MoatlintMutateCheck, SoundFixturePassesAndMutantsAreCaught)
{
    const auto rep = mutateCheck(keyFixture(
        "    return hashCombine(c.banks, c.seed);\n"));
    EXPECT_TRUE(rep.baseline.empty());
    ASSERT_EQ(rep.mutants.size(), 2u);
    for (const auto &m : rep.mutants) {
        EXPECT_TRUE(m.caught)
            << m.structName << "::" << m.field << " via " << m.keyFn;
        EXPECT_FALSE(m.exempt);
    }
    EXPECT_TRUE(rep.ok());
}

TEST(MoatlintMutateCheck, ExemptMutantReinsertsAndIsCaught)
{
    const auto rep = mutateCheck(keyFixture(
        "    return hashCombine(c.banks, c.seed);\n",
        "    // moatlint: key-exempt(cfgKey): a knob, not an input\n"
        "    bool cache = false;\n"));
    ASSERT_EQ(rep.mutants.size(), 3u);
    bool saw_exempt = false;
    for (const auto &m : rep.mutants) {
        if (m.field == "cache") {
            saw_exempt = true;
            EXPECT_TRUE(m.exempt);
        }
        EXPECT_TRUE(m.caught) << m.field;
    }
    EXPECT_TRUE(saw_exempt);
    EXPECT_TRUE(rep.ok());
}

TEST(MoatlintMutateCheck, DirtyBaselineFailsClosed)
{
    const auto rep = mutateCheck(keyFixture(
        "    return hashCombine(7, c.seed);\n"));
    EXPECT_FALSE(rep.baseline.empty());
    EXPECT_TRUE(rep.mutants.empty());
    EXPECT_FALSE(rep.ok());
}

// ---------------------------------------------------- tree-level rules

class MoatlintTreeFixture : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        root_ = std::filesystem::temp_directory_path() /
                ("moatlint_fixture_" +
                 std::to_string(::getpid()));
        std::filesystem::remove_all(root_);
        std::filesystem::create_directories(root_ / "src/mitigation");
        std::filesystem::create_directories(root_ / "src/subchannel");
        std::filesystem::create_directories(root_ / "src/workload");
    }

    void TearDown() override { std::filesystem::remove_all(root_); }

    void write(const std::string &rel, const std::string &content)
    {
        std::ofstream os(root_ / rel, std::ios::binary);
        os << content;
    }

    std::vector<Finding> lint()
    {
        return lintTree((root_ / "src").string());
    }

    std::filesystem::path root_;
};

TEST_F(MoatlintTreeFixture, HeaderDeclsReachPairedSource)
{
    write("src/workload/store.hh",
          "struct Store { std::unordered_map<uint64_t, int> entries_; };\n");
    write("src/workload/store.cc",
          "void Store::scan() {\n"
          "    for (const auto &e : entries_) use(e);\n"
          "}\n");
    const auto f = lint();
    const auto hits = ofRule(f, "unordered-iter");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].file, "src/workload/store.cc");
    EXPECT_EQ(hits[0].line, 2);
}

TEST_F(MoatlintTreeFixture, PathsAreRelativeAndSorted)
{
    write("src/workload/b.cc", "int b = rand();\n");
    write("src/workload/a.cc", "int a = rand();\n");
    const auto f = lint();
    ASSERT_EQ(f.size(), 2u);
    EXPECT_EQ(f[0].file, "src/workload/a.cc");
    EXPECT_EQ(f[1].file, "src/workload/b.cc");
}

// ----------------------------------------------------- the real tree

#ifdef MOATSIM_SOURCE_DIR

/** src + tools + tests as one set, the way the moatlint binary and CI
 *  lint them (keylint resolves key fns across directory boundaries). */
std::vector<SourceFile>
realTree()
{
    std::vector<SourceFile> files;
    for (const char *dir : {"/src", "/tools", "/tests"}) {
        const auto part = moatlint::readSourceTree(
            std::string(MOATSIM_SOURCE_DIR) + dir);
        files.insert(files.end(), part.begin(), part.end());
    }
    return files;
}

/** The gate CI enforces: every finding in src/, tools/, and tests/
 *  carries a valid suppression with a written justification. */
TEST(MoatlintCleanTree, TreeHasZeroUnsuppressedFindings)
{
    const auto f = lintFiles(realTree());
    for (const auto &fi : f) {
        EXPECT_TRUE(fi.suppressed)
            << fi.file << ":" << fi.line << ": [" << fi.rule << "] "
            << fi.message;
        EXPECT_FALSE(fi.justification.empty());
    }
    EXPECT_EQ(unsuppressedCount(f), 0u);
}

/** The invariants the linter exists to keep true, asserted directly
 *  so a rule regression cannot silently exempt the real tree. */
TEST(MoatlintCleanTree, RealTreeExercisesTheRules)
{
    const auto f =
        lintTree(std::string(MOATSIM_SOURCE_DIR) + "/src");
    // The two sanctioned unordered-iter sites keep the suppression
    // machinery exercised in production code.
    EXPECT_GE(ofRule(f, "unordered-iter").size(), 2u);
    // And the hard invariants hold outright.
    EXPECT_TRUE(ofRule(f, "std-hash").empty());
    EXPECT_TRUE(ofRule(f, "libc-rand").empty());
    EXPECT_TRUE(ofRule(f, "wall-clock").empty());
    // Geometry literals live only in the device tables; everything
    // else derives from the DeviceModel (or the kTable3 constants).
    EXPECT_TRUE(ofRule(f, "magic-geometry").empty());
    EXPECT_TRUE(ofRule(f, "bad-suppression").empty());
}

/** The cache-key contracts the sweep pipeline rests on: every
 *  annotated key-source struct verifies, with zero findings -- a new
 *  config field that is not folded (or exempted) fails this test. */
TEST(MoatlintCleanTree, KeyContractsHold)
{
    const auto f = lintFiles(realTree());
    EXPECT_TRUE(ofRule(f, "key-coverage").empty());
    EXPECT_TRUE(ofRule(f, "key-exempt-leak").empty());
    EXPECT_TRUE(ofRule(f, "key-source-drift").empty());
}

/** The oracle: the pass is only trustworthy if deleting any single
 *  fold from a real key function is detected. Covers configKey,
 *  requestKey, coAttackCellKey, attackCellKey, ResultStore::foldKey,
 *  DeviceSpec::describe and MitigatorSpec::describe. */
TEST(MoatlintCleanTree, RealTreeMutantsAreAllCaught)
{
    const auto rep = mutateCheck(realTree());
    EXPECT_TRUE(rep.baseline.empty());
    // The seven annotated contracts carry well over 30 fields between
    // them; a collapse of the mutant count means annotations were
    // dropped or the scanner stopped seeing the structs.
    EXPECT_GE(rep.mutants.size(), 30u);
    std::set<std::string> contracts;
    for (const auto &m : rep.mutants)
        contracts.insert(m.keyFn);
    EXPECT_EQ(contracts.size(), 7u);
    // The isolated attack cell is one of them, its config included.
    std::vector<std::string> attack_fields;
    for (const auto &m : rep.mutants) {
        if (m.keyFn == "attackCellKey")
            attack_fields.push_back(m.structName + "::" + m.field);
    }
    std::sort(attack_fields.begin(), attack_fields.end());
    EXPECT_EQ(attack_fields,
              (std::vector<std::string>{
                  "AttackCell::attack", "AttackCell::mitigator",
                  "AttackConfig::aboLevel", "AttackConfig::banks",
                  "AttackConfig::budget",
                  "AttackConfig::pattern", "AttackConfig::poolRows",
                  "AttackConfig::timing", "AttackConfig::trials"}));
    // The mitigator spec text feeds every cell key and seed: both of
    // MitigatorSpec's members are seeded as mutants.
    std::vector<std::string> spec_fields;
    for (const auto &m : rep.mutants) {
        if (m.structName.ends_with("MitigatorSpec"))
            spec_fields.push_back(m.field);
    }
    std::sort(spec_fields.begin(), spec_fields.end());
    EXPECT_EQ(spec_fields, (std::vector<std::string>{"name_", "params_"}));
    for (const auto &m : rep.mutants) {
        EXPECT_TRUE(m.caught)
            << m.structName << "::" << m.field << " via " << m.keyFn
            << (m.exempt ? " (exempt re-insertion)" : " (fold removal)");
    }
    EXPECT_TRUE(rep.ok());
}

#endif // MOATSIM_SOURCE_DIR

} // namespace
