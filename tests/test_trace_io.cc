/**
 * @file
 * Tests for the trace serialization round trip and error handling.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <utility>

#include "workload/trace_io.hh"

namespace moatsim::workload
{
namespace
{

std::vector<CoreTrace>
sampleTraces()
{
    std::vector<CoreTrace> traces(2);
    traces[0].window = fromNs(1000);
    traces[0].events = {{.at = fromNs(10), .row = 100, .bank = 0},
                        {.at = fromNs(20), .row = 200, .bank = 1},
                        {.at = fromNs(20), .row = 100, .bank = 0}};
    traces[1].window = fromNs(2000);
    traces[1].events = {{.at = fromNs(5), .row = 7, .bank = 3}};
    return traces;
}

TEST(TraceIo, RoundTrip)
{
    const auto in = sampleTraces();
    std::stringstream ss;
    writeTraces(ss, in);
    const auto out = readTraces(ss);
    ASSERT_EQ(out.size(), in.size());
    for (size_t c = 0; c < in.size(); ++c) {
        EXPECT_EQ(out[c].window, in[c].window);
        ASSERT_EQ(out[c].events.size(), in[c].events.size());
        for (size_t i = 0; i < in[c].events.size(); ++i) {
            EXPECT_EQ(out[c].events[i].at, in[c].events[i].at);
            EXPECT_EQ(out[c].events[i].bank, in[c].events[i].bank);
            EXPECT_EQ(out[c].events[i].row, in[c].events[i].row);
        }
    }
}

TEST(TraceIo, GeneratedTracesRoundTrip)
{
    TraceGenConfig cfg;
    cfg.banksSimulated = 4;
    cfg.numCores = 2;
    cfg.windowFraction = 0.01;
    const auto in = generateTraces(findWorkload("x264"), cfg);
    std::stringstream ss;
    writeTraces(ss, in);
    const auto out = readTraces(ss);
    ASSERT_EQ(out.size(), in.size());
    for (size_t c = 0; c < in.size(); ++c)
        EXPECT_EQ(out[c].events.size(), in[c].events.size());
}

TEST(TraceIo, MultiSubChannelRoundTrip)
{
    // Events on a non-zero sub-channel switch the file to the v2
    // 4-column format; the sub-channel must survive the round trip.
    std::vector<CoreTrace> in(1);
    in[0].window = fromNs(1000);
    in[0].events = {
        {.at = fromNs(10), .row = 100, .bank = 0, .subchannel = 0},
        {.at = fromNs(20), .row = 200, .bank = 1, .subchannel = 1},
        {.at = fromNs(30), .row = 300, .bank = 2, .subchannel = 1}};
    std::stringstream ss;
    writeTraces(ss, in);
    EXPECT_NE(ss.str().find("trace v2"), std::string::npos);
    const auto out = readTraces(ss);
    ASSERT_EQ(out.size(), 1u);
    ASSERT_EQ(out[0].events.size(), 3u);
    for (size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(out[0].events[i].subchannel, in[0].events[i].subchannel);
        EXPECT_EQ(out[0].events[i].bank, in[0].events[i].bank);
        EXPECT_EQ(out[0].events[i].row, in[0].events[i].row);
    }
}

TEST(TraceIo, SingleSubChannelKeepsV1Format)
{
    // All-sub-channel-0 traces stay in the 3-column v1 format so
    // external tooling written against it keeps working.
    const auto in = sampleTraces();
    std::stringstream ss;
    writeTraces(ss, in);
    EXPECT_NE(ss.str().find("trace v1"), std::string::npos);
    EXPECT_EQ(ss.str().find("trace v2"), std::string::npos);
}

TEST(TraceIoDeathTest, NegativeSubChannelFatal)
{
    std::stringstream ss;
    ss << "core 0\nwindow 100\n10 0 5 -1\n";
    EXPECT_EXIT(readTraces(ss), testing::ExitedWithCode(1), "bad event");
}

TEST(TraceIo, CommentsAndBlankLinesIgnored)
{
    std::stringstream ss;
    ss << "# header\n\ncore 0\nwindow 1000\n# mid comment\n10 1 2\n";
    const auto out = readTraces(ss);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].events.size(), 1u);
    EXPECT_EQ(out[0].events[0].row, 2u);
}

TEST(TraceIo, MissingWindowDerivedFromLastEvent)
{
    std::stringstream ss;
    ss << "core 0\n10 0 1\n50 0 2\n";
    const auto out = readTraces(ss);
    EXPECT_EQ(out[0].window, 51);
}

TEST(TraceIo, EmptyStreamGivesNoTraces)
{
    std::stringstream ss;
    EXPECT_TRUE(readTraces(ss).empty());
}

TEST(TraceIo, EmptyTraceListRoundTrip)
{
    std::stringstream ss;
    writeTraces(ss, {});
    EXPECT_TRUE(readTraces(ss).empty());
}

TEST(TraceIo, EmptyCoreRoundTrip)
{
    // A core that issued no activations (e.g. idle during the traced
    // window) must survive the round trip.
    std::vector<CoreTrace> in(2);
    in[0].window = fromNs(500);
    in[1].window = fromNs(500);
    in[1].events = {{.at = fromNs(5), .row = 1, .bank = 0}};
    std::stringstream ss;
    writeTraces(ss, in);
    const auto out = readTraces(ss);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].window, fromNs(500));
    EXPECT_TRUE(out[0].events.empty());
    ASSERT_EQ(out[1].events.size(), 1u);
}

TEST(TraceIo, UnsetWindowOmittedAndRederived)
{
    // window == 0 is not serialized (the reader rejects "window 0");
    // it is re-derived from the last event on load.
    std::vector<CoreTrace> in(1);
    in[0].events = {{.at = 10, .row = 1, .bank = 0},
                    {.at = 50, .row = 2, .bank = 0}};
    std::stringstream ss;
    writeTraces(ss, in);
    EXPECT_EQ(ss.str().find("window"), std::string::npos);
    const auto out = readTraces(ss);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].window, 51);
}

TEST(TraceIoDeathTest, TruncatedWindowLineFatal)
{
    std::stringstream ss;
    ss << "core 0\nwindow\n";
    EXPECT_EXIT(readTraces(ss), testing::ExitedWithCode(1), "bad window");
}

TEST(TraceIoDeathTest, TruncatedCoreHeaderFatal)
{
    std::stringstream ss;
    ss << "core\n";
    EXPECT_EXIT(readTraces(ss), testing::ExitedWithCode(1),
                "bad core header");
}

TEST(TraceIoDeathTest, TruncatedEventLineFatal)
{
    // An event line cut off mid-file (e.g. a partial download) must be
    // rejected, not silently zero-filled.
    std::stringstream ss;
    ss << "core 0\nwindow 100\n10 0\n";
    EXPECT_EXIT(readTraces(ss), testing::ExitedWithCode(1), "bad event");
}

TEST(TraceIoDeathTest, WindowBeforeCoreFatal)
{
    std::stringstream ss;
    ss << "window 100\n";
    EXPECT_EXIT(readTraces(ss), testing::ExitedWithCode(1),
                "before any core");
}

TEST(TraceIoDeathTest, NegativeEventFieldFatal)
{
    std::stringstream ss;
    ss << "core 0\nwindow 100\n10 -1 5\n";
    EXPECT_EXIT(readTraces(ss), testing::ExitedWithCode(1), "bad event");
}

TEST(TraceIoDeathTest, OutOfOrderEventsFatal)
{
    std::stringstream ss;
    ss << "core 0\nwindow 100\n50 0 1\n10 0 2\n";
    EXPECT_EXIT(readTraces(ss), testing::ExitedWithCode(1),
                "out of order");
}

TEST(TraceIoDeathTest, EventBeforeCoreFatal)
{
    std::stringstream ss;
    ss << "10 0 1\n";
    EXPECT_EXIT(readTraces(ss), testing::ExitedWithCode(1),
                "before any core");
}

TEST(TraceIoDeathTest, NonContiguousCoresFatal)
{
    std::stringstream ss;
    ss << "core 1\n";
    EXPECT_EXIT(readTraces(ss), testing::ExitedWithCode(1), "in order");
}

TEST(TraceIoDeathTest, FieldBeyondItsWidthFatal)
{
    // Each column must fit its TraceEvent field; 65537 would otherwise
    // wrap to bank 1.
    const std::pair<const char *, const char *> cases[] = {
        {"10 65537 5", "bad event \\(bank 65537 above 65535\\)"},
        {"10 0 5 65536", "bad event \\(subchannel 65536 above 65535\\)"},
        {"10 0 4294967296", "bad event \\(row 4294967296 above 4294967295\\)"},
    };
    for (const auto &[event, message] : cases) {
        std::stringstream ss;
        ss << "core 0\nwindow 100\n" << event << "\n";
        EXPECT_EXIT(readTraces(ss), testing::ExitedWithCode(1), message)
            << event;
    }
}

TEST(TraceIo, SixteenBitBankAndSlotEdgesRead)
{
    // The largest values the fields carry are accepted unchanged.
    std::stringstream ss;
    ss << "core 0\nwindow 100\n10 65535 4294967295 65535\n";
    const auto out = readTraces(ss);
    ASSERT_EQ(out.size(), 1u);
    ASSERT_EQ(out[0].events.size(), 1u);
    EXPECT_EQ(out[0].events[0].bank, 65535u);
    EXPECT_EQ(out[0].events[0].row, 4294967295u);
    EXPECT_EQ(out[0].events[0].subchannel, 65535u);
}

TEST(TraceIo, TraceThatFitsPassesTheCheck)
{
    checkTraceFits(sampleTraces(), 4, 201);
    checkTraceFits({}, 1, 1);
}

TEST(TraceIoDeathTest, EventOutsideTheSystemFatal)
{
    // A replay indexes banks and rows unchecked: bank 40 on a 32-bank
    // system, or row 70000000, must be refused before it replays,
    // naming core, event and bound.
    std::stringstream ss;
    ss << "core 0\nwindow 1000\n0 0 5\n60 40 5\ncore 1\n0 0 70000000\n";
    auto traces = readTraces(ss);
    EXPECT_EXIT(checkTraceFits(traces, 32, dram::kTable3RowsPerBank),
                testing::ExitedWithCode(1),
                "core 0 event 1 \\(at 60 ps\\): bank 40 is not below "
                "the system's 32 banks");
    traces[0].events.pop_back();
    EXPECT_EXIT(checkTraceFits(traces, 32, dram::kTable3RowsPerBank),
                testing::ExitedWithCode(1),
                "core 1 event 0 \\(at 0 ps\\): row 70000000 is not "
                "below the 65536 rows per bank");
}

} // namespace
} // namespace moatsim::workload
