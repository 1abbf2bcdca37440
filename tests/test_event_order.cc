/**
 * @file
 * Tests of the trace events' one total order (workload/event_order.hh):
 * the radix sort against std::sort with the full comparator on inputs
 * full of ties, the generator's output as a fixed point of the sort,
 * the exposure the total order closes (the order of equal-`at` events
 * reaches replay results), and the range guards of the producers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "abo/abo.hh"
#include "common/rng.hh"
#include "mitigation/registry.hh"
#include "sim/system.hh"
#include "workload/attack_trace.hh"
#include "workload/event_order.hh"
#include "workload/spec.hh"
#include "workload/tracegen.hh"

namespace moatsim::workload
{
namespace
{

/** The reference: a comparison sort with the full comparator. */
std::vector<TraceEvent>
referenceSort(std::vector<TraceEvent> events)
{
    std::sort(events.begin(), events.end(), eventBefore);
    return events;
}

/** Byte equality of two event streams. */
bool
sameBytes(const std::vector<TraceEvent> &a, const std::vector<TraceEvent> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(TraceEvent)) ==
                0);
}

/** Fisher-Yates with the project RNG: the same permutation on every
 *  standard library. */
void
shuffle(std::vector<TraceEvent> &events, Rng &rng)
{
    for (size_t i = events.size(); i > 1; --i)
        std::swap(events[i - 1], events[rng.below(i)]);
}

/** An event with random coordinates at time @p at. */
TraceEvent
randomEvent(Time at, Rng &rng)
{
    return {.at = at,
            .row = static_cast<RowId>(rng.below(8)),
            .bank = static_cast<BankId>(rng.below(4)),
            .subchannel = static_cast<uint16_t>(rng.below(2))};
}

TEST(EventOrder, MatchesTheFullComparatorOnTies)
{
    Rng rng(23);
    std::vector<std::pair<std::string, std::vector<TraceEvent>>> cases;
    cases.push_back({"empty", {}});
    cases.push_back({"one event", {randomEvent(42, rng)}});

    std::vector<TraceEvent> all_equal;
    for (int i = 0; i < 500; ++i)
        all_equal.push_back(randomEvent(7, rng));
    cases.push_back({"all-equal at", all_equal});

    std::vector<TraceEvent> duplicates;
    for (int i = 0; i < 50; ++i) {
        const TraceEvent e = randomEvent(static_cast<Time>(rng.below(5)), rng);
        for (int k = 0; k < 4; ++k)
            duplicates.push_back(e);
    }
    shuffle(duplicates, rng);
    cases.push_back({"duplicate events", duplicates});

    // Ties that differ in every radix digit, up to the last
    // representable time.
    std::vector<TraceEvent> edges;
    for (int i = 0; i < 400; ++i) {
        const Time at = static_cast<Time>(rng.below(3) << 24 |
                                          rng.below(3) << 12 | rng.below(3));
        edges.push_back(randomEvent(at, rng));
        edges.push_back(randomEvent(kEventTimeLimit - 1, rng));
    }
    edges.push_back(randomEvent(0, rng));
    shuffle(edges, rng);
    cases.push_back({"at = 2^36 - 1", edges});

    std::vector<TraceEvent> uniform;
    for (int i = 0; i < 3000; ++i)
        uniform.push_back(randomEvent(
            static_cast<Time>(rng.below(uint64_t{1} << 35)), rng));
    cases.push_back({"uniform times", uniform});

    for (const auto &[name, events] : cases) {
        EXPECT_TRUE(sameBytes(sortedEvents(events), referenceSort(events)))
            << name;
        // The radix passes themselves, also on the in-order cases
        // sortedEvents() hands back untouched.
        std::vector<TraceEvent> scratch = events;
        std::vector<TraceEvent> out(events.size());
        sortEventsInto(scratch, out);
        EXPECT_TRUE(sameBytes(out, referenceSort(events))) << name;
    }
}

TEST(EventOrder, InOrderInputKeepsItsVector)
{
    // Attack patterns emit in order: sortedEvents() returns their
    // vector as it is, with no copy and no passes.
    std::vector<TraceEvent> events;
    for (Time at = 0; at < 100; ++at)
        events.push_back({.at = at * 52'000, .row = 5});
    events.push_back({.at = 99 * 52'000, .row = 6});
    const TraceEvent *data = events.data();
    const std::vector<TraceEvent> sorted = sortedEvents(std::move(events));
    EXPECT_EQ(sorted.data(), data);
    EXPECT_TRUE(sameBytes(sorted, referenceSort(sorted)));
}

TEST(EventOrderDeathTest, TimesOutsideTheRangeAreFatal)
{
    std::vector<TraceEvent> late{{.at = kEventTimeLimit}};
    EXPECT_EXIT(sortedEvents(late), testing::ExitedWithCode(1),
                "event time 68719476736 ps lies outside");
    std::vector<TraceEvent> negative{{.at = 3}, {.at = -1}};
    EXPECT_EXIT(sortedEvents(negative), testing::ExitedWithCode(1),
                "event time -1 ps lies outside");
}

/**
 * The `moatsim perf` system (Table-3 banks, two sub-channels) at 1/32
 * tREFW. Equal-`at` events are rare -- one per ~50k per core -- but
 * parest's eight cores hold ten such groups of distinct events.
 */
TraceGenConfig
tieTracegen()
{
    TraceGenConfig tg;
    tg.subchannels = 2;
    tg.windowFraction = 0.03125;
    return tg;
}

TEST(EventOrder, GeneratedCoresAreFixedPointsOfTheSort)
{
    const TraceGenConfig tg = tieTracegen();
    Rng rng(11);
    for (const char *name : {"parest", "xz"}) {
        const auto traces = generateTraces(findWorkload(name), tg);
        for (size_t c = 0; c < traces.size(); ++c) {
            std::vector<TraceEvent> shuffled = traces[c].events;
            shuffle(shuffled, rng);
            EXPECT_TRUE(sameBytes(sortedEvents(std::move(shuffled)),
                                  traces[c].events))
                << name << " core " << c;
        }
    }
}

/** The result bytes of one MOAT replay of @p traces. */
std::string
replayBytes(const std::vector<CoreTrace> &traces, const TraceGenConfig &tg)
{
    sim::SystemConfig sys;
    sys.channel.timing = tg.timing;
    sys.channel.numBanks = tg.banksSimulated;
    sys.channel.aboLevel = abo::Level::L1;
    sys.subchannels = tg.subchannels;
    sim::System system(sys, mitigation::Registry::parse("moat").factory());
    const sim::SystemResult r = sim::runSystem(system, traces);
    std::ostringstream os;
    for (const Time t : r.coreFinish)
        os << t << ' ';
    os << r.totalActs << ' ' << r.refs << ' ' << r.alerts;
    for (const auto &u : r.perSubchannel) {
        os << ' ' << u.acts << ' ' << u.alerts << ' ' << u.rfms << ' '
           << u.mitigation.totalMitigations() << ' '
           << u.mitigation.victimRefreshes;
    }
    return os.str();
}

/** [begin, end) of every run of two or more equal-`at` events. */
std::vector<std::pair<size_t, size_t>>
tieGroups(const std::vector<TraceEvent> &events)
{
    std::vector<std::pair<size_t, size_t>> groups;
    for (size_t i = 0; i < events.size();) {
        size_t j = i + 1;
        while (j < events.size() && events[j].at == events[i].at)
            ++j;
        if (j - i > 1)
            groups.push_back({i, j});
        i = j;
    }
    return groups;
}

TEST(EventOrder, TieOrderReachesReplayAndTheTotalOrderFixesIt)
{
    // Permute one equal-`at` group of a generated trace. Any order by
    // `at` alone may keep the permutation, and the replay moves; the
    // total order gives back the generated trace, and it does not.
    const TraceGenConfig tg = tieTracegen();
    for (const char *name : {"parest", "xz"}) {
        const auto traces = generateTraces(findWorkload(name), tg);
        const std::string base = replayBytes(traces, tg);
        for (size_t c = 0; c < traces.size(); ++c) {
            for (const auto &[b, e] : tieGroups(traces[c].events)) {
                auto permuted = traces;
                auto &events = permuted[c].events;
                std::reverse(events.begin() + static_cast<ptrdiff_t>(b),
                             events.begin() + static_cast<ptrdiff_t>(e));
                std::stable_sort(
                    events.begin(), events.end(),
                    [](const TraceEvent &x, const TraceEvent &y) {
                        return x.at < y.at;
                    });
                if (replayBytes(permuted, tg) == base)
                    continue;
                events = sortedEvents(std::move(events));
                EXPECT_EQ(replayBytes(permuted, tg), base)
                    << name << " core " << c << " events [" << b << ", "
                    << e << ")";
                return;
            }
        }
    }
    FAIL() << "no equal-at group whose order moves the replay";
}

} // namespace
} // namespace moatsim::workload
