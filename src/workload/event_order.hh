/**
 * @file
 * The one total order of trace events: (at, subchannel, bank, row).
 *
 * Replay consumes each core's events in order, so the order of events
 * with equal intended times reaches every result byte. A sort by `at`
 * alone leaves those ties to the sort algorithm -- std::sort is
 * unstable, and its tie order is a property of the standard library
 * -- so every sort whose order reaches a result goes through
 * sortEventsInto(). Events with equal keys are identical, so its
 * output depends only on the multiset of input events, never on their
 * input order or on the toolchain.
 *
 * The sort uses the structure of the data: times are integers below
 * kEventTimeLimit, so an LSD radix sort on `at` (three 12-bit digits,
 * each pass stable) orders a core's stream in four linear passes, and
 * one more linear pass orders the rare equal-`at` runs by the
 * remaining fields.
 */

#ifndef MOATSIM_WORKLOAD_EVENT_ORDER_HH
#define MOATSIM_WORKLOAD_EVENT_ORDER_HH

#include <span>
#include <vector>

#include "common/time.hh"
#include "workload/tracegen.hh"

namespace moatsim::workload
{

/** Bits of `at` the radix sort covers (three 12-bit digits). */
inline constexpr unsigned kEventTimeBits = 36;

/**
 * Exclusive bound on an event time the sort accepts: 2^36 ps, about
 * 68.7 ms, so every window up to a full tREFW (32 ms) fits. Producers
 * check their window against it up front and name the window.
 */
inline constexpr Time kEventTimeLimit = Time{1} << kEventTimeBits;

/** Strict total order on events: (at, subchannel, bank, row). */
inline bool
eventBefore(const TraceEvent &a, const TraceEvent &b)
{
    if (a.at != b.at)
        return a.at < b.at;
    if (a.subchannel != b.subchannel)
        return a.subchannel < b.subchannel;
    if (a.bank != b.bank)
        return a.bank < b.bank;
    return a.row < b.row;
}

/**
 * Sort @p events into @p out (same size) in eventBefore() order. The
 * radix passes alternate between the two spans -- @p events, @p out,
 * @p events, @p out -- so the caller's generation buffer is the sort's
 * only scratch space and the sorted events land straight in their
 * final storage. @p events holds unspecified contents afterwards.
 * fatal() when an event time lies outside [0, kEventTimeLimit).
 */
void sortEventsInto(std::span<TraceEvent> events,
                    std::span<TraceEvent> out);

/**
 * @p events in eventBefore() order: the input vector itself when it is
 * already in order, else an exact-size sorted copy. fatal()s like
 * sortEventsInto() on a time outside [0, kEventTimeLimit).
 */
std::vector<TraceEvent> sortedEvents(std::vector<TraceEvent> events);

} // namespace moatsim::workload

#endif // MOATSIM_WORKLOAD_EVENT_ORDER_HH
