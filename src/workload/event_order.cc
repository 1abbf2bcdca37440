#include "workload/event_order.hh"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

#include "common/logging.hh"

namespace moatsim::workload
{

namespace
{

constexpr unsigned kDigitBits = 12;
constexpr unsigned kDigits = kEventTimeBits / kDigitBits;
constexpr size_t kBuckets = size_t{1} << kDigitBits;
constexpr uint64_t kDigitMask = kBuckets - 1;

static_assert(kDigits * kDigitBits == kEventTimeBits);
// The passes move the events -> out -> events -> out: an odd count
// leaves the sorted events in the final storage.
static_assert(kDigits % 2 == 1, "the last pass must write out");

/** Digit @p d of @p at (least significant first). */
size_t
digitOf(Time at, unsigned d)
{
    return static_cast<size_t>(
        (static_cast<uint64_t>(at) >> (d * kDigitBits)) & kDigitMask);
}

} // namespace

void
sortEventsInto(std::span<TraceEvent> events, std::span<TraceEvent> out)
{
    if (events.size() != out.size())
        fatal("sortEventsInto: " + std::to_string(events.size()) +
              " events but " + std::to_string(out.size()) + " slots");

    // One read pass counts all three digits. A negative time wraps to
    // a value past the limit, so one bound check covers both ends.
    std::array<std::array<size_t, kBuckets>, kDigits> starts{};
    uint64_t seen = 0;
    for (const TraceEvent &e : events) {
        seen |= static_cast<uint64_t>(e.at);
        for (unsigned d = 0; d < kDigits; ++d)
            ++starts[d][digitOf(e.at, d)];
    }
    if (seen >> kEventTimeBits) {
        for (const TraceEvent &e : events) {
            if (e.at < 0 || e.at >= kEventTimeLimit)
                fatal("sortEventsInto: event time " +
                      std::to_string(e.at) +
                      " ps lies outside the sort's range [0, 2^" +
                      std::to_string(kEventTimeBits) + ") ps");
        }
    }
    for (auto &counts : starts) {
        size_t sum = 0;
        for (size_t &c : counts)
            sum += std::exchange(c, sum);
    }

    // Stable counting passes, least significant digit first.
    std::span<TraceEvent> from = events;
    std::span<TraceEvent> to = out;
    for (unsigned d = 0; d < kDigits; ++d) {
        auto &next = starts[d];
        for (const TraceEvent &e : from)
            to[next[digitOf(e.at, d)]++] = e;
        std::swap(from, to);
    }

    // Equal-`at` runs (rare: distinct rows drawn at the same
    // picosecond) take the rest of the key.
    for (size_t i = 0; i < out.size();) {
        size_t j = i + 1;
        while (j < out.size() && out[j].at == out[i].at)
            ++j;
        if (j - i > 1) {
            // moatlint: allow(partial-order-sort): eventBefore is the
            // total order itself -- events it cannot tell apart are
            // identical, so the algorithm cannot reach the output
            std::sort(out.begin() + static_cast<ptrdiff_t>(i),
                      out.begin() + static_cast<ptrdiff_t>(j),
                      eventBefore);
        }
        i = j;
    }
}

std::vector<TraceEvent>
sortedEvents(std::vector<TraceEvent> events)
{
    // Producers that emit in order (every attack pattern does) keep
    // their vector: no copy, no passes. In order, the ends bound the
    // range.
    if (std::is_sorted(events.begin(), events.end(), eventBefore) &&
        (events.empty() ||
         (events.front().at >= 0 && events.back().at < kEventTimeLimit)))
        return events;
    std::vector<TraceEvent> out(events.size());
    sortEventsInto(events, out);
    return out;
}

} // namespace moatsim::workload
