/**
 * @file
 * Shared helpers for the benches. Every paper number is a checked
 * claim (tests/claims/paper.jsonl, run by `moatsim reproduce`) or a
 * test; the benches time the host (core loop, sweep scale, micro ops).
 * Each prints a banner naming what it measures, then a table.
 */

#ifndef MOATSIM_BENCH_BENCH_UTIL_HH
#define MOATSIM_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/number_text.hh"
#include "common/stats.hh"
#include "common/table.hh"

namespace moatsim::bench
{

/** Print the standard bench header. */
inline void
header(const std::string &artifact, const std::string &claim)
{
    printBanner(std::cout, "moatsim reproduction: " + artifact);
    std::cout << claim << "\n\n";
}

/**
 * Scale factor for long-running benches: MOATSIM_BENCH_SCALE in (0,1]
 * shrinks iteration counts for quick smoke runs (default 1 = full).
 * Any other value warns and keeps the default.
 */
inline double
benchScale()
{
    if (const char *s = std::getenv("MOATSIM_BENCH_SCALE")) {
        double v = 0.0;
        if (parseDouble(s, &v) && v > 0.0 && v <= 1.0)
            return v;
        warn(std::string("MOATSIM_BENCH_SCALE='") + s +
             "' is not a number in (0,1]; keeping the default 1");
    }
    return 1.0;
}

/** Wall time of a repeated bench body: the median and its spread. */
struct RepeatTiming
{
    /** Runs of the body. */
    size_t repeats = 0;
    double medianSeconds = 0.0;
    double minSeconds = 0.0;
    double maxSeconds = 0.0;
};

/** Least total wall time timeRepeated spends on its body. */
inline constexpr double kMinSeconds = 0.5;
/** Least number of runs timeRepeated makes of its body. */
inline constexpr size_t kMinRepeats = 3;

/** The median and min..max spread of run times @p samples (seconds,
 *  at least one). */
inline RepeatTiming
repeatTimingOf(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    const size_t n = samples.size();
    RepeatTiming out;
    out.repeats = n;
    out.medianSeconds = n % 2 == 1
                            ? samples[n / 2]
                            : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
    out.minSeconds = samples.front();
    out.maxSeconds = samples.back();
    return out;
}

/** Timings of a bench body and, apart, of the fresh state each run of
 *  it consumes. */
struct SetupTiming
{
    RepeatTiming setup;
    RepeatTiming body;
};

/**
 * Run @p body on the state @p setup returns until the body alone has
 * taken at least kMinSeconds of wall time over at least kMinRepeats
 * runs, and report both steps' medians and spreads. A body that needs
 * fresh state per run (a System whose counters it dirties) is then
 * timed without the cost of building that state. One short pass is
 * mostly timer and scheduler noise; the median of many is a number
 * worth comparing.
 */
template <typename Setup, typename Body>
SetupTiming
timeRepeated(Setup &&setup, Body &&body)
{
    using Clock = std::chrono::steady_clock;
    const auto seconds = [](Clock::time_point a, Clock::time_point b) {
        return std::chrono::duration<double>(b - a).count();
    };
    std::vector<double> setups;
    std::vector<double> bodies;
    double total = 0.0;
    while (total < kMinSeconds || bodies.size() < kMinRepeats) {
        const auto t0 = Clock::now();
        auto state = setup();
        const auto t1 = Clock::now();
        body(state);
        const auto t2 = Clock::now();
        setups.push_back(seconds(t0, t1));
        bodies.push_back(seconds(t1, t2));
        total += bodies.back();
    }
    return {repeatTimingOf(std::move(setups)),
            repeatTimingOf(std::move(bodies))};
}

/** timeRepeated for a body that needs no fresh state. */
template <typename F>
RepeatTiming
timeRepeated(F &&body)
{
    return timeRepeated([] { return 0; }, [&](int) { body(); }).body;
}

/** @p work per second at the median, fastest and slowest run of @p t,
 *  formatted for a table cell: "median (min..max)". */
inline std::string
rateCell(double work, const RepeatTiming &t, int decimals)
{
    return formatFixed(work / t.medianSeconds, decimals) + " (" +
           formatFixed(work / t.maxSeconds, decimals) + ".." +
           formatFixed(work / t.minSeconds, decimals) + ")";
}

/**
 * JSON fields for a rate measured by @p t: "<name>" at the median
 * run, "<name>_min"/"<name>_max" at the slowest/fastest run, and
 * "<name>_repeats". Starts with a comma, so it appends to a record.
 */
inline std::string
rateFields(const std::string &name, double work, const RepeatTiming &t)
{
    return ",\"" + name + "\":" + formatFixed(work / t.medianSeconds, 3) +
           ",\"" + name + "_min\":" + formatFixed(work / t.maxSeconds, 3) +
           ",\"" + name + "_max\":" + formatFixed(work / t.minSeconds, 3) +
           ",\"" + name + "_repeats\":" + std::to_string(t.repeats);
}

/**
 * Sweep worker threads for benches that fan out through the
 * sim::SweepEngine: MOATSIM_JOBS, default 0 (hardware concurrency).
 * Results are bit-identical at any value. A value that is not a
 * worker count warns and keeps the default.
 */
inline unsigned
jobs()
{
    if (const char *s = std::getenv("MOATSIM_JOBS")) {
        unsigned v = 0;
        if (parseDecimal(s, &v))
            return v;
        warn(std::string("MOATSIM_JOBS='") + s +
             "' is not a worker count; keeping the default 0");
    }
    return 0;
}

/**
 * Structured-results sink: when MOATSIM_JSONL names a file, every
 * bench appends its figures there as one JSON line in addition to
 * printing its table (scripts/bench_aggregate.py reads them). Returns
 * nullptr when the env var is unset.
 */
inline std::ostream *
jsonlStream()
{
    static std::ofstream stream;
    static bool opened = false;
    if (!opened) {
        opened = true;
        if (const char *path = std::getenv("MOATSIM_JSONL")) {
            stream.open(path, std::ios::app);
            if (!stream)
                std::cerr << "warning: cannot open MOATSIM_JSONL file "
                          << path << "\n";
        }
    }
    return stream.is_open() ? &stream : nullptr;
}

} // namespace moatsim::bench

#endif // MOATSIM_BENCH_BENCH_UTIL_HH
