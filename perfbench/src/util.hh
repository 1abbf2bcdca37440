/**
 * @file
 * Host-time helpers shared by the moatbench workloads: the one clock
 * the benchmark reads, order statistics, a flat JSON object builder,
 * child-process control, and /proc memory readings.
 *
 * Everything here measures the simulator from the outside. The
 * simulator itself never reads a clock (moatlint bans it in src/), so
 * all timing lives in the benchmark's own files.
 */

#ifndef MOATBENCH_UTIL_HH
#define MOATBENCH_UTIL_HH

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace moatbench
{

using Clock = std::chrono::steady_clock;

/** Milliseconds from @p a to @p b. */
inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Nanoseconds since the clock's epoch (CLOCK_MONOTONIC: comparable
 *  across processes on one Linux host). */
inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Mean of the middle half of @p v (all of it below four values):
 *  steadier than the median for one noisy sample per pass. */
double interquartileMean(std::vector<double> v);

/** Linear-interpolated @p pct-th percentile (0..100) of @p v. */
double percentile(std::vector<double> v, double pct);

/**
 * The tail percentile a sample of @p n can support: the highest
 * percentile, capped at 99, that still has at least ten samples beyond
 * it. Small samples fall back to the median.
 */
double tailPercentileFor(size_t n);

/** Flat JSON object builder (keys in insertion order). */
class JsonObject
{
  public:
    JsonObject &num(const std::string &key, double v);
    JsonObject &integer(const std::string &key, uint64_t v);
    JsonObject &str(const std::string &key, const std::string &v);
    JsonObject &raw(const std::string &key, const std::string &json);
    std::string text() const { return "{" + body_ + "}"; }

  private:
    void key(const std::string &k);
    std::string body_;
};

/** One end-to-end or per-layer metric as {"value":v,"unit":u}. */
std::string metricJson(double value, const std::string &unit);

/** Spawn @p argv (argv[0] is a path) with stdout/stderr sent to
 *  @p log_path (appended; empty = /dev/null). fatal()s on failure. */
pid_t spawnProcess(const std::vector<std::string> &argv,
                   const std::string &log_path);

/** Wait for @p pid; returns its exit status (-1 if it died on a
 *  signal). With @p peak_mib, also its peak resident set in MiB. */
int waitProcess(pid_t pid, double *peak_mib = nullptr);

/** Peak resident set (VmHWM) of @p pid in MiB; "self" for this
 *  process. 0 when unreadable. */
double peakRssMiB(const std::string &pid);

/** Whole file as a string; fatal() when unreadable. */
std::string readFile(const std::string &path);

/** Non-empty lines of @p text. */
std::vector<std::string> splitLines(const std::string &text);

/** Recursively copy directory @p from to @p to (replacing it). */
void copyTree(const std::string &from, const std::string &to);

/** Remove @p path recursively if it exists. */
void removeTree(const std::string &path);

} // namespace moatbench

#endif // MOATBENCH_UTIL_HH
