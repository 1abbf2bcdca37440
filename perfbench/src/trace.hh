/**
 * @file
 * The traced pass's span recorder and per-layer ledger.
 *
 * A span is one timed call into a layer's public function: name,
 * start, end, parent span, and the cell or request it served. Each
 * task (one cell, one request) records into its own SpanBuf, so
 * recording takes no lock; spans stay in memory until the pass ends,
 * when the Ledger folds them into per-layer self times (a span's
 * duration minus the time its child spans cover) and writes them out.
 *
 * Span names are the layer names of the per-layer metrics. Root spans
 * (the task itself) are not a layer: their self time is the remainder
 * reported as `other`, and the sum of their durations is the pass's
 * busy time, against which the coverage check runs.
 */

#ifndef MOATBENCH_TRACE_HH
#define MOATBENCH_TRACE_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util.hh"

namespace moatbench
{

/** One recorded span. */
struct Span
{
    const char *name = "";
    int64_t startNs = 0;
    int64_t endNs = 0;
    /** Index of the enclosing span in the same SpanBuf; -1 = root. */
    int32_t parent = -1;
    /** Cell or request id the span served. */
    uint32_t owner = 0;
};

/** The spans of one task, recorded by the one thread running it. */
class SpanBuf
{
  public:
    explicit SpanBuf(uint32_t owner) : owner_(owner) {}

    /** Open a span nested in the innermost open one. */
    size_t open(const char *name);
    void close(size_t index);

    const std::vector<Span> &spans() const { return spans_; }

  private:
    uint32_t owner_;
    std::vector<Span> spans_;
    std::vector<size_t> stack_;
};

/** RAII span: open on construction, close on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanBuf &buf, const char *name)
        : buf_(buf), index_(buf.open(name))
    {
    }
    ~ScopedSpan() { buf_.close(index_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanBuf &buf_;
    size_t index_;
};

/** Work counters recorded at the same boundaries as the spans. */
struct Counters
{
    std::atomic<uint64_t> tracegenCalls{0};
    std::atomic<uint64_t> tracegenEvents{0};
    std::atomic<uint64_t> traceHits{0};
    std::atomic<uint64_t> traceMisses{0};
    std::atomic<uint64_t> attackEvents{0};
    std::atomic<uint64_t> baselineComputes{0};
    std::atomic<uint64_t> coBaselineComputes{0};
    std::atomic<uint64_t> replayActs{0};
    std::atomic<uint64_t> replayAlerts{0};
    std::atomic<uint64_t> replayRfms{0};
    std::atomic<uint64_t> resultIoBytes{0};
};

/** Collects finished SpanBufs of one traced pass and reports them. */
class Ledger
{
  public:
    /** Hand over one finished task's spans (thread-safe). */
    void add(std::unique_ptr<SpanBuf> buf);

    /** Self time per span name, in ms (roots under "other"). */
    std::map<std::string, double> selfMs() const;

    /** Sum of root span durations (the pass's busy time), in ms. */
    double busyMs() const;

    /** Write every span as one JSON line to @p path. */
    void write(const std::string &path) const;

  private:
    mutable std::mutex mu_;
    std::vector<std::unique_ptr<SpanBuf>> bufs_;
};

} // namespace moatbench

#endif // MOATBENCH_TRACE_HH
