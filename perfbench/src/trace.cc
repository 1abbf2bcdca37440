#include "trace.hh"

#include <fstream>

namespace moatbench
{

size_t
SpanBuf::open(const char *name)
{
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : static_cast<int32_t>(stack_.back());
    s.owner = owner_;
    s.startNs = nowNs();
    spans_.push_back(s);
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
}

void
SpanBuf::close(size_t index)
{
    spans_[index].endNs = nowNs();
    stack_.pop_back();
}

void
Ledger::add(std::unique_ptr<SpanBuf> buf)
{
    std::lock_guard<std::mutex> lock(mu_);
    bufs_.push_back(std::move(buf));
}

std::map<std::string, double>
Ledger::selfMs() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::map<std::string, double> out;
    for (const auto &buf : bufs_) {
        const auto &spans = buf->spans();
        // Spans of one buffer nest properly (one thread, RAII), so a
        // child's whole duration lies inside its parent's.
        std::vector<int64_t> child_ns(spans.size(), 0);
        for (const auto &s : spans) {
            if (s.parent >= 0)
                child_ns[static_cast<size_t>(s.parent)] += s.endNs - s.startNs;
        }
        for (size_t i = 0; i < spans.size(); ++i) {
            const auto &s = spans[i];
            const double self_ms =
                static_cast<double>(s.endNs - s.startNs - child_ns[i]) / 1e6;
            out[s.parent < 0 ? "other" : s.name] += self_ms;
        }
    }
    return out;
}

double
Ledger::busyMs() const
{
    std::lock_guard<std::mutex> lock(mu_);
    double busy = 0.0;
    for (const auto &buf : bufs_) {
        for (const auto &s : buf->spans()) {
            if (s.parent < 0)
                busy += static_cast<double>(s.endNs - s.startNs) / 1e6;
        }
    }
    return busy;
}

void
Ledger::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream os(path, std::ios::trunc);
    for (const auto &buf : bufs_) {
        const auto &spans = buf->spans();
        for (size_t i = 0; i < spans.size(); ++i) {
            const auto &s = spans[i];
            os << JsonObject()
                      .str("name", s.name)
                      .integer("owner", s.owner)
                      .integer("start_ns", static_cast<uint64_t>(s.startNs))
                      .integer("end_ns", static_cast<uint64_t>(s.endNs))
                      .num("parent", s.parent)
                      .text()
               << "\n";
        }
    }
}

} // namespace moatbench
