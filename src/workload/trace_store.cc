#include "workload/trace_store.hh"

#include <cstdlib>
#include <utility>

#include "common/fault.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "common/number_text.hh"

namespace moatsim::workload
{

TraceSet::TraceSet(std::vector<CoreTrace> cores) : cores_(std::move(cores))
{
    views_.reserve(cores_.size());
    for (const auto &c : cores_) {
        views_.push_back(viewOf(c));
        events_ += c.events.size();
        bytes_ += c.events.capacity() * sizeof(TraceEvent);
    }
    bytes_ += views_.capacity() * sizeof(CoreTraceView);
}

TraceStore::TraceStore() : TraceStore(envConfig())
{
}

TraceStore::TraceStore(const Config &config)
    : config_(config),
      flight_(config.maxBytes,
              [](const TraceSet &set) { return set.bytes(); })
{
}

uint64_t
TraceStore::key(const WorkloadSpec &spec, const TraceGenConfig &config)
{
    // traceSeed covers (config.seed, workload); configKey covers every
    // other generator parameter (timing included). Together they are
    // the full content address of a generated trace.
    return hashCombine(traceSeed(spec, config), configKey(config));
}

TraceStore::Config
TraceStore::envConfig()
{
    Config cfg;
    // getenv is read at startup before any worker threads exist, and
    // nothing in the process mutates the environment.
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    if (const char *s = std::getenv("MOATSIM_TRACE_STORE"))
        cfg.enabled = !(s[0] == '0' && s[1] == '\0');
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    if (const char *s = std::getenv("MOATSIM_TRACE_STORE_BYTES")) {
        size_t bytes = 0;
        if (parseDecimal(s, &bytes) && bytes > 0)
            cfg.maxBytes = bytes;
        else
            warn(std::string("MOATSIM_TRACE_STORE_BYTES='") + s +
                 "' is not a positive byte count; keeping the default");
    }
    return cfg;
}

std::shared_ptr<const TraceSet>
TraceStore::get(const WorkloadSpec &spec, const TraceGenConfig &config)
{
    const auto generate = [&] {
        fault::failPoint("trace-store.generate");
        return std::make_shared<const TraceSet>(generateTraces(spec, config));
    };
    if (!config_.enabled) {
        auto set = generate();
        MutexLock lock(mu_);
        ++uncached_;
        return set;
    }
    return flight_.get(key(spec, config), generate).value;
}

TraceStore::Stats
TraceStore::stats() const
{
    const auto f = flight_.stats();
    Stats s;
    s.hits = f.hits;
    s.evictions = f.evictions;
    s.entries = f.entries;
    s.bytes = f.bytes;
    MutexLock lock(mu_);
    s.misses = f.misses + uncached_;
    return s;
}

} // namespace moatsim::workload
