/**
 * @file
 * The workload::TraceStore contract: content-addressed sharing (one
 * generation per distinct (spec, config), baselines included, at any
 * jobs count), bit-identical results with the store on or off,
 * bounded size with LRU eviction, and safe concurrent first-touch
 * from thread-pool workers.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>

#include "common/fault.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "sim/result_io.hh"
#include "sim/sweep.hh"
#include "workload/trace_store.hh"

namespace moatsim::workload
{
namespace
{

TraceGenConfig
smallTracegen()
{
    TraceGenConfig tg;
    tg.banksSimulated = 8;
    tg.numCores = 4;
    tg.windowFraction = 0.015625;
    return tg;
}

void
expectSameTraces(const TraceSet &a, const TraceSet &b)
{
    ASSERT_EQ(a.numCores(), b.numCores());
    ASSERT_EQ(a.totalEvents(), b.totalEvents());
    for (size_t c = 0; c < a.numCores(); ++c) {
        const CoreTraceView &va = a.views()[c];
        const CoreTraceView &vb = b.views()[c];
        ASSERT_EQ(va.count, vb.count) << "core " << c;
        EXPECT_EQ(va.window, vb.window) << "core " << c;
        for (size_t i = 0; i < va.count; ++i) {
            const TraceEvent &ea = va.events[i];
            const TraceEvent &eb = vb.events[i];
            ASSERT_TRUE(ea.at == eb.at && ea.bank == eb.bank &&
                        ea.row == eb.row &&
                        ea.subchannel == eb.subchannel)
                << "core " << c << " event " << i;
        }
    }
}

/** Explicitly enabled store config, immune to ambient
 *  MOATSIM_TRACE_STORE / _BYTES environment overrides. */
TraceStore::Config
enabledConfig()
{
    return TraceStore::Config{};
}

TEST(TraceStore, ByteBoundEnvTakesDigitsOnly)
{
    // atoll used to read "12abc" as 12 and "-5" as a no-op; a knob
    // that is not a positive byte count now keeps the default bound.
    const size_t def = TraceStore::Config{}.maxBytes;
    setQuiet(true);
    for (const char *bad : {"12abc", "-5", " 12", "0", ""}) {
        ::setenv("MOATSIM_TRACE_STORE_BYTES", bad, 1);
        EXPECT_EQ(TraceStore::envConfig().maxBytes, def) << "'" << bad << "'";
    }
    setQuiet(false);
    ::setenv("MOATSIM_TRACE_STORE_BYTES", "4096", 1);
    EXPECT_EQ(TraceStore::envConfig().maxBytes, 4096u);
    ::unsetenv("MOATSIM_TRACE_STORE_BYTES");
}

TEST(TraceStore, SharedHandoutPerKey)
{
    TraceStore store(enabledConfig());
    const auto tg = smallTracegen();
    const auto &spec = findWorkload("roms");

    const auto a = store.get(spec, tg);
    const auto b = store.get(spec, tg);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(store.stats().misses, 1u);
    EXPECT_EQ(store.stats().hits, 1u);
    EXPECT_EQ(store.stats().entries, 1u);

    // A different workload or a different config is a different key.
    const auto c = store.get(findWorkload("xz"), tg);
    EXPECT_NE(a.get(), c.get());
    auto tg2 = tg;
    tg2.windowFraction *= 2;
    const auto d = store.get(spec, tg2);
    EXPECT_NE(a.get(), d.get());
    EXPECT_EQ(store.stats().misses, 3u);
}

TEST(TraceStore, InjectedGenerateFaultIsNeverCached)
{
    TraceStore store(enabledConfig());
    const auto tg = smallTracegen();
    const auto &spec = findWorkload("roms");

    // A faulted generation throws out of get() and leaves no poisoned
    // entry behind: the next get regenerates cleanly and the content
    // matches an undisturbed store's.
    fault::arm("trace-store.generate@1");
    EXPECT_THROW(store.get(spec, tg), fault::InjectedFault);
    fault::disarm();
    EXPECT_EQ(store.stats().entries, 0u) << "failure not cached";

    const auto healed = store.get(spec, tg);
    ASSERT_NE(healed, nullptr);
    TraceStore pristine(enabledConfig());
    expectSameTraces(*healed, *pristine.get(spec, tg));
}

TEST(TraceStore, FlattenedSetMatchesGenerator)
{
    TraceStore store(enabledConfig());
    const auto tg = smallTracegen();
    const auto &spec = findWorkload("parest");
    const auto set = store.get(spec, tg);

    const auto raw = generateTraces(spec, tg);
    ASSERT_EQ(set->numCores(), raw.size());
    uint64_t total = 0;
    for (size_t c = 0; c < raw.size(); ++c) {
        const CoreTraceView &v = set->views()[c];
        ASSERT_EQ(v.count, raw[c].events.size());
        EXPECT_EQ(v.window, raw[c].window);
        for (size_t i = 0; i < v.count; ++i) {
            ASSERT_TRUE(v.events[i].at == raw[c].events[i].at &&
                        v.events[i].bank == raw[c].events[i].bank &&
                        v.events[i].row == raw[c].events[i].row &&
                        v.events[i].subchannel ==
                            raw[c].events[i].subchannel);
        }
        total += v.count;
    }
    EXPECT_EQ(set->totalEvents(), total);
}

TEST(TraceStore, SetBytesAreSixteenPerEventPlusViews)
{
    // The store's byte bound counts the flattened slab, so the event
    // layout sets how many events the bound holds: 16 bytes each.
    auto tg = smallTracegen();
    tg.subchannels = 2;
    const TraceSet set(generateTraces(findWorkload("roms"), tg));
    ASSERT_GT(set.totalEvents(), 0u);
    EXPECT_EQ(set.bytes(), set.totalEvents() * 16 +
                               set.numCores() * sizeof(CoreTraceView));
}

TEST(TraceStore, MatrixGeneratesEachDistinctTraceExactlyOnce)
{
    // The regression the store exists for: a full matrix run --
    // mitigated cells and their baselines -- must invoke
    // generateTraces exactly once per distinct (spec, config).
    sim::SweepConfig sc;
    sc.tracegen = smallTracegen();
    sc.jobs = 1;
    sc.traceStore = std::make_shared<TraceStore>(enabledConfig());
    sim::SweepEngine engine(sc);

    std::vector<sim::SweepCell> cells;
    for (const char *w : {"roms", "parest", "xz"}) {
        for (const char *m : {"moat", "panopticon"}) {
            cells.push_back({findWorkload(w),
                             mitigation::Registry::parse(m),
                             abo::Level::L1});
        }
    }

    const uint64_t before = traceGenInvocations();
    engine.run(cells);
    EXPECT_EQ(traceGenInvocations() - before, 3u);

    // A second run over the same matrix regenerates nothing at all.
    engine.run(cells);
    EXPECT_EQ(traceGenInvocations() - before, 3u);
}

TEST(TraceStore, CacheOnAndOffAreBitIdenticalAtAnyJobs)
{
    std::vector<sim::SweepCell> cells;
    for (const char *w : {"roms", "parest", "xz"}) {
        for (const char *m : {"moat", "moat:ath=32,eth=16"}) {
            cells.push_back({findWorkload(w),
                             mitigation::Registry::parse(m),
                             abo::Level::L1});
        }
    }

    auto jsonl = [&](bool enabled, unsigned jobs) {
        sim::SweepConfig sc;
        sc.tracegen = smallTracegen();
        sc.jobs = jobs;
        TraceStore::Config cfg;
        cfg.enabled = enabled;
        sc.traceStore = std::make_shared<TraceStore>(cfg);
        sim::SweepEngine engine(sc);
        std::string out;
        for (const auto &r : engine.run(cells))
            out += sim::toJsonLine(r) + "\n";
        return out;
    };

    const std::string reference = jsonl(true, 1);
    for (const unsigned jobs : {1u, 2u, 8u}) {
        EXPECT_EQ(reference, jsonl(true, jobs)) << "store on, jobs=" << jobs;
        const uint64_t before = traceGenInvocations();
        EXPECT_EQ(reference, jsonl(false, jobs))
            << "store off, jobs=" << jobs;
        // With the store off every cell regenerates its traces once,
        // and its baseline replays that same set rather than
        // generating its own.
        if (jobs == 1) {
            EXPECT_EQ(traceGenInvocations() - before, cells.size());
        }
    }
}

TEST(TraceStore, EvictsLeastRecentlyUsedUnderSizeBound)
{
    TraceStore::Config cfg;
    cfg.maxBytes = 1; // every resolved entry exceeds the bound
    TraceStore store(cfg);
    const auto tg = smallTracegen();

    const auto roms = store.get(findWorkload("roms"), tg);
    EXPECT_EQ(store.stats().entries, 1u);
    EXPECT_EQ(store.stats().evictions, 0u);

    // The second key evicts the first (LRU); the handout stays alive.
    const auto xz = store.get(findWorkload("xz"), tg);
    EXPECT_EQ(store.stats().entries, 1u);
    EXPECT_EQ(store.stats().evictions, 1u);
    EXPECT_GT(roms->totalEvents(), 0u);

    // Re-touching the evicted key regenerates an identical set.
    const auto roms2 = store.get(findWorkload("roms"), tg);
    EXPECT_NE(roms.get(), roms2.get());
    expectSameTraces(*roms, *roms2);
}

TEST(TraceStore, DisabledStoreRegeneratesIdenticalContent)
{
    TraceStore::Config cfg;
    cfg.enabled = false;
    TraceStore store(cfg);
    const auto tg = smallTracegen();
    const auto &spec = findWorkload("roms");

    const auto a = store.get(spec, tg);
    const auto b = store.get(spec, tg);
    EXPECT_NE(a.get(), b.get()); // nothing cached...
    expectSameTraces(*a, *b);    // ...but byte-for-byte the same trace
    EXPECT_EQ(store.stats().hits, 0u);
    EXPECT_EQ(store.stats().misses, 2u);
    EXPECT_EQ(store.stats().entries, 0u);
}

TEST(TraceStore, ConcurrentFirstTouchGeneratesOnce)
{
    // Many pool workers racing on the same cold key must block on one
    // generation and all receive the same set (TSan covers the
    // synchronization; this asserts the single-flight semantics).
    TraceStore store(enabledConfig());
    const auto tg = smallTracegen();
    const auto &spec = findWorkload("roms");

    const uint64_t before = traceGenInvocations();
    constexpr unsigned kWorkers = 8;
    std::vector<std::shared_ptr<const TraceSet>> sets(kWorkers);
    {
        ThreadPool pool(kWorkers);
        for (unsigned i = 0; i < kWorkers; ++i) {
            pool.submit([&, i] { sets[i] = store.get(spec, tg); });
        }
        pool.wait();
    }
    EXPECT_EQ(traceGenInvocations() - before, 1u);
    for (unsigned i = 1; i < kWorkers; ++i)
        EXPECT_EQ(sets[0].get(), sets[i].get());
    EXPECT_EQ(store.stats().misses, 1u);
    EXPECT_EQ(store.stats().hits, kWorkers - 1);
}

} // namespace
} // namespace moatsim::workload
