/**
 * @file
 * Determinism guarantees of the parallel sweep engine: the same sweep
 * must produce bit-identical PerfResult vectors at jobs=1, jobs=2, and
 * jobs=8 (catches RNG or schedule leaks between cells), match a serial
 * runCell loop, and the baseline cache must key on the full
 * configuration, not just the workload name. An ALERT-free replay
 * stands in for its null baseline, so the suite also checks that the
 * two finish every core at the same time.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "attacks/attack.hh"
#include "common/hash.hh"
#include "common/mutex.hh"
#include "common/thread_pool.hh"
#include "dram/device.hh"
#include "sim/result_io.hh"
#include "sim/run_request.hh"
#include "sim/sweep.hh"
#include "subchannel/counter_slab.hh"
#include "workload/trace_store.hh"

namespace moatsim::sim
{
namespace
{

workload::TraceGenConfig
smallTracegen()
{
    workload::TraceGenConfig tg;
    tg.banksSimulated = 8;
    tg.numCores = 4;
    tg.windowFraction = 0.015625;
    return tg;
}

std::vector<SweepCell>
sampleCells()
{
    std::vector<SweepCell> cells;
    for (const char *w : {"roms", "parest", "xz"}) {
        for (const char *m :
             {"moat", "moat:ath=32,eth=16", "panopticon"}) {
            cells.push_back({workload::findWorkload(w),
                             mitigation::Registry::parse(m),
                             abo::Level::L1});
        }
    }
    cells.push_back({workload::findWorkload("roms"),
                     mitigation::Registry::parse("moat:entries=2"),
                     abo::Level::L2});
    return cells;
}

/** Bit-exact comparison; serialized form covers every field. */
void
expectIdentical(const std::vector<PerfResult> &a,
                const std::vector<PerfResult> &b, const std::string &label)
{
    ASSERT_EQ(a.size(), b.size()) << label;
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(toJsonLine(a[i]), toJsonLine(b[i]))
            << label << " cell " << i;
}

TEST(SweepDeterminism, BitIdenticalAcrossJobCounts)
{
    const auto cells = sampleCells();
    std::vector<std::vector<PerfResult>> runs;
    for (const unsigned jobs : {1u, 2u, 8u}) {
        SweepConfig sc;
        sc.tracegen = smallTracegen();
        sc.jobs = jobs;
        SweepEngine engine(sc);
        runs.push_back(engine.run(cells));
    }
    expectIdentical(runs[0], runs[1], "jobs=1 vs jobs=2");
    expectIdentical(runs[0], runs[2], "jobs=1 vs jobs=8");
}

TEST(SweepDeterminism, MultiSubChannelBitIdenticalAcrossJobCounts)
{
    // Cross-sub-channel determinism: the full-system (2-sub-channel)
    // simulation fans the same cells and must stay bit-identical at
    // jobs=1 and jobs=4 -- the ISSUE's acceptance bar for the System
    // layer.
    auto tg = smallTracegen();
    tg.subchannels = 2;
    const auto cells = sampleCells();
    std::vector<std::vector<PerfResult>> runs;
    for (const unsigned jobs : {1u, 4u}) {
        SweepConfig sc;
        sc.tracegen = tg;
        sc.jobs = jobs;
        SweepEngine engine(sc);
        runs.push_back(engine.run(cells));
    }
    expectIdentical(runs[0], runs[1], "subchannels=2 jobs=1 vs jobs=4");
    // And the breakdown is really per-sub-channel (2 entries).
    for (const auto &r : runs[0])
        EXPECT_EQ(r.perSubchannel.size(), 2u);
}

TEST(SweepDeterminism, MatchesSerialRunCellLoop)
{
    const auto cells = sampleCells();
    SweepConfig sc;
    sc.tracegen = smallTracegen();
    sc.jobs = 4;
    SweepEngine engine(sc);
    const auto parallel = engine.run(cells);

    sc.jobs = 1;
    SweepEngine inline_engine(sc);
    std::vector<PerfResult> serial;
    for (const auto &cell : cells)
        serial.push_back(inline_engine.runCell(cell));
    expectIdentical(parallel, serial, "jobs=4 run vs inline runCell");
}

TEST(SweepDeterminism, RepeatedRunsOnOneEngineAreIdentical)
{
    // The baseline cache is warm on the second run; results must not
    // depend on cache state.
    const auto cells = sampleCells();
    SweepConfig sc;
    sc.tracegen = smallTracegen();
    sc.jobs = 8;
    SweepEngine engine(sc);
    const auto first = engine.run(cells);
    const auto second = engine.run(cells);
    expectIdentical(first, second, "cold vs warm cache");
}

TEST(SweepDeterminism, CellSeedIsAStableCellKey)
{
    const auto tg = smallTracegen();
    const auto &roms = workload::findWorkload("roms");
    const auto &xz = workload::findWorkload("xz");
    const auto moat = mitigation::Registry::parse("moat");
    const auto moat32 = mitigation::Registry::parse("moat:ath=32");

    const uint64_t base = cellSeed(tg, roms, moat, abo::Level::L1);
    EXPECT_EQ(base, cellSeed(tg, roms, moat, abo::Level::L1));
    EXPECT_NE(base, cellSeed(tg, xz, moat, abo::Level::L1));
    EXPECT_NE(base, cellSeed(tg, roms, moat32, abo::Level::L1));
    EXPECT_NE(base, cellSeed(tg, roms, moat, abo::Level::L2));

    auto tg2 = tg;
    tg2.seed += 1;
    EXPECT_NE(base, cellSeed(tg2, roms, moat, abo::Level::L1));
}

TEST(BaselineCache, KeyIncludesConfigNotJustWorkloadName)
{
    // Regression: a shared cache serving two sweeps with different
    // trace configs must not return stale finish times for the second
    // config just because the workload name matches.
    const auto cache = std::make_shared<BaselineCache>();
    workload::TraceStore store;
    const auto &spec = workload::findWorkload("roms");

    auto tg1 = smallTracegen();
    auto tg2 = smallTracegen();
    tg2.windowFraction *= 2;
    const auto traces1 = store.get(spec, tg1);
    const auto traces2 = store.get(spec, tg2);

    const auto f1 = cache->get(tg1, CoreModel{}, spec, *traces1);
    const auto f2 = cache->get(tg2, CoreModel{}, spec, *traces2);
    EXPECT_EQ(cache->size(), 2u);
    ASSERT_EQ(f1->size(), f2->size());
    // Twice the window means later finish times under config 2.
    EXPECT_NE(*f1, *f2);

    // Different core model, same tracegen: also a distinct entry.
    CoreModel core2;
    core2.mlp = 1;
    cache->get(tg1, core2, spec, *traces1);
    EXPECT_EQ(cache->size(), 3u);

    // Re-requesting an existing key hits the cache.
    const auto f1again = cache->get(tg1, CoreModel{}, spec, *traces1);
    EXPECT_EQ(cache->size(), 3u);
    EXPECT_EQ(f1.get(), f1again.get());
}

TEST(BaselineCache, SharedAcrossEnginesGivesIdenticalResults)
{
    const auto cache = std::make_shared<BaselineCache>();
    SweepConfig sc;
    sc.tracegen = smallTracegen();
    sc.jobs = 1;
    SweepEngine a(sc, cache);
    SweepEngine b(sc, cache);
    const SweepCell cell{workload::findWorkload("xz"),
                         mitigation::Registry::parse("moat"),
                         abo::Level::L1};
    EXPECT_EQ(toJsonLine(a.runCell(cell)), toJsonLine(b.runCell(cell)));
    EXPECT_EQ(cache->size(), 1u);
}

TEST(BaselineInvariant, AlertFreeReplayFinishesLikeTheNullBaseline)
{
    // runPerfCell lets an ALERT-free replay stand in for its null
    // baseline. That holds only if nothing but an ALERT's RFM block
    // delays an ACT beyond what REF does: check it for every registry
    // design at ABO L1 and L4 on every Table-4 workload.
    workload::TraceGenConfig tg;
    tg.windowFraction = 1.0 / 1024;
    const CoreModel core{};
    const auto specs = workload::table4Workloads();
    workload::TraceStore store;
    BaselineCache baselines;

    struct Case
    {
        const workload::WorkloadSpec *spec;
        mitigation::MitigatorSpec mitigator;
        abo::Level level;
        uint64_t alerts = 0;
        std::vector<Time> finish;
    };
    std::vector<Case> cases;
    for (const auto &name : mitigation::Registry::names()) {
        for (const abo::Level level : {abo::Level::L1, abo::Level::L4}) {
            for (const auto &spec : specs)
                cases.push_back(
                    {&spec, mitigation::Registry::parse(name), level, 0, {}});
        }
    }
    parallelFor(4, cases.size(), [&](size_t i) {
        Case &c = cases[i];
        const auto traces = store.get(*c.spec, tg);
        System sys(systemConfigFor(tg, c.level, 0), c.mitigator.factory());
        SystemResult res = runSystem(sys, traces->views(), core);
        c.alerts = res.alerts;
        c.finish = std::move(res.coreFinish);
    });

    size_t alert_free = 0;
    for (const Case &c : cases) {
        if (c.alerts > 0)
            continue;
        ++alert_free;
        const auto traces = store.get(*c.spec, tg);
        EXPECT_EQ(c.finish, *baselines.get(tg, core, *c.spec, *traces))
            << c.mitigator.describe() << " at L"
            << abo::levelValue(c.level) << " on " << c.spec->name;
    }
    // Neither side of the branch may be vacuous.
    EXPECT_GT(alert_free, 0u);
    EXPECT_LT(alert_free, cases.size());
}

TEST(BaselineCache, AlertFreeMatrixReplaysNoBaseline)
{
    // Every cell is its own baseline, so the null design never runs.
    std::vector<SweepCell> cells;
    for (const char *w : {"roms", "parest", "xz"}) {
        for (const char *m :
             {"moat:ath=256,eth=128", "panopticon", "ideal-prc"})
            cells.push_back({workload::findWorkload(w),
                             mitigation::Registry::parse(m),
                             abo::Level::L1});
    }
    const auto cache = std::make_shared<BaselineCache>();
    SweepConfig sc;
    sc.tracegen = smallTracegen();
    sc.jobs = 4;
    SweepEngine engine(sc, cache);
    for (const PerfResult &r : engine.run(cells)) {
        ASSERT_EQ(r.alerts, 0u) << r.mitigator << " on " << r.workload;
        EXPECT_EQ(r.normPerf, 1.0);
    }
    EXPECT_EQ(cache->stats().replayed, 0u);
    EXPECT_EQ(cache->stats().adopted, 3u);
    EXPECT_EQ(cache->size(), 3u);
}

TEST(BaselineCache, AdoptedBaselinesGiveTheBytesOfReplayedOnes)
{
    // A mixed matrix (ALERTing and ALERT-free cells) writes the same
    // JSONL whether its baselines come from ALERT-free cells or from
    // null replays that get() ran before the matrix started. Serially,
    // roms and parest adopt their baseline from an ALERT-free
    // panopticon cell and xz replays its own for an ALERTing moat cell.
    std::vector<SweepCell> cells;
    for (const char *w : {"roms", "parest", "xz"}) {
        const std::vector<const char *> designs =
            std::string(w) == "xz"
                ? std::vector{"moat", "panopticon", "moat:ath=32,eth=16"}
                : std::vector{"panopticon", "moat", "moat:ath=32,eth=16"};
        for (const char *m : designs)
            cells.push_back({workload::findWorkload(w),
                             mitigation::Registry::parse(m),
                             abo::Level::L1});
    }
    cells.push_back({workload::findWorkload("roms"),
                     mitigation::Registry::parse("moat:entries=2"),
                     abo::Level::L2});
    const auto tg = smallTracegen();
    const auto jsonl = [](const std::vector<PerfResult> &results) {
        std::string out;
        for (const PerfResult &r : results)
            out += toJsonLine(r) + "\n";
        return out;
    };
    for (const unsigned jobs : {1u, 8u}) {
        SweepConfig sc;
        sc.tracegen = tg;
        sc.jobs = jobs;

        const auto fresh = std::make_shared<BaselineCache>();
        const auto adopted = SweepEngine(sc, fresh).run(cells);

        const auto prefilled = std::make_shared<BaselineCache>();
        workload::TraceStore store;
        for (const SweepCell &c : cells)
            prefilled->get(tg, sc.core, c.workload,
                           *store.get(c.workload, tg));
        const auto replayed = SweepEngine(sc, prefilled).run(cells);

        EXPECT_EQ(jsonl(adopted), jsonl(replayed)) << "jobs=" << jobs;
        size_t alerting = 0;
        for (const PerfResult &r : adopted)
            alerting += r.alerts > 0 ? 1 : 0;
        EXPECT_GT(alerting, 0u);
        EXPECT_LT(alerting, cells.size());
        const auto st = fresh->stats();
        if (jobs == 1) {
            EXPECT_EQ(st.adopted, 2u);
            EXPECT_EQ(st.replayed, 1u);
        }
        // Each baseline is resident once, however it got there.
        EXPECT_EQ(st.adopted + st.replayed, 3u) << "jobs=" << jobs;
        EXPECT_EQ(prefilled->stats().replayed, 3u) << "jobs=" << jobs;
        EXPECT_EQ(prefilled->stats().adopted, 0u) << "jobs=" << jobs;
    }
}

TEST(SweepDeterminism, RecycledSlabsGiveTheSameBytes)
{
    // The same perf and co-attack cell computed twice in one process:
    // the second compute runs on counter slabs the first one dirtied
    // and released, and must write the bytes of the first, at any
    // jobs count.
    const auto jsonlOf = [](const RunRequest &req) {
        ExperimentStores stores;
        ResultStore::Config results;
        results.enabled = true;
        stores.results = std::make_shared<ResultStore>(results);
        stores.traces = std::make_shared<workload::TraceStore>();
        stores.baselines = std::make_shared<BaselineCache>();
        Mutex mu;
        std::vector<std::string> lines;
        runRequest(req, stores, [&](size_t, const std::string &line) {
            MutexLock lock(mu);
            lines.push_back(line);
        });
        std::sort(lines.begin(), lines.end());
        std::string out;
        for (const std::string &l : lines)
            out += l + "\n";
        return out;
    };
    for (const char *kind : {"perf", "coattack"}) {
        RunRequest req;
        req.kind = kind;
        req.workload = "roms";
        req.fraction = 1.0 / 256;
        std::string first;
        for (const unsigned jobs : {1u, 4u}) {
            req.jobs = jobs;
            for (int run = 0; run < 2; ++run) {
                const uint64_t reused =
                    subchannel::CounterSlab::poolStats().reuses;
                const std::string out = jsonlOf(req);
                ASSERT_FALSE(out.empty()) << kind;
                if (first.empty())
                    first = out;
                EXPECT_EQ(out, first)
                    << kind << " jobs=" << jobs << " run " << run;
                if (run == 1) {
                    EXPECT_GT(subchannel::CounterSlab::poolStats().reuses,
                              reused)
                        << kind << ": the second run recycles a slab";
                }
            }
        }
    }
}

TEST(SweepDeterminism, TraceSeedIgnoresMitigator)
{
    // The mitigated run must replay the exact traces its cached
    // baseline ran on: trace seeding may depend on (seed, workload)
    // only.
    const auto tg = smallTracegen();
    const auto &spec = workload::findWorkload("parest");
    const uint64_t s = workload::traceSeed(spec, tg);
    auto tg2 = tg;
    tg2.banksSimulated = 16; // non-seed fields do not move the stream
    EXPECT_EQ(s, workload::traceSeed(spec, tg2));
    auto tg3 = tg;
    tg3.seed = 1234;
    EXPECT_NE(s, workload::traceSeed(spec, tg3));
}

TEST(TraceDeterminism, GeneratedEventsMatchTheirPinnedDigest)
{
    // The generated events of two workloads at 1/1024 tREFW, on the
    // default two-sub-channel system and on a two-rank, two-channel
    // device, fold to pinned digests: every trace byte is part of the
    // golden-result contract, so a change to the stream, the bank
    // placement or the event order must move a digest here first.
    struct Pin
    {
        const char *workload;
        const char *device;
        uint64_t digest;
    };
    const Pin pins[] = {
        {"roms", "", 0x2d2c825be8353ba1ULL},
        {"xz", "", 0xd5ce586538023b4aULL},
        {"roms", "device:org=128gb-2r2ch", 0x5291d94b8f6720e5ULL},
        {"xz", "device:org=128gb-2r2ch", 0x6b20f4bcbfb4a5deULL},
    };
    for (const Pin &pin : pins) {
        workload::TraceGenConfig tg;
        tg.subchannels = 2;
        tg.windowFraction = 1.0 / 1024;
        if (*pin.device != '\0')
            tg = workload::withDevice(
                tg, dram::DeviceSpec::parse(pin.device).resolve());
        const auto &spec = workload::findWorkload(pin.workload);
        uint64_t h = stableHash64(spec.name);
        for (const auto &trace : workload::generateTraces(spec, tg)) {
            h = hashCombine(h, static_cast<uint64_t>(trace.window));
            for (const auto &e : trace.events) {
                for (const uint64_t v :
                     {static_cast<uint64_t>(e.at), uint64_t{e.row},
                      uint64_t{e.bank}, uint64_t{e.subchannel}})
                    h = hashCombine(h, v);
            }
        }
        EXPECT_EQ(h, pin.digest) << pin.workload << " " << pin.device
                                 << ": 0x" << std::hex << h;
    }
}

TEST(ResultIo, EscapedStringsRoundTrip)
{
    // Quotes, backslashes, and control characters in names must
    // survive serialize -> parse -> serialize unchanged.
    PerfResult r;
    r.workload = "we\"ird\\name\nwith\tcontrols";
    r.mitigator = "moat";
    const std::string line = toJsonLine(r);
    const PerfResult back = perfResultOfJsonLine(line);
    EXPECT_EQ(back.workload, r.workload);
    EXPECT_EQ(toJsonLine(back), line);
}

TEST(ResultIo, WriterAndReaderAgreeOnEscapes)
{
    // Writer/reader symmetry across the whole escapable range: names
    // with quotes, backslashes, and every control character must
    // survive serialize -> parse -> serialize byte-identically.
    std::string nasty = "q\"b\\s";
    for (char c = 1; c < 0x20; ++c)
        nasty.push_back(c);
    PerfResult r;
    r.workload = nasty;
    r.mitigator = "m\"\\\t";
    const std::string line = toJsonLine(r);
    const PerfResult back = perfResultOfJsonLine(line);
    EXPECT_EQ(back.workload, nasty);
    EXPECT_EQ(back.mitigator, r.mitigator);
    EXPECT_EQ(toJsonLine(back), line);
}

TEST(ResultIo, StandardJsonEscapesDecodeToTheirCharacters)
{
    // Regression: \n used to decode to the bare letter 'n' (the
    // backslash was silently dropped). Externally produced lines with
    // the standard two-character escapes must decode correctly.
    const std::string line =
        "{\"kind\":\"perf\",\"workload\":\"a\\nb\\tc\\\"d\\\\e\\/f\\r\\b"
        "\\f\",\"mitigator\":\"m\",\"level\":1,\"norm_perf\":1,"
        "\"alerts_per_refi\":0,\"mitigations_per_bank_per_refw\":0,"
        "\"act_overhead\":0,\"alerts\":0,\"acts\":0}";
    const PerfResult r = perfResultOfJsonLine(line);
    EXPECT_EQ(r.workload, std::string("a\nb\tc\"d\\e/f\r\b\f"));
}

TEST(ResultIo, UnicodeEscapesAboveLatin1DecodeAsUtf8)
{
    // Regression: \u0100 and friends were a hard fatal(). They decode
    // to UTF-8 bytes, which the writer passes through raw, so the
    // decoded result re-serializes consistently.
    const std::string line =
        "{\"kind\":\"perf\",\"workload\":\"\\u0100\\u20ac\\u007e\","
        "\"mitigator\":\"m\",\"level\":1,\"norm_perf\":1,"
        "\"alerts_per_refi\":0,\"mitigations_per_bank_per_refw\":0,"
        "\"act_overhead\":0,\"alerts\":0,\"acts\":0}";
    const PerfResult r = perfResultOfJsonLine(line);
    EXPECT_EQ(r.workload, std::string("\xc4\x80\xe2\x82\xac~"));
    // And the decoded form is stable under a second round trip.
    const std::string re = toJsonLine(r);
    EXPECT_EQ(perfResultOfJsonLine(re).workload, r.workload);
}

TEST(ResultIo, MalformedEscapesAreRejectedNotMangled)
{
    const std::string prefix = "{\"kind\":\"perf\",\"workload\":\"";
    const std::string suffix =
        "\",\"mitigator\":\"m\",\"level\":1,\"norm_perf\":1,"
        "\"alerts_per_refi\":0,\"mitigations_per_bank_per_refw\":0,"
        "\"act_overhead\":0,\"alerts\":0,\"acts\":0}";
    EXPECT_EXIT(perfResultOfJsonLine(prefix + "a\\qb" + suffix),
                testing::ExitedWithCode(1), "unknown escape");
    EXPECT_EXIT(perfResultOfJsonLine(prefix + "a\\u12" + suffix),
                testing::ExitedWithCode(1), "escape");
    EXPECT_EXIT(perfResultOfJsonLine(prefix + "a\\ud800b" + suffix),
                testing::ExitedWithCode(1), "surrogate");
    // strtol-isms must not slip through: signs, spaces, 0x prefixes.
    EXPECT_EXIT(perfResultOfJsonLine(prefix + "a\\u-123b" + suffix),
                testing::ExitedWithCode(1), "escape");
    EXPECT_EXIT(perfResultOfJsonLine(prefix + "a\\u0x41b" + suffix),
                testing::ExitedWithCode(1), "escape");
}

TEST(ResultIo, PerSubChannelBreakdownRoundTrips)
{
    PerfResult r;
    r.workload = "w";
    r.mitigator = "moat";
    r.perSubchannel.resize(2);
    r.perSubchannel[0] = {123, 4, 0.125, 830.5};
    r.perSubchannel[1] = {456, 0, 0.0, 829.25};
    const std::string line = toJsonLine(r);
    const PerfResult back = perfResultOfJsonLine(line);
    ASSERT_EQ(back.perSubchannel.size(), 2u);
    EXPECT_EQ(back.perSubchannel[0].acts, 123u);
    EXPECT_EQ(back.perSubchannel[0].alerts, 4u);
    EXPECT_EQ(back.perSubchannel[0].alertsPerRefi, 0.125);
    EXPECT_EQ(back.perSubchannel[1].mitigationsPerBankPerRefw, 829.25);
    EXPECT_EQ(toJsonLine(back), line);

    // The empty breakdown (no System run) round-trips too.
    PerfResult none;
    none.workload = "w";
    none.mitigator = "null";
    const std::string line2 = toJsonLine(none);
    EXPECT_TRUE(perfResultOfJsonLine(line2).perSubchannel.empty());
    EXPECT_EQ(toJsonLine(perfResultOfJsonLine(line2)), line2);
}

TEST(ResultIo, PreSubChannelLinesStayParseable)
{
    // JSONL written before the per-sub-channel arrays existed has no
    // sc_* fields; it must parse to an empty breakdown, not fatal().
    const std::string old_line =
        "{\"kind\":\"perf\",\"workload\":\"roms\",\"mitigator\":\"moat\","
        "\"level\":1,\"norm_perf\":0.5,\"alerts_per_refi\":0.25,"
        "\"mitigations_per_bank_per_refw\":10,\"act_overhead\":0.125,"
        "\"alerts\":7,\"acts\":99}";
    const PerfResult r = perfResultOfJsonLine(old_line);
    EXPECT_EQ(r.workload, "roms");
    EXPECT_EQ(r.alerts, 7u);
    EXPECT_EQ(r.normPerf, 0.5);
    EXPECT_TRUE(r.perSubchannel.empty());
}

TEST(AttackCell, EngineRunMatchesDirectRunAtAnyJobCount)
{
    // An isolated attack is a cell on the one request path: fanned out
    // by the engine at 1 and at 8 workers, through a live result store
    // (so every line round-trips), each cell must equal a direct
    // runAttack() byte for byte.
    std::vector<AttackCell> cells;
    for (const auto &[pattern, mitigator, trials] :
         {std::tuple{"postponement", "panopticon", 8u},
          std::tuple{"round-robin", "moat", 0u},
          std::tuple{"hammer", "null", 0u}}) {
        RunRequest req;
        req.kind = "attack";
        req.pattern = pattern;
        req.mitigator = mitigator;
        // Each pattern gets only the knob its driver reads.
        req.budget = trials == 0 ? 512 : 0;
        req.trials = trials;
        ASSERT_TRUE(validateRunRequest(req));
        cells.push_back(attackCellOf(req));
    }
    for (const unsigned jobs : {1u, 8u}) {
        SweepConfig sc;
        sc.jobs = jobs;
        ResultStore::Config store;
        store.enabled = true;
        sc.resultStore = std::make_shared<ResultStore>(store);
        SweepEngine engine(sc);
        const auto results = engine.run(cells);
        ASSERT_EQ(results.size(), cells.size());
        for (size_t i = 0; i < cells.size(); ++i) {
            EXPECT_EQ(toJsonLine(results[i]),
                      toJsonLine(attacks::runAttack(cells[i].attack,
                                                    cells[i].mitigator)))
                << cells[i].attack.pattern << " at jobs=" << jobs;
        }
    }
}

} // namespace
} // namespace moatsim::sim
