/**
 * @file
 * The sim::ResultStore contract: content-addressed whole-cell caching
 * with single-flight first touch, byte-identical warm re-runs at any
 * jobs count (with zero recomputation and zero trace generation),
 * explicit epoch-bump invalidation, corrupt/truncated shard records
 * degrading to misses instead of bad results, crash recovery
 * (quarantine + atomic compaction, byte-identical warm re-runs over
 * damaged shards), the fsck scan/repair pass, fault-injected append
 * failures degrading to memory-only service, and single-flight
 * computes that throw propagating without being cached.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/fault.hh"
#include "mitigation/registry.hh"
#include "sim/experiment.hh"
#include "sim/perf.hh"
#include "sim/result_io.hh"
#include "sim/result_store.hh"

namespace moatsim::sim
{
namespace
{

namespace fs = std::filesystem;

/** A fresh, empty shard directory under the test temp root. */
std::string
freshDir(const std::string &name)
{
    const fs::path dir = fs::path(::testing::TempDir()) / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

ResultStore::Config
persistentConfig(const std::string &dir)
{
    ResultStore::Config cfg;
    cfg.enabled = true;
    cfg.dir = dir;
    return cfg;
}

ResultStore::Config
memoryConfig()
{
    ResultStore::Config cfg;
    cfg.enabled = true;
    return cfg;
}

/** A deliberately tiny experiment (one workload, two sweep points). */
ExperimentConfig
smallConfig()
{
    ExperimentConfig ec;
    ec.tracegen.banksSimulated = 8;
    ec.tracegen.numCores = 4;
    ec.tracegen.windowFraction = 0.015625;
    ec.workload = "x264";
    return ec;
}

std::vector<SweepPoint>
smallMatrix()
{
    return {{mitigation::Registry::parse("moat:ath=64"), abo::Level::L1},
            {mitigation::Registry::parse("moat:ath=128,eth=64"),
             abo::Level::L2}};
}

/** Run the small matrix and return its results as one JSONL blob. */
std::string
runSuite(ExperimentConfig ec, unsigned jobs, ResultStore::Stats *stats,
         uint64_t *trace_misses)
{
    ec.jobs = jobs;
    Experiment exp(ec);
    std::string out;
    for (const auto &row : exp.runMatrix(smallMatrix())) {
        for (const auto &r : row)
            out += toJsonLine(r) + "\n";
    }
    if (stats != nullptr)
        *stats = exp.resultStore()->stats();
    if (trace_misses != nullptr)
        *trace_misses = exp.traceStore()->stats().misses;
    return out;
}

TEST(ResultStore, DisabledIsAPassThrough)
{
    ResultStore disabled{ResultStore::Config{}};
    std::atomic<int> computes{0};
    const auto a = disabled.getOrCompute(7, [&] {
        ++computes;
        return std::string("payload");
    });
    const auto b = disabled.getOrCompute(7, [&] {
        ++computes;
        return std::string("payload");
    });
    EXPECT_EQ(*a, "payload");
    EXPECT_EQ(*b, "payload");
    EXPECT_EQ(computes.load(), 2);
    EXPECT_EQ(disabled.stats().computes, 2u);
    EXPECT_EQ(disabled.stats().hits, 0u);
    EXPECT_EQ(disabled.stats().entries, 0u);
}

TEST(ResultStore, ShardRecordFrameBytes)
{
    // The on-disk frame: key, FNV payload sum, the escaped payload, and
    // a CRC-32 over all three. Shards written by older builds must keep
    // loading, so these bytes may not drift. The key folds the epoch,
    // so the epoch is pinned: an epoch bump moves keys, not the frame.
    const std::string dir = freshDir("rs_frame_bytes");
    {
        ResultStore::Config config = persistentConfig(dir);
        config.epoch = 1;
        ResultStore store(config);
        store.getOrCompute(0x1234, [] {
            return std::string("{\"kind\":\"perf\",\"workload\":\"a\\\"b\"}");
        });
    }
    std::vector<fs::path> files;
    for (const auto &entry : fs::directory_iterator(dir))
        files.push_back(entry.path());
    ASSERT_EQ(files.size(), 1u);
    EXPECT_EQ(files[0].filename().string(), "shard-0f.jsonl");
    std::ifstream is(files[0]);
    const std::string text((std::istreambuf_iterator<char>(is)),
                           std::istreambuf_iterator<char>());
    EXPECT_EQ(text,
              "{\"kind\":\"result\",\"key\":\"da3b59b60fee797f\","
              "\"sum\":\"78c902bf6106e6c6\",\"payload\":"
              "\"{\\\"kind\\\":\\\"perf\\\",\\\"workload\\\":"
              "\\\"a\\\\\\\"b\\\"}\",\"crc\":\"c9756f44\"}\n");

    // And the record reads back as a warm hit.
    ResultStore warm(persistentConfig(dir));
    EXPECT_EQ(warm.stats().loaded, 1u);
    EXPECT_EQ(warm.stats().corrupt, 0u);
}

TEST(ResultStore, SingleFlightComputesEachKeyOnce)
{
    ResultStore store(memoryConfig());
    std::atomic<int> computes{0};
    constexpr int kThreads = 8;
    std::vector<std::shared_ptr<const std::string>> results(kThreads);
    {
        std::vector<std::thread> threads;
        threads.reserve(kThreads);
        for (int i = 0; i < kThreads; ++i) {
            threads.emplace_back([&store, &computes, &results, i] {
                results[i] = store.getOrCompute(42, [&computes] {
                    ++computes;
                    return std::string("cell");
                });
            });
        }
        for (auto &t : threads)
            t.join();
    }
    EXPECT_EQ(computes.load(), 1);
    for (const auto &r : results) {
        ASSERT_NE(r, nullptr);
        EXPECT_EQ(r.get(), results[0].get()) << "one shared payload";
        EXPECT_EQ(*r, "cell");
    }
    const auto st = store.stats();
    EXPECT_EQ(st.computes, 1u);
    EXPECT_EQ(st.misses, 1u);
    EXPECT_EQ(st.hits, static_cast<uint64_t>(kThreads - 1));
    EXPECT_EQ(st.entries, 1u);
    EXPECT_EQ(st.inFlight, 0u);
}

TEST(ResultStore, WarmRerunIsByteIdenticalAndComputesNothing)
{
    const std::string dir = freshDir("moatsim_rs_warm");
    ExperimentConfig ec = smallConfig();
    ec.resultStore = persistentConfig(dir);

    ResultStore::Stats cold;
    const std::string first = runSuite(ec, 1, &cold, nullptr);
    EXPECT_EQ(cold.computes, 2u) << "2 points x 1 workload";
    EXPECT_GT(cold.entries, 0u);

    // Warm re-runs -- serial and parallel -- serve every cell from the
    // shards: zero computes, zero trace generations, identical bytes.
    for (const unsigned jobs : {1u, 8u}) {
        ResultStore::Stats warm;
        uint64_t trace_misses = ~0ull;
        const std::string again = runSuite(ec, jobs, &warm, &trace_misses);
        EXPECT_EQ(again, first) << "jobs=" << jobs;
        EXPECT_EQ(warm.computes, 0u) << "jobs=" << jobs;
        EXPECT_EQ(warm.loaded, cold.computes) << "jobs=" << jobs;
        EXPECT_EQ(trace_misses, 0u)
            << "a warm run must not regenerate traces (jobs=" << jobs
            << ")";
    }
}

TEST(ResultStore, EpochBumpOrphansTheShards)
{
    const std::string dir = freshDir("moatsim_rs_epoch");
    ExperimentConfig ec = smallConfig();
    ec.resultStore = persistentConfig(dir);

    ResultStore::Stats cold;
    const std::string first = runSuite(ec, 1, &cold, nullptr);
    ASSERT_GT(cold.computes, 0u);

    // Same directory, bumped epoch: every lookup misses (the old
    // records are orphaned, not misread) and the bytes still match.
    ec.resultStore.epoch = kResultStoreEpoch + 1;
    ResultStore::Stats bumped;
    const std::string again = runSuite(ec, 1, &bumped, nullptr);
    EXPECT_EQ(again, first);
    EXPECT_EQ(bumped.computes, cold.computes);
    EXPECT_EQ(bumped.hits, cold.hits);
}

TEST(ResultStore, CorruptAndTruncatedRecordsDegradeToMisses)
{
    const std::string dir = freshDir("moatsim_rs_corrupt");
    {
        ResultStore store(persistentConfig(dir));
        store.getOrCompute(1, [] { return std::string("payload-one"); });
    }

    // Mangle the shards: append garbage to each, truncate the last
    // valid record's tail. Every damaged record must load as a miss.
    size_t shards = 0;
    for (const auto &entry : fs::directory_iterator(dir)) {
        ++shards;
        std::string text;
        {
            std::ifstream is(entry.path());
            std::getline(is, text, '\0');
        }
        ASSERT_FALSE(text.empty());
        text.resize(text.size() - 6); // truncate mid-record
        text += "\nnot json at all\n";
        std::ofstream os(entry.path(), std::ios::trunc);
        os << text;
    }
    ASSERT_GT(shards, 0u);

    ResultStore store(persistentConfig(dir));
    EXPECT_EQ(store.stats().loaded, 0u);
    EXPECT_GE(store.stats().corrupt, shards);
    std::atomic<int> computes{0};
    const auto a = store.getOrCompute(1, [&computes] {
        ++computes;
        return std::string("payload-one");
    });
    EXPECT_EQ(*a, "payload-one");
    EXPECT_EQ(computes.load(), 1) << "damaged record = miss, recompute";
}

/** The non-empty shard files under @p dir, sorted by path. */
std::vector<fs::path>
shardFiles(const std::string &dir)
{
    std::vector<fs::path> files;
    for (const auto &entry : fs::directory_iterator(dir)) {
        if (entry.path().filename().string().rfind("shard-", 0) == 0)
            files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    return files;
}

std::string
readAll(const fs::path &path)
{
    std::ifstream is(path);
    std::string text;
    std::getline(is, text, '\0');
    return text;
}

size_t
lineCount(const fs::path &path)
{
    std::ifstream is(path);
    size_t lines = 0;
    std::string line;
    while (std::getline(is, line))
        ++lines;
    return lines;
}

TEST(ResultStore, CrashRecoveryIsByteIdenticalAndSelfHealing)
{
    const std::string dir = freshDir("moatsim_rs_crash");
    ExperimentConfig ec = smallConfig();
    ec.resultStore = persistentConfig(dir);
    const std::string clean = runSuite(ec, 1, nullptr, nullptr);

    // Simulate a crash mid-append plus on-disk rot: truncate one
    // record mid-line (a torn write) and flip a payload byte in
    // another (bit rot) -- in different shards when possible.
    const auto files = shardFiles(dir);
    ASSERT_GE(files.size(), 1u);
    uint64_t damaged = 0;
    {
        const fs::path &victim = files.front();
        std::string text = readAll(victim);
        ASSERT_GT(text.size(), 10u);
        text.resize(text.size() - 10); // tear the record's tail off
        std::ofstream os(victim, std::ios::trunc);
        os << text;
        ++damaged;
    }
    if (files.size() > 1) {
        const fs::path &victim = files.back();
        std::string text = readAll(victim);
        const size_t payload_at = text.find("\"payload\":");
        ASSERT_NE(payload_at, std::string::npos);
        text[payload_at + 12] ^= 0x20; // flip one payload byte
        std::ofstream os(victim, std::ios::trunc);
        os << text;
        ++damaged;
    }

    // A warm run over the damaged store recomputes exactly the
    // damaged cells and reproduces the clean bytes; the load pass
    // quarantines and compacts.
    ResultStore::Stats warm;
    const std::string again = runSuite(ec, 1, &warm, nullptr);
    EXPECT_EQ(again, clean) << "recovery must be byte-identical";
    EXPECT_EQ(warm.corrupt, damaged);
    EXPECT_EQ(warm.quarantined, damaged);
    EXPECT_EQ(warm.compactions, damaged) << "one rewrite per hurt shard";
    EXPECT_EQ(warm.computes, damaged) << "only damaged cells recompute";
    EXPECT_EQ(lineCount(fs::path(dir) / "quarantine.jsonl"), damaged);

    // The heal is durable: a third run loads everything cleanly.
    ResultStore::Stats healed;
    const std::string third = runSuite(ec, 1, &healed, nullptr);
    EXPECT_EQ(third, clean);
    EXPECT_EQ(healed.corrupt, 0u);
    EXPECT_EQ(healed.computes, 0u);
}

TEST(ResultStore, FsckReportsAndRepairsEveryInjectedCorruption)
{
    const std::string dir = freshDir("moatsim_rs_fsck");
    {
        ResultStore store(persistentConfig(dir));
        store.getOrCompute(1, [] { return std::string("payload-one"); });
        store.getOrCompute(2, [] { return std::string("payload-two"); });
    }
    const auto files = shardFiles(dir);
    ASSERT_GE(files.size(), 1u);

    // A clean store fscks clean.
    const auto before = ResultStore::fsck(dir, /*repair=*/false);
    EXPECT_TRUE(before.clean());
    EXPECT_EQ(before.shards, files.size());
    EXPECT_EQ(before.valid, 2u);

    // Inject one torn tail and one garbage line.
    {
        const fs::path &victim = files.front();
        std::string text = readAll(victim);
        text.resize(text.size() - 10);
        text += "\n{\"kind\":\"result\" and then the disk gave up\n";
        std::ofstream os(victim, std::ios::trunc);
        os << text;
    }

    // Report mode sees the damage and changes nothing on disk.
    const auto report = ResultStore::fsck(dir, /*repair=*/false);
    EXPECT_FALSE(report.clean());
    EXPECT_EQ(report.corrupt, 2u);
    EXPECT_EQ(report.repaired, 0u);
    EXPECT_FALSE(fs::exists(fs::path(dir) / "quarantine.jsonl"));

    // Repair quarantines the damage and rewrites the shard; a second
    // fsck is clean and ignores the quarantine file itself.
    const auto repair = ResultStore::fsck(dir, /*repair=*/true);
    EXPECT_EQ(repair.corrupt, 2u);
    EXPECT_EQ(repair.repaired, 1u);
    EXPECT_EQ(lineCount(fs::path(dir) / "quarantine.jsonl"), 2u);
    const auto after = ResultStore::fsck(dir, /*repair=*/false);
    EXPECT_TRUE(after.clean());
    EXPECT_EQ(after.corrupt, 0u);

    // The surviving records still serve.
    ResultStore store(persistentConfig(dir));
    EXPECT_GE(store.stats().loaded, 1u);
}

TEST(ResultStore, InjectedAppendFailureDegradesToMemoryOnly)
{
    const std::string dir = freshDir("moatsim_rs_appendfault");
    fault::arm("result-store.append@1");
    {
        ResultStore store(persistentConfig(dir));
        const auto a =
            store.getOrCompute(1, [] { return std::string("payload"); });
        EXPECT_EQ(*a, "payload") << "the value still serves";
        const auto b =
            store.getOrCompute(1, [] { return std::string("payload"); });
        EXPECT_EQ(a.get(), b.get()) << "memory entry intact";
        EXPECT_EQ(store.stats().appendFailures, 1u);
    }
    fault::disarm();
    EXPECT_TRUE(shardFiles(dir).empty()) << "nothing persisted";

    // With the fault gone the same store persists again.
    std::atomic<int> computes{0};
    {
        ResultStore store(persistentConfig(dir));
        store.getOrCompute(1, [&computes] {
            ++computes;
            return std::string("payload");
        });
    }
    EXPECT_EQ(computes.load(), 1) << "the lost append costs a recompute";
    ResultStore store(persistentConfig(dir));
    EXPECT_EQ(store.stats().loaded, 1u);
    EXPECT_EQ(store.stats().appendFailures, 0u);
}

TEST(ResultStore, ThrowingComputeIsNeverCachedAndWakesWaiters)
{
    ResultStore store(memoryConfig());
    std::atomic<int> computes{0};
    EXPECT_THROW(store.getOrCompute(7,
                                    [&computes]() -> std::string {
                                        ++computes;
                                        throw std::runtime_error("boom");
                                    }),
                 std::runtime_error);
    EXPECT_EQ(store.stats().entries, 0u) << "failure not cached";
    EXPECT_EQ(store.stats().inFlight, 0u);

    // The next touch recomputes and succeeds.
    const auto a = store.getOrCompute(7, [&computes] {
        ++computes;
        return std::string("ok");
    });
    EXPECT_EQ(*a, "ok");
    EXPECT_EQ(computes.load(), 2);

    // Waiters blocked on the in-flight future see the exception too.
    std::atomic<bool> entered{false};
    std::atomic<int> waiter_throws{0};
    std::thread loser([&] {
        while (!entered.load())
            std::this_thread::yield();
        try {
            store.getOrCompute(8, [] { return std::string("never"); });
        } catch (const std::runtime_error &) {
            ++waiter_throws;
        }
    });
    try {
        store.getOrCompute(8, [&]() -> std::string {
            entered = true;
            // Give the loser a chance to join the in-flight entry;
            // the yield loop makes this overwhelmingly likely, and
            // either interleaving keeps the assertions below valid.
            for (int i = 0; i < 1000; ++i)
                std::this_thread::yield();
            throw std::runtime_error("boom");
        });
    } catch (const std::runtime_error &) {
    }
    loser.join();
    // The loser either shared the failed flight (and saw its
    // exception, leaving no entry) or arrived after the erase and
    // computed "never" fresh -- but a failure is never cached.
    const auto b =
        store.getOrCompute(8, [] { return std::string("fresh"); });
    if (waiter_throws.load() == 1)
        EXPECT_EQ(*b, "fresh") << "the failed flight left no entry";
    else
        EXPECT_EQ(*b, "never") << "the loser recomputed on its own";
}

TEST(ResultStore, PerfCellKeySeparatesEveryAxis)
{
    const ExperimentConfig ec = smallConfig();
    const CoreModel core{};
    const auto &w1 = workload::findWorkload("x264");
    const auto &w2 = workload::findWorkload("wrf");
    const auto m1 = mitigation::Registry::parse("moat:ath=64");
    const auto m2 = mitigation::Registry::parse("moat:ath=128");

    const uint64_t base =
        perfCellKey(ec.tracegen, core, w1, m1, abo::Level::L1);
    EXPECT_NE(base, perfCellKey(ec.tracegen, core, w2, m1, abo::Level::L1));
    EXPECT_NE(base, perfCellKey(ec.tracegen, core, w1, m2, abo::Level::L1));
    EXPECT_NE(base, perfCellKey(ec.tracegen, core, w1, m1, abo::Level::L2));

    auto tg = ec.tracegen;
    tg.seed += 1;
    EXPECT_NE(base, perfCellKey(tg, core, w1, m1, abo::Level::L1));
    tg = ec.tracegen;
    tg.windowFraction *= 2.0;
    EXPECT_NE(base, perfCellKey(tg, core, w1, m1, abo::Level::L1));
}

} // namespace
} // namespace moatsim::sim
