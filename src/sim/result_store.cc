#include "sim/result_store.hh"

#include <charconv>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <utility>
#include <vector>

#include "common/fault.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "common/number_text.hh"
#include "sim/result_io.hh"

namespace moatsim::sim
{

namespace
{

/** Fixed shard fan-out: small enough to open-and-scan cheaply, large
 *  enough that concurrent appends rarely contend on one file. */
constexpr uint64_t kShards = 16;

/** Exactly 16 lowercase hex digits; anything else is corrupt. */
bool
parseHex16(const std::string &s, uint64_t *out)
{
    const auto [end, ec] =
        std::from_chars(s.data(), s.data() + s.size(), *out, 16);
    return ec == std::errc() && end == s.data() + s.size() &&
           s == hexText(*out, 16);
}

std::string
shardFileOf(const std::string &dir, uint64_t shard)
{
    return dir + "/shard-" + hexText(shard, 2) + ".jsonl";
}

std::string
quarantineFileOf(const std::string &dir)
{
    return dir + "/quarantine.jsonl";
}

/**
 * One shard record, framed for tear detection: the FNV sum covers the
 * payload (the original framing, still accepted alone for records
 * written before the CRC existed) and the CRC-32 covers the key text,
 * the sum text, and the payload -- so damage to *any* field, not just
 * the payload, fails the frame.
 */
std::string
recordLineOf(uint64_t folded, const std::string &payload)
{
    const std::string key_text = hexText(folded, 16);
    const std::string sum_text = hexText(stableHash64(payload), 16);
    return JsonLineWriter()
        .field("kind", "result")
        .field("key", key_text)
        .field("sum", sum_text)
        .field("payload", payload)
        .field("crc", hexText(crc32(key_text + sum_text + payload), 8))
        .line();
}

/**
 * Decode and frame-check one shard line. Every record must decode,
 * carry the expected kind, and checksum-match its payload; a record
 * with a crc field must additionally CRC-match across key + sum +
 * payload. Anything else (truncated tail line, flipped byte, foreign
 * file) is corrupt -- a miss, never an error.
 */
bool
tryParseRecord(const std::string &line, uint64_t *key,
               std::string *payload)
{
    std::string key_text;
    std::string sum_text;
    std::string crc_text;
    JsonLineReader record(line, JsonLineReader::Absent::Fail);
    record.tag("kind", "result");
    record.field("key", key_text);
    record.field("sum", sum_text);
    record.field("payload", *payload);
    // Only records written before the CRC existed may rest on the sum
    // alone; a crc that is present but unreadable fails the reader.
    record.tail("crc", crc_text);
    uint64_t sum = 0;
    if (!record.ok() || !parseHex16(key_text, key) ||
        !parseHex16(sum_text, &sum) || stableHash64(*payload) != sum)
        return false;
    if (!crc_text.empty())
        return crc_text ==
               hexText(crc32(key_text + sum_text + *payload), 8);
    // A tear inside the crc key itself leaves no readable field; the
    // bare key text still marks the record as post-CRC.
    return line.find("\"crc\"") == std::string::npos;
}

/** Everything one pass over a shard file found. */
struct ShardScan
{
    /** Intact records in file order, deduped latest-wins. */
    std::vector<std::pair<uint64_t, std::string>> records;
    /** Raw damaged lines, in file order. */
    std::vector<std::string> corrupt_lines;
    /** Same-key re-appends folded into an earlier slot. */
    uint64_t duplicates = 0;
    /** Whether the file existed at all. */
    bool present = false;
};

/** Scan @p path record by record. @p inject_read_faults evaluates the
 *  result-store.read site per record (the live load path; fsck scans
 *  what is actually on disk). */
ShardScan
scanShard(const std::string &path, bool inject_read_faults)
{
    ShardScan scan;
    std::ifstream is(path);
    if (!is)
        return scan; // fresh store: shards appear on first compute
    scan.present = true;
    std::unordered_map<uint64_t, size_t> slot_of;
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        uint64_t key = 0;
        std::string payload;
        const bool injected =
            inject_read_faults && fault::shouldFail("result-store.read");
        if (injected || !tryParseRecord(line, &key, &payload)) {
            scan.corrupt_lines.push_back(line);
            continue;
        }
        // Later records win (a re-append after a partial write), but
        // payloads of equal keys are equal bytes anyway.
        const auto it = slot_of.find(key);
        if (it != slot_of.end()) {
            scan.records[it->second].second = std::move(payload);
            ++scan.duplicates;
        } else {
            slot_of.emplace(key, scan.records.size());
            scan.records.emplace_back(key, std::move(payload));
        }
    }
    return scan;
}

/** Move @p lines to the directory's quarantine file (append-only, raw
 *  bytes); false on I/O failure. */
bool
appendQuarantine(const std::string &dir,
                 const std::vector<std::string> &lines)
{
    if (lines.empty())
        return true;
    std::ofstream os(quarantineFileOf(dir), std::ios::app);
    if (!os)
        return false;
    for (const auto &line : lines)
        os << line << "\n";
    os.flush();
    return static_cast<bool>(os);
}

/** Atomically replace @p path with @p records, re-framed with the
 *  CRC: write a sibling tmp file, then rename over the original. On
 *  any failure the original file is left untouched. */
bool
rewriteShard(const std::string &path,
             const std::vector<std::pair<uint64_t, std::string>> &records)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::trunc);
        if (!os)
            return false;
        for (const auto &[key, payload] : records)
            os << recordLineOf(key, payload) << "\n";
        os.flush();
        if (!os) {
            std::error_code ec;
            std::filesystem::remove(tmp, ec);
            return false;
        }
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::filesystem::remove(tmp, ec);
        return false;
    }
    return true;
}

} // namespace

ResultStore::ResultStore() : ResultStore(envConfig())
{
}

ResultStore::ResultStore(const Config &config) : config_(config)
{
    if (config_.enabled && !config_.dir.empty()) {
        // Best-effort: an unwritable directory degrades the store to
        // in-memory (appends warn once and count, loads see no
        // shards).
        std::error_code ec;
        std::filesystem::create_directories(config_.dir, ec);
        loadShards();
    }
}

uint64_t
ResultStore::foldKey(uint64_t key) const
{
    // The epoch participates in the *stored* key, so an epoch bump
    // orphans every old record -- explicit, total invalidation.
    return hashCombine(hashMix(config_.epoch), key);
}

std::string
ResultStore::shardPathOf(uint64_t folded) const
{
    return shardFileOf(config_.dir, folded % kShards);
}

void
ResultStore::loadShards()
{
    MutexLock lock(mu_);
    for (uint64_t shard = 0; shard < kShards; ++shard) {
        const std::string path = shardFileOf(config_.dir, shard);
        ShardScan scan = scanShard(path, /*inject_read_faults=*/true);
        for (auto &[key, payload] : scan.records)
            flight_.seed(key, std::make_shared<const std::string>(
                                  std::move(payload)));
        loaded_ += scan.records.size() + scan.duplicates;
        corrupt_ += scan.corrupt_lines.size();
        if (scan.corrupt_lines.empty())
            continue;
        // Self-heal: a damaged record is quarantined and counted,
        // never silently dropped -- and the shard is compacted
        // (atomic tmp + rename) so the next load starts clean. The
        // damaged cells simply recompute and re-append.
        warn("result store: " +
             std::to_string(scan.corrupt_lines.size()) +
             " corrupt record(s) in " + path + "; quarantining");
        if (appendQuarantine(config_.dir, scan.corrupt_lines))
            quarantined_ += scan.corrupt_lines.size();
        if (rewriteShard(path, scan.records))
            ++compactions_;
    }
}

void
ResultStore::appendRecord(uint64_t folded, const std::string &payload)
{
    MutexLock lock(io_mu_);
    bool failed = fault::shouldFail("result-store.append");
    if (!failed) {
        std::ofstream os(shardPathOf(folded), std::ios::app);
        if (os) {
            os << recordLineOf(folded, payload) << "\n";
            os.flush();
        }
        failed = !os;
    }
    if (!failed)
        return;
    // Best-effort persistence: the in-memory entry still serves, so
    // an unwritable shard costs recomputes in *future* processes,
    // never correctness now. Warn once per shard, count every miss.
    ++append_failures_;
    const uint32_t shard_bit = 1U << (folded % kShards);
    if ((warned_shards_ & shard_bit) == 0) {
        warned_shards_ |= shard_bit;
        warn("result store: cannot append to " + shardPathOf(folded) +
             "; serving this shard from memory only");
    }
}

ResultStore::FsckReport
ResultStore::fsck(const std::string &dir, bool repair)
{
    FsckReport report;
    for (uint64_t shard = 0; shard < kShards; ++shard) {
        const std::string path = shardFileOf(dir, shard);
        ShardScan scan = scanShard(path, /*inject_read_faults=*/false);
        if (!scan.present)
            continue;
        ++report.shards;
        report.valid += scan.records.size();
        report.corrupt += scan.corrupt_lines.size();
        report.duplicates += scan.duplicates;
        if (!repair ||
            (scan.corrupt_lines.empty() && scan.duplicates == 0))
            continue;
        if (!appendQuarantine(dir, scan.corrupt_lines)) {
            warn("fsck: cannot quarantine " +
                 std::to_string(scan.corrupt_lines.size()) +
                 " record(s) from " + path + "; shard left as is");
            continue;
        }
        if (rewriteShard(path, scan.records))
            ++report.repaired;
        else
            warn("fsck: cannot rewrite " + path + "; shard left as is");
    }
    return report;
}

ResultStore::Config
ResultStore::configOf(const std::string &text)
{
    Config cfg;
    if (!text.empty() && text != "0") {
        cfg.enabled = true;
        if (text != "1")
            cfg.dir = text;
    }
    return cfg;
}

ResultStore::Config
ResultStore::envConfig()
{
    Config cfg;
    // getenv is read at startup before any worker threads exist, and
    // nothing in the process mutates the environment.
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    if (const char *s = std::getenv("MOATSIM_RESULT_STORE"))
        cfg = configOf(s);
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    if (const char *s = std::getenv("MOATSIM_RESULT_STORE_EPOCH")) {
        if (!parseDecimal(s, &cfg.epoch))
            warn(std::string("MOATSIM_RESULT_STORE_EPOCH='") + s +
                 "' is not an unsigned integer; keeping epoch " +
                 std::to_string(cfg.epoch));
    }
    return cfg;
}

std::shared_ptr<const std::string>
ResultStore::getOrCompute(uint64_t key,
                          const std::function<std::string()> &compute)
{
    if (!config_.enabled) {
        auto value = std::make_shared<const std::string>(compute());
        MutexLock lock(mu_);
        ++uncached_;
        return value;
    }

    const uint64_t folded = foldKey(key);
    auto [value, computed] = flight_.get(folded, [&] {
        return std::make_shared<const std::string>(compute());
    });
    // Only the call that computed persists the record.
    if (computed && !config_.dir.empty())
        appendRecord(folded, *value);
    return value;
}

ResultStore::Stats
ResultStore::stats() const
{
    const auto f = flight_.stats();
    Stats s;
    s.hits = f.hits;
    s.entries = f.entries;
    s.inFlight = f.inFlight;
    {
        MutexLock lock(mu_);
        s.misses = f.misses + uncached_;
        s.computes = f.misses + uncached_;
        s.loaded = loaded_;
        s.corrupt = corrupt_;
        s.quarantined = quarantined_;
        s.compactions = compactions_;
    }
    {
        MutexLock lock(io_mu_);
        s.appendFailures = append_failures_;
    }
    return s;
}

} // namespace moatsim::sim
