#include "sim/run_request.hh"

#include <cerrno>
#include <cstdint>
#include <cstdlib>

#include "attacks/attack.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "dram/device.hh"
#include "mitigation/moat.hh"
#include "sim/result_io.hh"
#include "workload/spec.hh"

namespace moatsim::sim
{

namespace
{

/** Strict base-10 uint64 parse of a bare JSON number token. */
bool
parseU64(const std::string &text, uint64_t *out)
{
    if (text.empty() || text.size() > 20)
        return false;
    for (const char c : text) {
        if (c < '0' || c > '9')
            return false;
    }
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (errno != 0 || end != text.c_str() + text.size())
        return false;
    *out = v;
    return true;
}

/** Strict finite-double parse of a bare JSON number token. */
bool
parseF64(const std::string &text, double *out)
{
    if (text.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (errno != 0 || end != text.c_str() + text.size())
        return false;
    *out = v;
    return true;
}

/** Whether @p key appears as a field name in @p line. Request lines
 *  are flat objects whose only string values are spec/workload names
 *  (no quotes or braces inside), so this literal scan is exact. */
bool
present(const std::string &line, const std::string &key)
{
    return line.find("\"" + key + "\":") != std::string::npos;
}

bool
failField(const std::string &key, const std::string &what,
          std::string *err)
{
    if (err)
        *err = "run request field '" + key + "' " + what;
    return false;
}

/** Decode an optional string field; absent leaves @p out unchanged. */
bool
optString(const std::string &line, const std::string &key,
          std::string *out, std::string *err)
{
    if (!present(line, key))
        return true;
    return tryJsonField(line, key, out, err);
}

/** Decode an optional unsigned field; absent leaves @p out unchanged. */
bool
optU64(const std::string &line, const std::string &key, uint64_t *out,
       std::string *err)
{
    if (!present(line, key))
        return true;
    std::string text;
    if (!tryJsonField(line, key, &text, err))
        return false;
    if (!parseU64(text, out))
        return failField(key, "is not an unsigned integer: " + text, err);
    return true;
}

/** optU64 constrained to 32 bits. */
bool
optU32(const std::string &line, const std::string &key, uint32_t *out,
       std::string *err)
{
    uint64_t v = *out;
    if (!optU64(line, key, &v, err))
        return false;
    if (v > UINT32_MAX)
        return failField(key, "does not fit in 32 bits", err);
    *out = static_cast<uint32_t>(v);
    return true;
}

/** Decode an optional double field; absent leaves @p out unchanged. */
bool
optF64(const std::string &line, const std::string &key, double *out,
       std::string *err)
{
    if (!present(line, key))
        return true;
    std::string text;
    if (!tryJsonField(line, key, &text, err))
        return false;
    if (!parseF64(text, out))
        return failField(key, "is not a number: " + text, err);
    return true;
}

bool
fail(const std::string &what, std::string *err)
{
    if (err)
        *err = what;
    return false;
}

} // namespace

mitigation::MitigatorSpec
withMoatLevelEntries(const mitigation::MitigatorSpec &spec,
                     abo::Level level)
{
    if (spec.name() != "moat" || spec.hasParam("entries"))
        return spec;
    const std::string desc = spec.describe();
    const char sep = desc.find(':') == std::string::npos ? ':' : ',';
    return mitigation::Registry::parse(
        desc + sep + "entries=" +
        std::to_string(abo::levelValue(level)));
}

mitigation::MitigatorSpec
mitigatorOfArgs(const Args &args, abo::Level level)
{
    if (args.has("mitigator")) {
        for (const char *flag : {"ath", "eth"}) {
            if (args.has(flag))
                fatal(std::string("--") + flag +
                      " conflicts with --mitigator; put the parameter "
                      "in the spec (see list-mitigators)");
        }
        return withMoatLevelEntries(
            mitigation::Registry::parse(args.get("mitigator", "moat")),
            level);
    }
    // Legacy MOAT flags: spell out the whole configuration so the spec
    // text -- the result-store key and every describe() the CLI prints
    // -- is identical whether the design came from --ath/--eth or from
    // an equivalent --mitigator string.
    mitigation::MoatConfig moat;
    moat.ath = args.getUint32("ath", 64);
    moat.eth = args.getUint32("eth", moat.ath / 2);
    moat.trackerEntries = static_cast<uint32_t>(abo::levelValue(level));
    return mitigation::Registry::parse(
        "moat:ath=" + std::to_string(moat.ath) +
        ",eth=" + std::to_string(moat.eth) +
        ",entries=" + std::to_string(moat.trackerEntries) +
        ",period=" + std::to_string(moat.mitigationPeriodRefis) +
        ",reset-on-refresh=" + (moat.resetOnRefresh ? "true" : "false") +
        ",safe-reset=" + (moat.safeReset ? "true" : "false") +
        ",blast=" + std::to_string(moat.blastRadius));
}

abo::Level
levelOf(uint64_t level)
{
    if (level != 1 && level != 2 && level != 4)
        fatal("--level must be 1, 2, or 4");
    return static_cast<abo::Level>(level);
}

RunRequest
runRequestOfArgs(const std::string &kind, const Args &args)
{
    RunRequest req;
    req.kind = kind;
    const abo::Level level = levelOf(args.getInt("level", 1));
    req.level = abo::levelValue(level);
    req.mitigator = mitigatorOfArgs(args, level).describe();
    req.workload = args.get("workload", "all");
    req.fraction = args.getDouble("fraction", 0.0625);
    req.subchannels = args.getPositive("subchannels", 2);
    req.seed = args.getInt("trace-seed", 7);
    req.jobs = args.getUint32("jobs", 0);
    if (kind == "coattack") {
        req.pattern = args.get("pattern", "hammer");
        req.poolRows = args.getUint32("pool", 0);
        req.budget = args.getInt("acts", 0);
        req.attackSubchannel = args.getUint32("attack-subchannel", 0);
        req.attackBank = args.getUint32("attack-bank", 0);
        req.attackSeed = args.getInt("seed", 1);
    }
    return req;
}

std::string
toJsonLine(const RunRequest &req)
{
    std::string out = "{\"kind\":" + jsonQuote(req.kind) +
                      ",\"mitigator\":" + jsonQuote(req.mitigator) +
                      ",\"device\":" + jsonQuote(req.device) +
                      ",\"workload\":" + jsonQuote(req.workload) +
                      ",\"level\":" + std::to_string(req.level) +
                      ",\"fraction\":" + jsonDouble(req.fraction) +
                      ",\"subchannels\":" + std::to_string(req.subchannels) +
                      ",\"seed\":" + std::to_string(req.seed) +
                      ",\"jobs\":" + std::to_string(req.jobs);
    if (req.kind == "coattack") {
        out += ",\"pattern\":" + jsonQuote(req.pattern) +
               ",\"pool_rows\":" + std::to_string(req.poolRows) +
               ",\"budget\":" + std::to_string(req.budget) +
               ",\"attack_subchannel\":" +
               std::to_string(req.attackSubchannel) +
               ",\"attack_bank\":" + std::to_string(req.attackBank) +
               ",\"attack_seed\":" + std::to_string(req.attackSeed);
    }
    out += "}";
    return out;
}

uint64_t
requestKey(const RunRequest &req)
{
    uint64_t h = stableHash64("moatsim.run-request.v1");
    h = hashCombine(h, stableHash64(req.kind));
    h = hashCombine(h, stableHash64(req.mitigator));
    h = hashCombine(h, stableHash64(req.device));
    h = hashCombine(h, stableHash64(req.workload));
    h = hashCombine(h, static_cast<uint64_t>(req.level));
    h = hashCombine(h, hashDouble(req.fraction));
    h = hashCombine(h, static_cast<uint64_t>(req.subchannels));
    h = hashCombine(h, req.seed);
    if (req.kind == "coattack") {
        h = hashCombine(h, stableHash64(req.pattern));
        h = hashCombine(h, static_cast<uint64_t>(req.poolRows));
        h = hashCombine(h, req.budget);
        h = hashCombine(h, static_cast<uint64_t>(req.attackSubchannel));
        h = hashCombine(h, static_cast<uint64_t>(req.attackBank));
        h = hashCombine(h, req.attackSeed);
    }
    return h;
}

bool
tryRunRequestOfJsonLine(const std::string &line, RunRequest *req,
                        std::string *err)
{
    RunRequest r;
    uint64_t level = static_cast<uint64_t>(r.level);
    const bool ok =
        optString(line, "kind", &r.kind, err) &&
        optString(line, "mitigator", &r.mitigator, err) &&
        optString(line, "device", &r.device, err) &&
        optString(line, "workload", &r.workload, err) &&
        optU64(line, "level", &level, err) &&
        optF64(line, "fraction", &r.fraction, err) &&
        optU32(line, "subchannels", &r.subchannels, err) &&
        optU64(line, "seed", &r.seed, err) &&
        optU32(line, "jobs", &r.jobs, err) &&
        optString(line, "pattern", &r.pattern, err) &&
        optU32(line, "pool_rows", &r.poolRows, err) &&
        optU64(line, "budget", &r.budget, err) &&
        optU32(line, "attack_subchannel", &r.attackSubchannel, err) &&
        optU32(line, "attack_bank", &r.attackBank, err) &&
        optU64(line, "attack_seed", &r.attackSeed, err);
    if (!ok)
        return false;
    if (level > INT32_MAX)
        return failField("level", "is out of range", err);
    r.level = static_cast<int>(level);
    *req = r;
    return true;
}

bool
validateRunRequest(const RunRequest &req, std::string *err)
{
    if (req.kind != "perf" && req.kind != "coattack")
        return fail("run request kind must be \"perf\" or \"coattack\", "
                    "got \"" + req.kind + "\"", err);
    if (req.level != 1 && req.level != 2 && req.level != 4)
        return fail("run request level must be 1, 2, or 4", err);
    if (!(req.fraction > 0.0) || req.fraction > 1.0)
        return fail("run request fraction must be in (0, 1]", err);
    if (req.subchannels == 0)
        return fail("run request subchannels must be positive", err);

    std::string detail;
    if (!mitigation::Registry::tryParse(req.mitigator, &detail))
        return fail("run request mitigator: " + detail, err);
    dram::DeviceModel device{};
    if (!req.device.empty()) {
        const auto spec = dram::DeviceSpec::tryParse(req.device, &detail);
        if (!spec)
            return fail("run request device: " + detail, err);
        device = spec->resolve();
    }
    if (req.workload != "all" &&
        workload::tryFindWorkload(req.workload) == nullptr)
        return fail("run request workload \"" + req.workload +
                    "\" is not a Table-4 name (or \"all\")", err);

    if (req.kind == "coattack") {
        if (req.pattern != "none") {
            bool known = false;
            for (const auto &p : attacks::attackPatterns())
                known = known || p == req.pattern;
            if (!known)
                return fail("run request pattern \"" + req.pattern +
                            "\" is not a registered attack (or "
                            "\"none\")", err);
        }
        const uint32_t slots = slotCountOf(req);
        if (req.attackSubchannel >= slots)
            return fail("run request attack_subchannel must be below "
                        "the sub-channel slot count (" +
                        std::to_string(slots) + ")", err);
        if (req.attackBank >= device.banksPerSubchannel())
            return fail("run request attack_bank must be below the "
                        "banks per sub-channel (" +
                        std::to_string(device.banksPerSubchannel()) +
                        ")", err);
    }
    return true;
}

uint32_t
slotCountOf(const RunRequest &req)
{
    uint32_t slots = req.subchannels;
    if (!req.device.empty()) {
        if (const auto spec =
                dram::DeviceSpec::tryParse(req.device, nullptr)) {
            const dram::DeviceModel dm = spec->resolve();
            slots *= dm.channels() * dm.ranks();
        }
    }
    return slots;
}

double
estimatedCost(const RunRequest &req)
{
    double actSum = 0.0;
    if (req.workload == "all") {
        for (const auto &w : workload::table4Workloads())
            actSum += w.actPki;
    } else if (const auto *w = workload::tryFindWorkload(req.workload)) {
        actSum = w->actPki;
    }
    double cost = actSum * req.fraction *
                  static_cast<double>(slotCountOf(req));
    if (req.kind == "coattack")
        cost *= 2.0; // the attack-free baseline co-run
    return cost;
}

ExperimentConfig
experimentConfigOf(const RunRequest &req)
{
    ExperimentConfig ec;
    ec.tracegen.windowFraction = req.fraction;
    ec.tracegen.subchannels = req.subchannels;
    ec.tracegen.seed = req.seed;
    ec.device = req.device;
    ec.aboLevel = levelOf(static_cast<uint64_t>(req.level));
    ec.mitigator = mitigation::Registry::parse(req.mitigator);
    ec.workload = req.workload;
    ec.jobs = req.jobs;
    return ec;
}

CoAttackScenario
coAttackScenarioOf(const RunRequest &req)
{
    CoAttackScenario attack;
    attack.pattern = req.pattern;
    attack.poolRows = req.poolRows;
    attack.budget = req.budget;
    attack.subchannel = req.attackSubchannel;
    attack.bank = req.attackBank;
    attack.seed = req.attackSeed;
    return attack;
}

} // namespace moatsim::sim
