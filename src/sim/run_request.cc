#include "sim/run_request.hh"

#include <concepts>
#include <cstdint>
#include <type_traits>

#include "attacks/attack.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "dram/device.hh"
#include "mitigation/moat.hh"
#include "sim/coattack.hh"
#include "sim/result_io.hh"
#include "workload/attack_trace.hh"
#include "workload/spec.hh"
#include "workload/tracegen.hh"

namespace moatsim::sim
{

namespace
{

bool
fail(const std::string &what, std::string *err)
{
    if (err)
        *err = what;
    return false;
}

/**
 * The fields of a request line, in line order; JsonLineWriter and
 * JsonLineReader both walk this list. A field absent from a line keeps
 * its default (forward compatibility).
 */
template <class V, class R>
    requires std::same_as<std::remove_const_t<R>, RunRequest>
void
fields(V &v, R &r)
{
    v.field("kind", r.kind);
    v.field("mitigator", r.mitigator);
    v.field("device", r.device);
    v.field("workload", r.workload);
    v.field("level", r.level);
    v.field("fraction", r.fraction);
    v.field("subchannels", r.subchannels);
    v.field("seed", r.seed);
    v.field("jobs", r.jobs);
    // The attack fields are written and read for the kinds that read
    // them, as requestKey() folds them.
    if (!v.section(r.kind != "perf"))
        return;
    v.field("pattern", r.pattern);
    v.field("pool_rows", r.poolRows);
    v.field("budget", r.budget);
    if (v.section(r.kind == "attack")) {
        v.field("trials", r.trials);
        v.field("banks", r.banks);
    }
    if (!v.section(r.kind == "coattack"))
        return;
    v.field("attack_subchannel", r.attackSubchannel);
    v.field("attack_bank", r.attackBank);
    v.field("attack_seed", r.attackSeed);
}

} // namespace

mitigation::MitigatorSpec
withMoatLevelEntries(const mitigation::MitigatorSpec &spec,
                     abo::Level level)
{
    return mitigation::Registry::withMoatEntries(
        spec, static_cast<uint32_t>(abo::levelValue(level)));
}

mitigation::MitigatorSpec
mitigatorOfArgs(const Args &args, abo::Level level)
{
    if (args.has("mitigator")) {
        for (const char *flag : {"ath", "eth"}) {
            if (args.has(flag))
                fatal(std::string("--") + flag +
                      " conflicts with --mitigator; put the parameter in "
                      "the spec (see list-mitigators)");
        }
        return withMoatLevelEntries(
            mitigation::Registry::parse(args.get("mitigator", "")), level);
    }
    // Legacy MOAT flags: spell out the whole configuration so the spec
    // text -- the result-store key and every describe() the CLI prints
    // -- is identical whether the design came from --ath/--eth or from
    // an equivalent --mitigator string.
    mitigation::MoatConfig moat;
    moat.ath = args.getUint32("ath", moat.ath);
    moat.eth = args.getUint32("eth", moat.ath / 2);
    moat.trackerEntries = static_cast<uint32_t>(abo::levelValue(level));
    return mitigation::Registry::specOf(moat);
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
    req.pattern = args.get("pattern", "hammer");
    // An attack runs against its pattern's own design unless the
    // flags name one.
    const attacks::AttackPattern *pattern =
        kind == "attack" ? attacks::findAttackPattern(req.pattern) : nullptr;
    if (pattern != nullptr && !args.has("mitigator") && !args.has("ath") &&
        !args.has("eth"))
        req.mitigator = withMoatLevelEntries(mitigation::Registry::parse(
                                                 pattern->defaultDesign()),
                                             level)
                            .describe();
    else
        req.mitigator = mitigatorOfArgs(args, level).describe();
    // An attack replays no workload traces.
    if (kind != "attack") {
        req.workload = args.get("workload", "all");
        req.fraction = args.getDouble("fraction", 0.0625);
        req.subchannels = args.getPositive("subchannels", 2);
        req.seed = args.getInt("trace-seed", 7);
    }
    req.jobs = args.getUint32("jobs", 0);
    if (kind != "perf") {
        req.poolRows = args.getUint32("pool", 0);
        req.budget = args.getInt("acts", 0);
    }
    if (kind == "attack") {
        req.trials = args.getUint32("trials", 0);
        req.banks = args.getUint32("banks", 0);
    }
    if (kind == "coattack") {
        req.attackSubchannel = args.getUint32("attack-subchannel", 0);
        req.attackBank = args.getUint32("attack-bank", 0);
        req.attackSeed = args.getInt("seed", 1);
    }
    return req;
}

std::string
toJsonLine(const RunRequest &req)
{
    JsonLineWriter w;
    fields(w, req);
    return w.line();
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
    if (req.kind != "perf") {
        h = hashCombine(h, stableHash64(req.pattern));
        h = hashCombine(h, static_cast<uint64_t>(req.poolRows));
        h = hashCombine(h, req.budget);
    }
    if (req.kind == "attack") {
        h = hashCombine(h, static_cast<uint64_t>(req.trials));
        h = hashCombine(h, static_cast<uint64_t>(req.banks));
    }
    if (req.kind == "coattack") {
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
    JsonLineReader reader(line, JsonLineReader::Absent::Keep);
    fields(reader, r);
    if (!reader.ok())
        return fail("run request: " + reader.error(), err);
    *req = r;
    return true;
}

bool
validateRunRequest(const RunRequest &req, std::string *err)
{
    if (req.kind != "perf" && req.kind != "coattack" && req.kind != "attack")
        return fail("run request kind must be \"perf\", \"coattack\" or "
                    "\"attack\", got \"" + req.kind + "\"", err);
    if (req.level != 1 && req.level != 2 && req.level != 4)
        return fail("run request level must be 1, 2, or 4", err);
    if (!(req.fraction > 0.0) || req.fraction > 1.0)
        return fail("run request fraction must be in (0, 1]", err);
    if (req.subchannels == 0)
        return fail("run request subchannels must be positive", err);

    std::string detail;
    const auto mitigator = mitigation::Registry::tryParse(req.mitigator,
                                                          &detail);
    if (!mitigator)
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

    if (req.kind == "attack") {
        if (!attacks::checkAttack(attackCellOf(req).attack, *mitigator,
                                  &detail))
            return fail("run request: " + detail, err);
        return true;
    }
    // The traces the experiment will generate, under the device it
    // resolves: the same checks fatal() inside generateTraces and
    // generateAttackTrace.
    workload::TraceGenConfig tracegen = experimentConfigOf(req).tracegen;
    if (!req.device.empty())
        tracegen = workload::withDevice(tracegen, device);
    if (!workload::checkTraceGen(tracegen, &detail))
        return fail("run request: " + detail, err);
    if (req.kind == "coattack") {
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
        // The pattern must have a trace shape, its pool must fit the
        // bank and its stream the trace sort's range.
        if (!workload::checkAttackTrace(
                resolveAttack(coAttackScenarioOf(req), tracegen), &detail))
            return fail("run request: " + detail, err);
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
    if (req.kind == "attack") {
        // A perf cost unit is about 2^20 trace ACTs (8 cores at IPC 2
        // and 4 GHz over a 32 ms tREFW, per unit of ACT-PKI x window
        // fraction x slot), each replayed for the baseline and the
        // mitigated run: 2^21 simulated activations.
        const AttackCell cell = attackCellOf(req);
        return static_cast<double>(
                   attacks::planAttack(cell.attack, cell.mitigator).acts) /
               static_cast<double>(uint64_t{1} << 21);
    }
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

AttackCell
attackCellOf(const RunRequest &req)
{
    AttackCell cell;
    if (!req.device.empty())
        cell.attack.timing =
            dram::DeviceSpec::parse(req.device).resolve().timing();
    cell.attack.aboLevel = levelOf(static_cast<uint64_t>(req.level));
    cell.attack.pattern = req.pattern;
    cell.attack.poolRows = req.poolRows;
    cell.attack.budget = req.budget;
    cell.attack.trials = req.trials;
    cell.attack.banks = req.banks;
    cell.mitigator = mitigation::Registry::parse(req.mitigator);
    return cell;
}

void
runRequest(const RunRequest &req, const ExperimentStores &stores,
           const PayloadSink &sink)
{
    // The experiment is per-request (its own worker pool, sized by the
    // request's jobs field); the stores do the cross-request dedupe.
    Experiment exp(experimentConfigOf(req), stores);
    const auto send = [&sink](size_t index, const auto &r) {
        sink(index, toJsonLine(r));
    };
    if (req.kind == "perf")
        exp.run(send);
    else if (req.kind == "coattack")
        exp.runCoAttack(coAttackScenarioOf(req), send);
    else
        exp.engine().run(std::vector{attackCellOf(req)}, send);
}

} // namespace moatsim::sim
