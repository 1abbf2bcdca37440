/**
 * @file
 * Common attack driver: runAttack(AttackConfig, MitigatorSpec).
 *
 * The generic patterns drive the defence purely through the SubChannel
 * command interface, so they run against any registered design; the
 * specialized and throughput patterns (patterns.hh) target the one
 * design the pattern table names. checkAttack() matches a request
 * against that table before any driver runs.
 */

#include "attacks/attack.hh"

#include <algorithm>
#include <functional>

#include "attacks/patterns.hh"
#include "common/logging.hh"
#include "common/spec_text.hh"
#include "mitigation/registry.hh"
#include "subchannel/subchannel.hh"
#include "workload/attack_trace.hh"

namespace moatsim::attacks
{

using subchannel::SubChannel;

SubChannel
makeChannel(const AttackConfig &config,
            const mitigation::Mitigator &prototype, bool refreshResetsRows)
{
    subchannel::SubChannelConfig sc;
    sc.timing = config.timing;
    sc.numBanks = std::max(config.banks, 1u);
    sc.aboLevel = config.aboLevel;
    sc.refreshResetsRows = refreshResetsRows;
    return SubChannel(sc, prototype);
}

AttackResult
resultOf(const SubChannel &ch)
{
    AttackResult res;
    for (BankId b = 0; b < ch.numBanks(); ++b)
        res.maxHammer = std::max(res.maxHammer, ch.security(b).maxHammer());
    res.totalActs = ch.stats().acts;
    res.alerts = ch.abo().alertCount();
    res.duration = ch.now();
    return res;
}

namespace
{

/**
 * Drain to quiescence: a fixed post-attack advance (the old 2000 ns)
 * cut off still-pending ALERT/recovery work at high ABO levels, so
 * `alerts` and `duration` undercounted. One refresh window is enough
 * for every registered design's REF-time mitigation to retire the
 * last want.
 */
void
drain(SubChannel &ch)
{
    ch.drainToQuiescence(ch.timing().tREFW);
}

/** The hammer budget: `budget`, 4096 by default. */
uint64_t
hammerActs(const AttackConfig &config, const mitigation::MitigatorSpec &)
{
    return config.budget != 0 ? config.budget : 4096;
}

/** The round-robin pool: `pool_rows`, 8 by default. */
uint32_t
roundRobinPool(const AttackConfig &config)
{
    return config.poolRows != 0 ? config.poolRows : 8;
}

/** The round-robin budget: `budget`, 512 per pool row by default. */
uint64_t
roundRobinActs(const AttackConfig &config,
               const mitigation::MitigatorSpec &)
{
    return config.budget != 0 ? config.budget
                              : 512ULL * roundRobinPool(config);
}

/** Hammer a single mid-bank row as fast as the command timing allows. */
AttackResult
runHammer(const AttackConfig &config,
          const mitigation::MitigatorSpec &mitigator)
{
    SubChannel ch = makeChannel(config, mitigator.factory());
    const uint64_t budget = hammerActs(config, mitigator);
    const RowId target = workload::attackBaseRow(config.timing);
    for (uint64_t i = 0; i < budget; ++i)
        ch.activate(0, target);
    drain(ch);
    return resultOf(ch);
}

/** Hammer a pool of rows circularly (the many-sided pattern). */
AttackResult
runRoundRobin(const AttackConfig &config,
              const mitigation::MitigatorSpec &mitigator)
{
    SubChannel ch = makeChannel(config, mitigator.factory());
    const uint32_t pool = roundRobinPool(config);
    const uint64_t budget = roundRobinActs(config, mitigator);
    // The same placement convention the co-attack trace synthesizer
    // uses, so the isolated and co-scheduled variants stay comparable.
    const std::vector<RowId> rows =
        workload::attackRowPool(config.timing, pool);
    for (uint64_t i = 0; i < budget; ++i)
        ch.activate(0, rows[i % pool]);
    drain(ch);
    return resultOf(ch);
}

/** Whether @p spec sets @p setting: `key` (any explicit value) or
 *  `key=value` (that canonical value). */
bool
setsParam(const mitigation::MitigatorSpec &spec, const std::string &setting)
{
    if (setting.find('=') == std::string::npos)
        return spec.hasParam(setting);
    const std::string text = spec.describe();
    const auto items = splitList(text.substr(text.find(':') + 1), ',');
    return std::find(items.begin(), items.end(), setting) != items.end();
}

} // namespace

const std::vector<AttackPattern> &
attackPatterns()
{
    static const std::vector<AttackPattern> table = {
        {"hammer", "", {}, {"budget"}, runHammer, hammerActs},
        {"round-robin", "", {}, {"pool_rows", "budget"}, runRoundRobin,
         roundRobinActs,
         [](const AttackConfig &c, const mitigation::MitigatorSpec &) {
             return workload::maxAttackPoolRows(c.timing);
         }},
        // At most the largest pool, every row primed to ATH and raised
        // about once more.
        {"ratchet", "moat", {}, {"pool_rows"}, runRatchet,
         [](const AttackConfig &c, const mitigation::MitigatorSpec &m) {
             const uint64_t pool =
                 c.poolRows != 0 ? c.poolRows : maxRatchetPoolRows(c, m);
             return pool * (mitigation::moatConfigOf(m).ath + 1);
         },
         maxRatchetPoolRows},
        {"jailbreak", "panopticon", {}, {"budget"}, runJailbreak,
         jailbreakActs},
        // The tuned driver models the default defender; only the
        // mitigation period is honored. Its rounds span at most one
        // refresh window of back-to-back ACTs.
        {"feinting", "ideal-prc", {"min-count", "blast"}, {"pool_rows"},
         runFeinting,
         [](const AttackConfig &c, const mitigation::MitigatorSpec &) {
             return static_cast<uint64_t>(c.timing.availableWindow() /
                                          c.timing.tRC);
         },
         maxFeintingPoolRows},
        {"postponement", "panopticon", {"drain-all=false"}, {"trials"},
         runPostponement, postponementActs},
        // Section 7's throughput attacks: one driver for the Figure-13
        // kernels and (banks > 1) the synchronized attack of Sec. 7.2.
        {"kernel", "moat", {}, {"pool_rows", "banks"}, runKernel,
         throughputActs, maxThroughputPoolRows, true},
        {"tsa", "moat", {}, {"pool_rows", "banks"}, runTsa, throughputActs,
         maxThroughputPoolRows, true},
    };
    return table;
}

const AttackPattern *
findAttackPattern(const std::string &name)
{
    for (const AttackPattern &p : attackPatterns()) {
        if (p.name == name)
            return &p;
    }
    return nullptr;
}

bool
checkAttack(const AttackConfig &config,
            const mitigation::MitigatorSpec &mitigator, std::string *err)
{
    const auto fail = [err](const std::string &what) {
        if (err != nullptr)
            *err = what;
        return false;
    };
    const std::string &pattern = config.pattern;
    const AttackPattern *p = findAttackPattern(pattern);
    if (p == nullptr) {
        return fail("unknown attack pattern '" + pattern + "' (known: " +
                    joinNames(attackPatterns(), &AttackPattern::name) +
                    ")");
    }
    if (!p->design.empty() && mitigator.name() != p->design) {
        return fail("attack pattern '" + pattern + "' targets the '" +
                    p->design + "' design, got '" + mitigator.describe() +
                    "' (generic patterns: hammer, round-robin)");
    }
    for (const std::string &setting : p->rejects) {
        if (setsParam(mitigator, setting))
            return fail("the " + pattern + " pattern does not honor '" +
                        setting + "' (got '" + mitigator.describe() + "')");
    }
    const std::pair<const char *, uint64_t> knobs[] = {
        {"pool_rows", config.poolRows},
        {"budget", config.budget},
        {"trials", config.trials},
        {"banks", config.banks}};
    for (const auto &[knob, value] : knobs) {
        if (value != 0 &&
            std::find(p->reads.begin(), p->reads.end(), knob) ==
                p->reads.end())
            return fail("the " + pattern + " pattern does not read '" +
                        knob + "' (got " + std::to_string(value) +
                        "; it reads " + joinNames(p->reads, std::identity{}) +
                        ")");
    }
    if (p->maxPoolRows != nullptr) {
        const uint32_t most = p->maxPoolRows(config, mitigator);
        if (config.poolRows > most)
            return fail("the " + pattern + " pattern runs a pool of at "
                        "most " + std::to_string(most) +
                        " rows under this timing and design (got " +
                        std::to_string(config.poolRows) + ")");
    }
    return true;
}

AttackResult
runAttack(const AttackConfig &config,
          const mitigation::MitigatorSpec &mitigator)
{
    std::string err;
    if (!checkAttack(config, mitigator, &err))
        fatal(err);
    AttackResult r = findAttackPattern(config.pattern)->run(config, mitigator);
    r.pattern = config.pattern;
    r.mitigator = mitigator.describe();
    return r;
}

} // namespace moatsim::attacks
