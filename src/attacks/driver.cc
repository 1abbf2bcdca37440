/**
 * @file
 * Common attack driver: runAttack(AttackConfig, MitigatorSpec).
 *
 * The generic patterns drive the defence purely through the SubChannel
 * command interface, so they run against any registered design; the
 * specialized patterns (patterns.hh) target the one design the pattern
 * table names. checkAttack() matches a request against that table
 * before any driver runs.
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
    sc.numBanks = 1;
    sc.aboLevel = config.aboLevel;
    sc.refreshResetsRows = refreshResetsRows;
    return SubChannel(sc, prototype);
}

AttackResult
resultOf(const SubChannel &ch)
{
    AttackResult res;
    res.maxHammer = ch.security(0).maxHammer();
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

/** Hammer a single mid-bank row as fast as the command timing allows. */
AttackResult
runHammer(const AttackConfig &config,
          const mitigation::MitigatorSpec &mitigator)
{
    SubChannel ch = makeChannel(config, mitigator.factory());
    const uint64_t budget = config.budget != 0 ? config.budget : 4096;
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
    const uint32_t pool = config.poolRows != 0 ? config.poolRows : 8;
    const uint64_t budget =
        config.budget != 0 ? config.budget : 512ULL * pool;
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
        {"hammer", "", {}, {"budget"}, runHammer},
        {"round-robin", "", {}, {"pool_rows", "budget"}, runRoundRobin},
        {"ratchet", "moat", {}, {"pool_rows"}, runRatchet},
        {"jailbreak", "panopticon", {}, {"budget"}, runJailbreak},
        // The tuned driver models the default defender; only the
        // mitigation period is honored.
        {"feinting", "ideal-prc", {"min-count", "blast"}, {"pool_rows"},
         runFeinting},
        {"postponement", "panopticon", {"drain-all=false"}, {"trials"},
         runPostponement},
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
        {"trials", config.trials}};
    for (const auto &[knob, value] : knobs) {
        if (value != 0 &&
            std::find(p->reads.begin(), p->reads.end(), knob) ==
                p->reads.end())
            return fail("the " + pattern + " pattern does not read '" +
                        knob + "' (got " + std::to_string(value) +
                        "; it reads " + joinNames(p->reads, std::identity{}) +
                        ")");
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
