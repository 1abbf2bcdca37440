/**
 * @file
 * Common attack driver: runAttack(AttackConfig, MitigatorSpec).
 *
 * The generic patterns drive the defence purely through the SubChannel
 * command interface, so they run against any registered design; the
 * specialized patterns re-dispatch to the paper's tuned drivers once
 * checkAttack() has matched the spec against the pattern table.
 */

#include "attacks/attack.hh"

#include <algorithm>
#include <functional>
#include <limits>

#include "attacks/feinting.hh"
#include "attacks/jailbreak.hh"
#include "attacks/postponement.hh"
#include "attacks/ratchet.hh"
#include "common/logging.hh"
#include "common/spec_text.hh"
#include "mitigation/registry.hh"
#include "subchannel/subchannel.hh"
#include "workload/attack_trace.hh"

namespace moatsim::attacks
{

namespace
{

using subchannel::SubChannel;
using subchannel::SubChannelConfig;

SubChannel
makeChannel(const AttackConfig &config,
            const mitigation::MitigatorSpec &mitigator)
{
    SubChannelConfig sc;
    sc.timing = config.timing;
    sc.numBanks = 1;
    sc.aboLevel = config.aboLevel;
    return SubChannel(sc, mitigator.factory());
}

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

/** Hammer a single mid-bank row as fast as the command timing allows. */
AttackResult
runHammer(const AttackConfig &config,
          const mitigation::MitigatorSpec &mitigator)
{
    SubChannel ch = makeChannel(config, mitigator);
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
    SubChannel ch = makeChannel(config, mitigator);
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

AttackResult
runRatchetSpec(const AttackConfig &config,
               const mitigation::MitigatorSpec &mitigator)
{
    RatchetConfig cfg;
    cfg.timing = config.timing;
    cfg.moat = mitigation::moatConfigOf(mitigator);
    cfg.aboLevel = config.aboLevel;
    cfg.poolRows = config.poolRows;
    return runRatchet(cfg);
}

AttackResult
runJailbreakSpec(const AttackConfig &config,
                 const mitigation::MitigatorSpec &mitigator)
{
    JailbreakConfig cfg;
    cfg.timing = config.timing;
    cfg.panopticon = mitigation::panopticonConfigOf(mitigator);
    const uint64_t budget =
        config.budget != 0
            ? config.budget
            : static_cast<uint64_t>(cfg.panopticon.queueThreshold) *
                  (cfg.panopticon.queueEntries + 2);
    cfg.hammerActs = static_cast<uint32_t>(std::min<uint64_t>(
        budget, std::numeric_limits<uint32_t>::max()));
    return runDeterministicJailbreak(cfg);
}

AttackResult
runFeintingSpec(const AttackConfig &config,
                const mitigation::MitigatorSpec &mitigator)
{
    const mitigation::IdealPrcConfig prc =
        mitigation::idealPrcConfigOf(mitigator);
    FeintingConfig cfg;
    cfg.timing = config.timing;
    cfg.mitigationPeriodRefis = prc.mitigationPeriodRefis;
    cfg.poolRows = config.poolRows;
    return runFeinting(cfg);
}

AttackResult
runPostponementSpec(const AttackConfig &config,
                    const mitigation::MitigatorSpec &mitigator)
{
    PostponementConfig cfg;
    cfg.timing = config.timing;
    cfg.panopticon = mitigation::panopticonConfigOf(mitigator);
    // The attack only bites the Appendix-B drain-all policy (the
    // table rejects an explicit drain-all=false).
    cfg.panopticon.drainAllOnRef = true;
    if (config.trials != 0)
        cfg.trials = config.trials;
    return runRefreshPostponement(cfg);
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
        {"ratchet", "moat", {}, {"pool_rows"}, runRatchetSpec},
        {"jailbreak", "panopticon", {}, {"budget"}, runJailbreakSpec},
        // The tuned driver models the default defender; only the
        // mitigation period is honored.
        {"feinting", "ideal-prc", {"min-count", "blast"}, {"pool_rows"},
         runFeintingSpec},
        {"postponement", "panopticon", {"drain-all=false"}, {"trials"},
         runPostponementSpec},
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
