/**
 * @file
 * Common attack driver: runAttack(AttackConfig, MitigatorSpec).
 *
 * The generic patterns drive the defence purely through the SubChannel
 * command interface, so they run against any registered design; the
 * specialized patterns re-dispatch to the paper's tuned drivers after
 * validating that the spec names the design they exploit.
 */

#include "attacks/attack.hh"

#include <algorithm>
#include <limits>

#include "attacks/feinting.hh"
#include "attacks/jailbreak.hh"
#include "attacks/postponement.hh"
#include "attacks/ratchet.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
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
    sc.seed = config.seed;
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
    cfg.seed = config.seed;
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
    cfg.seed = config.seed;
    return runDeterministicJailbreak(cfg);
}

AttackResult
runFeintingSpec(const AttackConfig &config,
                const mitigation::MitigatorSpec &mitigator)
{
    // The tuned driver models the default defender; reject parameters
    // it would otherwise silently ignore.
    for (const char *key : {"min-count", "blast"}) {
        if (mitigator.hasParam(key)) {
            fatal(std::string("the feinting pattern does not honor '") +
                  key + "'; only 'period' is supported (got '" +
                  mitigator.describe() + "')");
        }
    }
    const mitigation::IdealPrcConfig prc =
        mitigation::idealPrcConfigOf(mitigator);
    FeintingConfig cfg;
    cfg.timing = config.timing;
    cfg.mitigationPeriodRefis = prc.mitigationPeriodRefis;
    cfg.poolRows = config.poolRows;
    cfg.seed = config.seed;
    return runFeinting(cfg);
}

AttackResult
runPostponementSpec(const AttackConfig &config,
                    const mitigation::MitigatorSpec &mitigator)
{
    PostponementConfig cfg;
    cfg.timing = config.timing;
    cfg.panopticon = mitigation::panopticonConfigOf(mitigator);
    // The attack only bites the Appendix-B drain-all policy; reject an
    // explicit gradual-policy spec rather than silently overriding it.
    if (mitigator.hasParam("drain-all") &&
        !mitigator.paramBool("drain-all", true)) {
        fatal("the postponement pattern requires the drain-all policy; "
              "got '" + mitigator.describe() + "'");
    }
    cfg.panopticon.drainAllOnRef = true;
    if (config.trials != 0)
        cfg.trials = config.trials;
    cfg.seed = config.seed;
    return runRefreshPostponement(cfg);
}

void
requireDesign(const AttackConfig &config,
              const mitigation::MitigatorSpec &mitigator,
              const std::string &design)
{
    if (mitigator.name() != design) {
        fatal("attack pattern '" + config.pattern + "' targets the '" +
              design + "' design, got '" + mitigator.describe() +
              "' (generic patterns: hammer, round-robin)");
    }
}

} // namespace

std::vector<std::string>
attackPatterns()
{
    return {"hammer", "round-robin", "ratchet", "jailbreak", "feinting",
            "postponement"};
}

AttackResult
runAttack(const AttackConfig &config,
          const mitigation::MitigatorSpec &mitigator)
{
    if (!mitigation::Registry::known(mitigator.name()))
        fatal("runAttack: unknown mitigator '" + mitigator.name() + "'");

    if (config.pattern == "hammer")
        return runHammer(config, mitigator);
    if (config.pattern == "round-robin")
        return runRoundRobin(config, mitigator);
    if (config.pattern == "ratchet") {
        requireDesign(config, mitigator, "moat");
        return runRatchetSpec(config, mitigator);
    }
    if (config.pattern == "jailbreak") {
        requireDesign(config, mitigator, "panopticon");
        return runJailbreakSpec(config, mitigator);
    }
    if (config.pattern == "feinting") {
        requireDesign(config, mitigator, "ideal-prc");
        return runFeintingSpec(config, mitigator);
    }
    if (config.pattern == "postponement") {
        requireDesign(config, mitigator, "panopticon");
        return runPostponementSpec(config, mitigator);
    }

    std::string known;
    for (const auto &p : attackPatterns())
        known += (known.empty() ? "" : ", ") + p;
    fatal("unknown attack pattern '" + config.pattern + "' (known: " +
          known + ")");
}

AttackResult
runAttackTrials(const AttackConfig &config,
                const mitigation::MitigatorSpec &mitigator, uint32_t trials,
                unsigned jobs)
{
    if (trials <= 1)
        return runAttack(config, mitigator);

    std::vector<AttackResult> results(trials);
    parallelFor(jobs, trials, [&](size_t i) {
        AttackConfig c = config;
        c.trials = 1;
        c.seed = config.seed + i;
        results[i] = runAttack(c, mitigator);
    });

    // Strongest outcome; index order breaks ties, so the winner does
    // not depend on the completion schedule.
    size_t best = 0;
    for (size_t i = 1; i < results.size(); ++i) {
        if (results[i].maxHammer > results[best].maxHammer)
            best = i;
    }
    return results[best];
}

} // namespace moatsim::attacks
