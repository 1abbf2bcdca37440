/**
 * @file
 * Common attack driver: runAttack(AttackConfig, MitigatorSpec).
 *
 * The generic patterns drive the defence purely through the SubChannel
 * command interface, so they run against any registered design; the
 * specialized and throughput patterns (patterns.hh) target the one
 * design the pattern table names. planAttack() matches a request
 * against that table and the pattern's plan before any driver runs.
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
makeChannel(const AttackPlan &plan, const mitigation::Mitigator &prototype,
            bool refreshResetsRows)
{
    subchannel::SubChannelConfig sc;
    sc.timing = plan.knobs.timing;
    sc.numBanks = plan.knobs.banks;
    sc.aboLevel = plan.knobs.aboLevel;
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

/** Hammer: `budget` ACTs, 4096 by default. */
void
planHammer(AttackPlan &plan, const mitigation::MitigatorSpec &)
{
    if (plan.knobs.budget == 0)
        plan.knobs.budget = 4096;
    plan.acts = plan.knobs.budget;
}

/** Hammer a single mid-bank row as fast as the command timing allows. */
AttackResult
runHammer(const AttackPlan &plan, const mitigation::MitigatorSpec &mitigator)
{
    SubChannel ch = makeChannel(plan, mitigator.factory());
    const RowId target = workload::attackBaseRow(plan.knobs.timing);
    for (uint64_t i = 0; i < plan.knobs.budget; ++i)
        ch.activate(0, target);
    drain(ch);
    return resultOf(ch);
}

/** Round-robin: a pool of `pool_rows` rows, 8 by default, at most what
 *  fits in the bank; a `budget` of 512 ACTs per pool row by default. */
void
planRoundRobin(AttackPlan &plan, const mitigation::MitigatorSpec &)
{
    AttackConfig &k = plan.knobs;
    if (k.poolRows == 0)
        k.poolRows = 8;
    if (k.budget == 0)
        k.budget = 512ULL * k.poolRows;
    plan.acts = k.budget;
    refuseAbove(plan, "pool_rows", k.poolRows,
                workload::maxAttackPoolRows(k.timing), "a pool", "rows");
}

/** Hammer a pool of rows circularly (the many-sided pattern). */
AttackResult
runRoundRobin(const AttackPlan &plan,
              const mitigation::MitigatorSpec &mitigator)
{
    SubChannel ch = makeChannel(plan, mitigator.factory());
    // The same placement convention the co-attack trace synthesizer
    // uses, so the isolated and co-scheduled variants stay comparable.
    const std::vector<RowId> rows =
        workload::attackRowPool(plan.knobs.timing, plan.knobs.poolRows);
    for (uint64_t i = 0; i < plan.knobs.budget; ++i)
        ch.activate(0, rows[i % rows.size()]);
    drain(ch);
    return resultOf(ch);
}

} // namespace

void
refuseAbove(AttackPlan &plan, const char *knob, uint64_t got, uint64_t most,
            const char *what, const char *unit)
{
    if (got > most && plan.refusal.empty())
        plan.refusal = "the " + plan.knobs.pattern + " pattern runs " +
                       what + " of at most " + std::to_string(most) + " " +
                       unit + " under this timing and design (got " + knob +
                       "=" + std::to_string(got) + ")";
}

const std::vector<AttackPattern> &
attackPatterns()
{
    static const std::vector<AttackPattern> table = {
        {"hammer", "", {"budget"}, planHammer, runHammer},
        {"round-robin", "", {"pool_rows", "budget"}, planRoundRobin,
         runRoundRobin},
        {"ratchet", "moat", {"pool_rows"}, planRatchet, runRatchet},
        {"jailbreak", "panopticon", {"budget"}, planJailbreak, runJailbreak},
        {"feinting", "ideal-prc", {"pool_rows"}, planFeinting, runFeinting},
        {"postponement", "panopticon", {"trials"}, planPostponement,
         runPostponement},
        // Section 7's throughput attacks: one driver for the Figure-13
        // kernels and (banks > 1) the synchronized attack of Sec. 7.2.
        {"kernel", "moat", {"pool_rows", "banks"}, planThroughput, runKernel,
         true},
        {"tsa", "moat", {"pool_rows", "banks"}, planThroughput, runTsa, true},
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

AttackPlan
planAttack(const AttackConfig &config,
           const mitigation::MitigatorSpec &mitigator)
{
    AttackPlan plan;
    plan.knobs = config;
    const auto refuse = [&plan](const std::string &why) {
        plan.refusal = why;
        return plan;
    };
    const std::string &pattern = config.pattern;
    const AttackPattern *p = findAttackPattern(pattern);
    if (p == nullptr) {
        return refuse("unknown attack pattern '" + pattern + "' (known: " +
                      joinNames(attackPatterns(), &AttackPattern::name) +
                      ")");
    }
    if (!p->design.empty() && mitigator.name() != p->design) {
        return refuse("attack pattern '" + pattern + "' targets the '" +
                      p->design + "' design, got '" + mitigator.describe() +
                      "' (generic patterns: hammer, round-robin)");
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
            return refuse("the " + pattern + " pattern does not read '" +
                          knob + "' (got " + std::to_string(value) +
                          "; it reads " +
                          joinNames(p->reads, std::identity{}) + ")");
    }
    // Every driver runs at least one bank.
    plan.knobs.banks = std::max(config.banks, 1u);
    p->plan(plan, mitigator);
    return plan;
}

bool
checkAttack(const AttackConfig &config,
            const mitigation::MitigatorSpec &mitigator, std::string *err)
{
    const AttackPlan plan = planAttack(config, mitigator);
    if (err != nullptr)
        *err = plan.refusal;
    return plan.refusal.empty();
}

AttackResult
runAttack(const AttackConfig &config,
          const mitigation::MitigatorSpec &mitigator)
{
    const AttackPlan plan = planAttack(config, mitigator);
    if (!plan.refusal.empty())
        fatal(plan.refusal);
    AttackResult r = findAttackPattern(config.pattern)->run(plan, mitigator);
    r.pattern = config.pattern;
    r.mitigator = mitigator.describe();
    return r;
}

} // namespace moatsim::attacks
