/**
 * @file
 * Shared result types and the common attack entry point.
 *
 * Every attack in moatsim drives a SubChannel through its public
 * command API exactly as a memory controller under attacker control
 * would (the threat model of Section 2.1: arbitrary addresses, known
 * defence state, attacker-chosen memory policy), and reports the
 * ground-truth security outcome measured by the SecurityMonitor.
 *
 * runAttack() is the one entry to an attack pattern: a named pattern
 * plus a mitigation::MitigatorSpec naming any registered defence.
 * Generic patterns ("hammer", "round-robin") run against every design;
 * the paper's specialized patterns ("ratchet", "jailbreak",
 * "feinting", "postponement") target one design each, and so do the
 * Section-7 throughput attacks ("kernel", "tsa"), which report the ACT
 * throughput they cost besides the hammer count. One table,
 * attackPatterns(), lists every pattern with its design, the
 * AttackConfig knobs it reads and its plan: the one place a pattern's
 * defaults, limits, price and the spec settings it cannot honor are
 * worked out. planAttack() reads the table, so a request the
 * driver cannot lay out is refused with a message before anything
 * runs, and the driver runs exactly what the plan says.
 */

#ifndef MOATSIM_ATTACKS_ATTACK_HH
#define MOATSIM_ATTACKS_ATTACK_HH

#include <cstdint>
#include <string>
#include <vector>

#include "abo/abo.hh"
#include "common/time.hh"
#include "dram/timing.hh"

namespace moatsim::mitigation
{
class MitigatorSpec;
} // namespace moatsim::mitigation

namespace moatsim::attacks
{

/** Outcome of a security attack run. */
struct AttackResult
{
    /** Pattern and canonical mitigator spec of the run; runAttack()
     *  fills them in after the pattern's driver returns. */
    std::string pattern;
    std::string mitigator;
    /** Maximum activations any row received without intervening
     *  mitigation or refresh (the paper's success metric). */
    uint32_t maxHammer = 0;
    /** Total activations the attacker issued. */
    uint64_t totalActs = 0;
    /** ALERTs the defence asserted during the attack. */
    uint64_t alerts = 0;
    /** Wall-clock (simulated) duration of the attack. */
    Time duration = 0;
    /** Throughput attacks only (AttackPattern::throughput): the share
     *  of ACT throughput the ALERTs cost, 1 - (ACT rate under attack /
     *  ACT rate of the same activations on an ALERT-free channel). */
    double lossFraction = 0.0;
};

/** Configuration of the common runAttack() entry point. Every field
 *  shapes the result, so every field must be folded into
 *  sim::attackCellKey() -- the ResultStore serves cached attack lines
 *  by that key; keylint proves it on every build. */
// moatlint: key-source(attackCellKey)
struct AttackConfig
{
    dram::TimingParams timing{};
    /** ABO mitigation level of the channel. */
    abo::Level aboLevel = abo::Level::L1;
    /** Pattern name; see attackPatterns(). */
    std::string pattern = "hammer";
    /** Rows in the attack pool (0 = pattern-specific default). */
    uint32_t poolRows = 0;
    /** Activation budget (0 = pattern-specific default). */
    uint64_t budget = 0;
    /** Alignment trials for phase-sweeping patterns (0 = default). */
    uint32_t trials = 0;
    /** Banks the pattern drives at once (0 = one). */
    uint32_t banks = 0;
};

/** What a pattern's driver runs for one request, worked out before it
 *  runs (the cell key stays that of the request). */
struct AttackPlan
{
    /** The request, every knob the driver reads at the value it runs
     *  (defaults applied) and banks at least 1. */
    AttackConfig knobs;
    /** About the activations the driver issues (sim::estimatedCost()). */
    uint64_t acts = 0;
    /** Why the request cannot run, naming the knob; empty when it can. */
    std::string refusal;
};

/** One row of the pattern table. */
struct AttackPattern
{
    std::string name;
    /** The one design the pattern targets; empty for a generic
     *  pattern, which runs against any design. */
    std::string design;
    /** The knobs of AttackConfig the driver reads, by request field
     *  name ("pool_rows", "budget", "trials", "banks"); any other must
     *  be 0. */
    std::vector<std::string> reads;
    /** Given plan.knobs = a request that names the design and sets only
     *  knobs in `reads` (banks at least 1), applies the defaults,
     *  prices the run and refuses what the driver cannot run. */
    void (*plan)(AttackPlan &, const mitigation::MitigatorSpec &) = nullptr;
    /** The driver, called with a plan that has no refusal. */
    AttackResult (*run)(const AttackPlan &,
                        const mitigation::MitigatorSpec &) = nullptr;
    /** Whether the driver measures throughput, so its result line
     *  carries loss_fraction. */
    bool throughput = false;

    /** The design the pattern runs against when none is named. */
    std::string defaultDesign() const
    {
        return design.empty() ? "moat" : design;
    }
};

/** Every pattern runAttack() understands, in table order. */
const std::vector<AttackPattern> &attackPatterns();

/** The row of @p name, or null when no pattern has that name. */
const AttackPattern *findAttackPattern(const std::string &name);

/**
 * The plan of @p config against @p mitigator; refused when the pattern
 * is unknown or targets another design, when a knob the driver does
 * not read is set (it would only key a duplicate cell), or by the
 * pattern's own plan. Never fatal()s.
 */
AttackPlan planAttack(const AttackConfig &config,
                      const mitigation::MitigatorSpec &mitigator);

/** Whether planAttack() accepts the request; its refusal in @p err
 *  when not and @p err is non-null. */
bool checkAttack(const AttackConfig &config,
                 const mitigation::MitigatorSpec &mitigator,
                 std::string *err = nullptr);

/**
 * Run a named attack pattern against any registered mitigator design.
 * fatal()s with planAttack()'s refusal on a request it cannot run.
 */
AttackResult runAttack(const AttackConfig &config,
                       const mitigation::MitigatorSpec &mitigator);

} // namespace moatsim::attacks

#endif // MOATSIM_ATTACKS_ATTACK_HH
