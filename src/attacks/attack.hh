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
 * runAttack() is the one entry to a security pattern: a named pattern
 * plus a mitigation::MitigatorSpec naming any registered defence.
 * Generic patterns ("hammer", "round-robin") run against every design;
 * the paper's specialized patterns ("ratchet", "jailbreak",
 * "feinting", "postponement") target one design each. One table,
 * attackPatterns(), lists every pattern with its design, the spec
 * settings its driver cannot honor and the AttackConfig knobs it
 * reads, and checkAttack() reads it, so a request is rejected with a
 * message before anything runs.
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
};

/** Outcome of a performance (throughput) attack run. */
struct ThroughputAttackResult
{
    /** ACT throughput with the defence active (ACTs per second). */
    double attackRate = 0.0;
    /** ACT throughput of the identical pattern with no ALERTs. */
    double baselineRate = 0.0;
    /** attackRate / baselineRate. */
    double relativeThroughput = 0.0;
    /** 1 - relativeThroughput. */
    double lossFraction = 0.0;
    /** ALERTs asserted during the measured window. */
    uint64_t alerts = 0;
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
};

/** One row of the pattern table. */
struct AttackPattern
{
    std::string name;
    /** The one design the pattern targets; empty for a generic
     *  pattern, which runs against any design. */
    std::string design;
    /** Spec settings the pattern's driver cannot honor: `key` rejects
     *  any explicit value, `key=value` that canonical value. */
    std::vector<std::string> rejects;
    /** The knobs of AttackConfig the driver reads, by request field
     *  name ("pool_rows", "budget", "trials"); any other must be 0. */
    std::vector<std::string> reads;
    /** The driver, called once checkAttack() has passed. */
    AttackResult (*run)(const AttackConfig &,
                        const mitigation::MitigatorSpec &) = nullptr;

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
 * Whether runAttack() can run @p config against @p mitigator: the
 * pattern exists, targets the design, the spec sets nothing the
 * driver rejects, and every knob the driver does not read is 0 (a
 * knob that changes nothing would only key a duplicate cell).
 * Returns false with a diagnostic in @p err when non-null; never
 * fatal()s.
 */
bool checkAttack(const AttackConfig &config,
                 const mitigation::MitigatorSpec &mitigator,
                 std::string *err = nullptr);

/**
 * Run a named attack pattern against any registered mitigator design.
 * fatal()s with checkAttack()'s message on a request it rejects.
 */
AttackResult runAttack(const AttackConfig &config,
                       const mitigation::MitigatorSpec &mitigator);

} // namespace moatsim::attacks

#endif // MOATSIM_ATTACKS_ATTACK_HH
