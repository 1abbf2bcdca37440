/**
 * @file
 * Attacker-core activation traces for the adversary-under-load
 * scenario engine (sim/coattack.hh).
 *
 * attacks::runAttack drives an isolated single-bank SubChannel with a
 * closed feedback loop (the tuned drivers react to ALERTs online).
 * Measuring what an attack costs co-running victims instead requires
 * the attacker to be *one more core* in sim::System's merged event
 * loop, so each pattern is re-expressed here as an open-loop intended
 * activation stream (workload::CoreTrace) that pins one sub-channel
 * and one bank: the shape of the pattern is preserved (hammer bursts,
 * round-robin pools, ratchet funnelling, jailbreak queue priming,
 * feinting sacrifice periods, postponement pressure), while the memory
 * system's back-pressure paces it exactly like demand traffic.
 */

#ifndef MOATSIM_WORKLOAD_ATTACK_TRACE_HH
#define MOATSIM_WORKLOAD_ATTACK_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/time.hh"
#include "common/types.hh"
#include "dram/timing.hh"
#include "workload/tracegen.hh"

namespace moatsim::workload
{

/** Parameters of one synthesized attack trace. */
struct AttackTraceConfig
{
    dram::TimingParams timing{};
    /** Pattern name: one of attackTracePatterns(). */
    std::string pattern = "hammer";
    /** Sub-channel the attacker pins. */
    uint32_t subchannel = 0;
    /** Bank (within the sub-channel) the attacker pins. */
    BankId bank = 0;
    /** Rows in the attack pool (0 = pattern-specific default). */
    uint32_t poolRows = 0;
    /** Activation budget (0 = fill @p window, or a pattern default). */
    uint64_t budget = 0;
    /**
     * Co-run window the attack should span. With budget == 0 the
     * attack is sized to hammer for the whole window (the
     * adversary-under-load default); 0 falls back to a fixed budget.
     */
    Time window = 0;
    /** Intended gap between attacker ACTs (0 = tRC, as fast as legal). */
    Time actGap = 0;
    uint64_t seed = 1;
};

/** A synthesized attack stream plus its accounting metadata. */
struct AttackTrace
{
    /** The attacker core's intended activation stream. */
    CoreTrace trace;
    /** Distinct rows the attacker activates (per-class accounting
     *  reads their peak hammer counts after the co-run). */
    std::vector<RowId> rows;
    /** The pinned sub-channel and bank. */
    uint32_t subchannel = 0;
    BankId bank = 0;
};

/**
 * Largest activation budget whose events all lie below
 * kEventTimeLimit: the limit over the pattern's widest step between
 * events (the pacing gap, or the jailbreak pace where that is wider).
 */
uint64_t maxAttackBudget(const AttackTraceConfig &config);

/**
 * True when every event @p config asks for lies in the trace sort's
 * range: the window is below kEventTimeLimit and the resolved budget
 * (explicit, else sized to the window) is within maxAttackBudget().
 * Otherwise @p why (when non-null) names the window or the budget.
 */
bool checkAttackTraceRange(const AttackTraceConfig &config,
                           std::string *why = nullptr);

/**
 * The patterns generateAttackTrace() synthesizes: "none" and each
 * attacks::attackPatterns() pattern that has an open-loop shape. The
 * throughput attacks ("kernel", "tsa") have none: they measure a
 * whole sub-channel's ACT rate, so they run isolated only.
 */
const std::vector<std::string> &attackTracePatterns();

/**
 * True when generateAttackTrace() can synthesize @p config: its
 * pattern is one of attackTracePatterns(), a pooled shape's pool_rows
 * fits in the bank, and checkAttackTraceRange() holds. Otherwise
 * @p why (when non-null) says which fails. Request validation calls
 * this up front; generateAttackTrace fatal()s on the same check.
 */
bool checkAttackTrace(const AttackTraceConfig &config,
                      std::string *why = nullptr);

/**
 * Synthesize the configured pattern. Pattern "none" yields an empty
 * trace: the attack-free co-run replays through exactly the same code
 * path as an attacked one.
 * Events come in the total order of workload/event_order.hh. fatal()s
 * on a config that fails checkAttackTrace().
 */
AttackTrace generateAttackTrace(const AttackTraceConfig &config);

/** Whether the pattern relies on attacker-controlled REF postponement
 *  (a co-attack run enables it on the System for these). */
bool attackPostponesRefresh(const std::string &pattern);

/**
 * The attack-row placement convention shared by the isolated driver
 * (attacks::runAttack) and the trace synthesizer, so the two variants
 * of one pattern stay comparable: pools start at the mid-bank row and
 * space rows one stride apart so their blast radii never overlap.
 */
RowId attackBaseRow(const dram::TimingParams &timing);
uint32_t attackRowStride(const dram::TimingParams &timing);

/** The largest pool attackRowPool() fits in a bank. */
uint32_t maxAttackPoolRows(const dram::TimingParams &timing);

/** The rows of an attack pool; fatal()s when it does not fit. */
std::vector<RowId> attackRowPool(const dram::TimingParams &timing,
                                 uint32_t pool);

} // namespace moatsim::workload

#endif // MOATSIM_WORKLOAD_ATTACK_TRACE_HH
