/**
 * @file
 * The pattern plans and drivers behind attackPatterns() and the
 * channel and result helpers they share. Internal to src/attacks:
 * everything else runs a pattern through runAttack() (attacks/
 * attack.hh), which plans the request first.
 *
 * Each pattern comes as a pair of functions in its .cc file, next to
 * the paper explanation of the pattern. Its plan, a function of the
 * AttackConfig and the mitigation::MitigatorSpec naming the defence,
 * applies the pattern's defaults, bounds every row layout by the bank
 * and the budget by the driver's counters, and prices the run; its
 * driver takes that plan and runs it as it stands.
 */

#ifndef MOATSIM_ATTACKS_PATTERNS_HH
#define MOATSIM_ATTACKS_PATTERNS_HH

#include "attacks/attack.hh"
#include "mitigation/registry.hh"
#include "subchannel/subchannel.hh"

namespace moatsim::attacks
{

/**
 * The sub-channel every pattern drives: @p plan's timing, ABO level
 * and bank count, and one copy of @p prototype per bank. With
 * @p refreshResetsRows off, auto-refresh keeps row state, which models
 * an attacker that aligns its pattern with the refresh sweep (the
 * Section 2.1 threat model lets it pick the memory policy).
 */
subchannel::SubChannel makeChannel(const AttackPlan &plan,
                                   const mitigation::Mitigator &prototype,
                                   bool refreshResetsRows = true);

/** What @p ch has seen so far: the peak hammer count over its banks,
 *  the ACTs, the ALERTs and the simulated time. */
AttackResult resultOf(const subchannel::SubChannel &ch);

/** Refuses @p plan, unless already refused, when its @p knob at
 *  @p got exceeds @p most: "runs <what> of at most <most> <unit>". */
void refuseAbove(AttackPlan &plan, const char *knob, uint64_t got,
                 uint64_t most, const char *what, const char *unit);

// Each pattern's plan and driver (AttackPattern::plan and ::run).
using mitigation::MitigatorSpec;
/** Ratchet against MOAT (Section 5, Appendix A; ratchet.cc). */
void planRatchet(AttackPlan &plan, const MitigatorSpec &mitigator);
AttackResult runRatchet(const AttackPlan &plan, const MitigatorSpec &);
/** Deterministic Jailbreak against Panopticon (Section 3;
 *  jailbreak.cc). */
void planJailbreak(AttackPlan &plan, const MitigatorSpec &mitigator);
AttackResult runJailbreak(const AttackPlan &plan, const MitigatorSpec &);
/** Feinting against the idealized per-row-counter tracker (Section
 *  2.5, Table 2; feinting.cc). */
void planFeinting(AttackPlan &plan, const MitigatorSpec &mitigator);
AttackResult runFeinting(const AttackPlan &plan, const MitigatorSpec &);
/** Refresh postponement against drain-all Panopticon (Appendix B;
 *  postponement.cc). */
void planPostponement(AttackPlan &plan, const MitigatorSpec &mitigator);
AttackResult runPostponement(const AttackPlan &plan, const MitigatorSpec &);
/** Section 7's throughput attacks (tsa.cc), one plan for both: the
 *  kernels of Figure 13 (at more than one bank the synchronized attack
 *  of Section 7.2), and Torrent-of-Staggered-ALERT (Figure 12). */
void planThroughput(AttackPlan &plan, const MitigatorSpec &mitigator);
AttackResult runKernel(const AttackPlan &plan, const MitigatorSpec &);
AttackResult runTsa(const AttackPlan &plan, const MitigatorSpec &);

} // namespace moatsim::attacks

#endif // MOATSIM_ATTACKS_PATTERNS_HH
