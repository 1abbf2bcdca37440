/**
 * @file
 * The pattern drivers behind attackPatterns() and the channel and
 * result helpers they share. Internal to src/attacks: everything else
 * runs a pattern through runAttack() (attacks/attack.hh), which checks
 * the request against the pattern table first.
 *
 * Every driver reads the same two things, an AttackConfig and a
 * mitigation::MitigatorSpec naming the defence. The paper explanation
 * of each tuned pattern sits in its .cc file.
 */

#ifndef MOATSIM_ATTACKS_PATTERNS_HH
#define MOATSIM_ATTACKS_PATTERNS_HH

#include "attacks/attack.hh"
#include "mitigation/registry.hh"
#include "subchannel/subchannel.hh"

namespace moatsim::attacks
{

/**
 * The sub-channel every pattern drives: @p config's timing, ABO level
 * and bank count (one bank unless the pattern reads `banks`), and one
 * copy of @p prototype per bank. With @p refreshResetsRows off,
 * auto-refresh keeps row state, which models an attacker that aligns
 * its pattern with the refresh sweep (the Section 2.1 threat model
 * lets it pick the memory policy).
 */
subchannel::SubChannel makeChannel(const AttackConfig &config,
                                   const mitigation::Mitigator &prototype,
                                   bool refreshResetsRows = true);

/** What @p ch has seen so far: the peak hammer count over its banks,
 *  the ACTs, the ALERTs and the simulated time. */
AttackResult resultOf(const subchannel::SubChannel &ch);

/** Ratchet against MOAT (Section 5, Appendix A; ratchet.cc). */
AttackResult runRatchet(const AttackConfig &config,
                        const mitigation::MitigatorSpec &mitigator);

/** Deterministic Jailbreak against Panopticon (Section 3;
 *  jailbreak.cc). */
AttackResult runJailbreak(const AttackConfig &config,
                          const mitigation::MitigatorSpec &mitigator);

/** Feinting against the idealized per-row-counter tracker (Section
 *  2.5, Table 2; feinting.cc). */
AttackResult runFeinting(const AttackConfig &config,
                         const mitigation::MitigatorSpec &mitigator);

/** Refresh postponement against drain-all Panopticon (Appendix B;
 *  postponement.cc). */
AttackResult runPostponement(const AttackConfig &config,
                             const mitigation::MitigatorSpec &mitigator);

/** The single-bank kernels of Figure 13, and at more than one bank
 *  the synchronized multi-bank attack of Section 7.2 (tsa.cc). */
AttackResult runKernel(const AttackConfig &config,
                       const mitigation::MitigatorSpec &mitigator);

/** Torrent-of-Staggered-ALERT against MOAT (Figure 12; tsa.cc). */
AttackResult runTsa(const AttackConfig &config,
                    const mitigation::MitigatorSpec &mitigator);

/** About the activations a driver issues under @p config and
 *  @p mitigator, defaults resolved (the pattern table's acts). */
uint64_t jailbreakActs(const AttackConfig &config,
                       const mitigation::MitigatorSpec &mitigator);
uint64_t postponementActs(const AttackConfig &config,
                          const mitigation::MitigatorSpec &mitigator);
uint64_t throughputActs(const AttackConfig &config,
                        const mitigation::MitigatorSpec &mitigator);

/** The largest pool_rows each pooled driver fits in a bank under
 *  @p config and @p mitigator (the pattern table's maxPoolRows). */
uint32_t maxRatchetPoolRows(const AttackConfig &config,
                            const mitigation::MitigatorSpec &mitigator);
uint32_t maxFeintingPoolRows(const AttackConfig &config,
                             const mitigation::MitigatorSpec &mitigator);
uint32_t maxThroughputPoolRows(const AttackConfig &config,
                               const mitigation::MitigatorSpec &mitigator);

} // namespace moatsim::attacks

#endif // MOATSIM_ATTACKS_PATTERNS_HH
