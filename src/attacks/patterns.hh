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
 * The one-bank sub-channel every pattern drives: @p config's timing
 * and ABO level, and one copy of @p prototype. With
 * @p refreshResetsRows off, auto-refresh keeps row state, which models
 * an attacker that aligns its pattern with the refresh sweep (the
 * Section 2.1 threat model lets it pick the memory policy).
 */
subchannel::SubChannel makeChannel(const AttackConfig &config,
                                   const mitigation::Mitigator &prototype,
                                   bool refreshResetsRows = true);

/** What @p ch has seen so far: bank 0's peak hammer count, the ACTs,
 *  the ALERTs and the simulated time. */
AttackResult resultOf(const subchannel::SubChannel &ch);

/**
 * @p config at ABO level 1. Panopticon's two drivers (jailbreak and
 * postponement) have always run there, whatever level a request
 * names, and the result store holds their results under every level's
 * key; honoring the level changes those results, so it needs a
 * result-store epoch bump.
 */
inline AttackConfig
atLevelOne(AttackConfig config)
{
    config.aboLevel = abo::Level::L1;
    return config;
}

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

} // namespace moatsim::attacks

#endif // MOATSIM_ATTACKS_PATTERNS_HH
