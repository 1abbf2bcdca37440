/**
 * @file
 * Optimal feinting attack against transparent per-row-counter
 * mitigation (Section 2.5, Table 2; attack concept from ProTRR).
 *
 * The defender mitigates the highest-count row once every k tREFI. The
 * attacker keeps a pool of rows, spreads its per-period activation
 * budget evenly over the surviving pool (so every row looks equally
 * urgent), and sacrifices the mitigated row each period. The last
 * surviving row accumulates B * H_N activations, far above the
 * queueing/mitigation threshold -- the reason purely transparent
 * schemes cannot tolerate low TRH.
 */

#ifndef MOATSIM_ATTACKS_FEINTING_HH
#define MOATSIM_ATTACKS_FEINTING_HH

#include <cstdint>

#include "attacks/attack.hh"
#include "dram/timing.hh"

namespace moatsim::attacks
{

/** Configuration of a feinting run. */
struct FeintingConfig
{
    dram::TimingParams timing{};
    /** Defender mitigation period (one aggressor per k tREFI). */
    uint32_t mitigationPeriodRefis = 4;
    /**
     * Pool size; 0 derives the optimal pool (one row per mitigation
     * period in the refresh window).
     */
    uint32_t poolRows = 0;
};

/** Run the feinting attack; maxHammer approximates Table 2's bound. */
AttackResult runFeinting(const FeintingConfig &config);

} // namespace moatsim::attacks

#endif // MOATSIM_ATTACKS_FEINTING_HH
