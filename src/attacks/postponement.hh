/**
 * @file
 * Refresh-postponement attack on Drain-All-Entries-on-REF Panopticon
 * (Appendix B, Figure 16 of the paper).
 *
 * DDR5 allows the memory controller to postpone up to two REF commands
 * and issue them later as a batch. Against the drain-all policy --
 * which mitigates queue entries only when a REF arrives -- an attacker
 * postpones maximally, creating windows of up to 201 activations
 * between REF batches. A row inserted into the queue right after a
 * batch then accrues threshold + 200 = 328 activations (2.6x the
 * queueing threshold) before the next batch mitigates it.
 */

#ifndef MOATSIM_ATTACKS_POSTPONEMENT_HH
#define MOATSIM_ATTACKS_POSTPONEMENT_HH

#include <cstdint>

#include "attacks/attack.hh"
#include "dram/timing.hh"
#include "mitigation/panopticon.hh"

namespace moatsim::attacks
{

/** Configuration of a refresh-postponement run. */
struct PostponementConfig
{
    dram::TimingParams timing{};
    mitigation::PanopticonConfig panopticon{};
    /** REFs that may be postponed at once (DDR5: 2). */
    uint32_t maxPostponed = 2;
    /** Phase trials; insertion alignment is swept across them. */
    uint32_t trials = 256;

    PostponementConfig() { panopticon.drainAllOnRef = true; }
};

/**
 * Run the attack; maxHammer is the paper's 328 (threshold 128 + 200
 * ACTs per postponed-batch window) when the alignment is hit.
 */
AttackResult runRefreshPostponement(const PostponementConfig &config);

} // namespace moatsim::attacks

#endif // MOATSIM_ATTACKS_POSTPONEMENT_HH
