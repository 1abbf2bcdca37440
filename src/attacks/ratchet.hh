/**
 * @file
 * The Ratchet attack against PRAC+ABO designs (Section 5, Appendix A).
 *
 * JEDEC's ABO is neither stop-the-world (180 ns of normal operation
 * after assertion) nor instantaneous (at least L activations between
 * consecutive ALERTs), so each ALERT-to-ALERT window leaks M = 3 + L
 * activations the attacker controls. Ratchet primes a large pool of
 * rows to ATH, then triggers a torrent of ALERTs and spends every
 * leaked activation raising the surviving rows, funnelling all
 * remaining budget into the last survivor. The maximum count reached is
 * the real TRH tolerated by the design: ATH + log_{M/3}(Nc) + M
 * (~99 for ATH=64 at ABO level 1).
 */

#ifndef MOATSIM_ATTACKS_RATCHET_HH
#define MOATSIM_ATTACKS_RATCHET_HH

#include <cstdint>

#include "abo/abo.hh"
#include "attacks/attack.hh"
#include "dram/timing.hh"
#include "mitigation/moat.hh"

namespace moatsim::attacks
{

/** Configuration of a Ratchet run. */
struct RatchetConfig
{
    dram::TimingParams timing{};
    mitigation::MoatConfig moat{};
    /** ABO mitigation level of the channel. */
    abo::Level aboLevel = abo::Level::L1;
    /**
     * Pool size; 0 derives the Appendix-A optimum Nc (largest pool
     * whose priming + ALERT torrent fits the refresh window).
     */
    uint32_t poolRows = 0;
    /** Priming top-up sweeps to counter proactive mitigation. */
    uint32_t topUpSweeps = 4;
};

/** Run the Ratchet attack; maxHammer approximates TRH_safe. */
AttackResult runRatchet(const RatchetConfig &config);

/**
 * Reproduce the Figure-9 micro-example: four rows, ABO level 4 with a
 * single-entry MOAT (one mitigation per ALERT); returns the hammer
 * count of the last row, expected ATH + 15.
 */
AttackResult runRatchetMicroExample(const dram::TimingParams &timing,
                                    uint32_t ath);

} // namespace moatsim::attacks

#endif // MOATSIM_ATTACKS_RATCHET_HH
