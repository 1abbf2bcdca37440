/**
 * @file
 * ALERT-based performance attacks (Section 7 of the paper).
 *
 * These patterns do not break security; they abuse the fact that an
 * ALERT stalls the whole sub-channel to degrade throughput:
 *
 *  - Single-bank kernels (Figure 13): hammering one row or a pool of
 *    rows in one bank triggers an ALERT every ATH+1 activations per
 *    row (~10% throughput loss).
 *  - Torrent-of-Staggered-ALERT (Figure 12): multiple banks prime
 *    their pools in parallel but fire their ALERTs staggered so that
 *    no other bank has a mitigable row during any ALERT, wasting every
 *    stall (24% loss at 4 banks, 52% at the 17-bank tFAW limit).
 *
 * Each run measures activations per second against the identical
 * pattern on a no-ALERT channel (NullMitigator).
 */

#ifndef MOATSIM_ATTACKS_TSA_HH
#define MOATSIM_ATTACKS_TSA_HH

#include <cstdint>

#include "abo/abo.hh"
#include "attacks/attack.hh"
#include "dram/timing.hh"
#include "mitigation/moat.hh"

namespace moatsim::attacks
{

/** Configuration shared by the performance-attack patterns. */
struct PerfAttackConfig
{
    dram::TimingParams timing{};
    mitigation::MoatConfig moat{};
    abo::Level aboLevel = abo::Level::L1;
    /** Rows per bank in the hammered pool. */
    uint32_t poolRows = 5;
    /** Banks participating (1 for the Figure-13 kernels). */
    uint32_t numBanks = 1;
    /** Pattern repetitions to measure over. */
    uint32_t cycles = 50;
};

/**
 * Single-bank kernel (Figure 13): hammer poolRows rows circularly.
 * poolRows == 1 is the single-row kernel.
 */
ThroughputAttackResult runSingleBankKernel(const PerfAttackConfig &config);

/**
 * Synchronized multi-bank kernel (Section 7.2): all banks hammer their
 * pools in lock-step, so every ALERT mitigates one row in every bank.
 * Loss stays at the single-bank level regardless of bank count.
 */
ThroughputAttackResult runSynchronizedMultiBank(const PerfAttackConfig &config);

/** Torrent-of-Staggered-ALERT (Figure 12). */
ThroughputAttackResult runTsa(const PerfAttackConfig &config);

} // namespace moatsim::attacks

#endif // MOATSIM_ATTACKS_TSA_HH
