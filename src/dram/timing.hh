/**
 * @file
 * DDR5 timing and geometry parameters (paper Table 1, JESD79-5C revised
 * specs with PRAC) plus the derived quantities the paper's analyses use.
 */

#ifndef MOATSIM_DRAM_TIMING_HH
#define MOATSIM_DRAM_TIMING_HH

#include <cstdint>

#include "common/time.hh"
#include "common/types.hh"

namespace moatsim::dram
{

/** Table-3 baseline geometry: rows per bank (64K at 8 KB rows). */
inline constexpr uint32_t kTable3RowsPerBank = 64 * 1024;
/** Table-3 baseline geometry: banks per sub-channel (8 groups x 4). */
inline constexpr uint32_t kTable3BanksPerSubchannel = 32;
/** Table-3 baseline geometry: sub-channels per DDR5 channel. */
inline constexpr uint32_t kTable3SubchannelsPerChannel = 2;

/**
 * DRAM timing/geometry configuration.
 *
 * Defaults reproduce Table 1 of the paper (revised DDR5 with PRAC:
 * tPRE grows to 36 ns to hide the counter read-modify-write, tRAS
 * shrinks to 16 ns, tRC becomes 52 ns) and Table 3 geometry (64K rows
 * per bank, 32 banks per sub-channel). tRRD/tFAW are not listed in the
 * paper's table; they are set so that ~17 banks saturate a sub-channel,
 * matching the tFAW limit quoted in the TSA analysis (Section 7.3).
 */
struct TimingParams
{
    /** Time for performing an ACT. */
    Time tACT = fromNs(12);
    /** Time to precharge an open row (includes PRAC counter update). */
    Time tPRE = fromNs(36);
    /** Minimum time a row must be kept open. */
    Time tRAS = fromNs(16);
    /** Time between successive ACTs to the same bank. */
    Time tRC = fromNs(52);
    /** Refresh window: every row refreshed once per tREFW. */
    Time tREFW = fromNs(32'000'000);
    /** Time between successive REF commands. */
    Time tREFI = fromNs(3900);
    /** Execution time of a REF command (bank unavailable). */
    Time tRFC = fromNs(410);
    /** ACT-to-ACT delay across banks of one sub-channel. */
    Time tRRD = fromNs(3);
    /** Four-activation window across a sub-channel. */
    Time tFAW = fromNs(12);
    /** RFM execution time (one ABO mitigation slot). */
    Time tRFM = fromNs(350);
    /** Normal-operation window after ALERT assertion. */
    Time tAlertNormal = fromNs(180);

    /** Rows per bank (Table 3: 64K rows). */
    uint32_t rowsPerBank = kTable3RowsPerBank;
    /** Banks per sub-channel (Table 3: 32). */
    uint32_t banksPerSubchannel = kTable3BanksPerSubchannel;
    /** Refresh groups per refresh window (Section 2.2: 8192). */
    uint32_t refreshGroups = 8192;
    /** Victim rows refreshed on each side of an aggressor (blast radius 2). */
    uint32_t blastRadius = 2;

    /** Maximum whole ACTs that fit in one tREFI after tRFC (paper: 67). */
    uint32_t actsPerRefi() const;
    /** Whole REF commands per refresh window (floor of tREFW / tREFI). */
    uint32_t refisPerRefw() const;
    /** Rows per refresh group. */
    uint32_t rowsPerGroup() const;
    /** Victim rows refreshed per aggressor mitigation (2 * blastRadius). */
    uint32_t victimsPerMitigation() const { return 2 * blastRadius; }
    /** tREFW minus total refresh execution time (Appendix A: 28.64 ms). */
    Time availableWindow() const;
    /** Minimum time between consecutive ALERTs for ABO level L. */
    Time alertToAlert(int level) const;
    /** ACTs possible between consecutive ALERTs for ABO level L (3 + L). */
    uint32_t actsPerAlertWindow(int level) const;

    /** Sanity-check invariants; calls fatal() on a bad configuration. */
    void validate() const;
};

/** @p h with every field of @p t folded in by hashCombine: the timing
 *  part of the trace and attack cache keys. */
uint64_t foldTiming(uint64_t h, const TimingParams &t);

} // namespace moatsim::dram

#endif // MOATSIM_DRAM_TIMING_HH
