/**
 * @file
 * Idealized per-row-counter tracker without ALERT (Section 2.5).
 *
 * This is the purely transparent scheme whose tolerated threshold is
 * bounded by feinting attacks (Table 2): activation counting for every
 * row, and every k tREFI the row with the globally highest counter is
 * mitigated (victims refreshed, counter reset). It has perfect
 * tracking, yet because mitigation time is bounded, an adversary can
 * still drive a row to B*H_N activations (B = ACTs per mitigation
 * period, N = periods in the refresh window). It exists as the
 * baseline that motivates reactive (ABO) mitigation.
 */

#ifndef MOATSIM_MITIGATION_IDEAL_PRC_HH
#define MOATSIM_MITIGATION_IDEAL_PRC_HH

#include "mitigation/mitigator.hh"

namespace moatsim::mitigation
{

/** Configuration of the idealized per-row-counter tracker. */
struct IdealPrcConfig
{
    /** Mitigation period: one aggressor per this many tREFI. */
    uint32_t mitigationPeriodRefis = 4;
    /** Ignore rows below this counter value (energy filter). */
    ActCount minCount = 1;
    /** Victim rows on each side of an aggressor. */
    uint32_t blastRadius = 2;
};

/** Why @p config cannot be built, naming the spec key; empty when it
 *  can. Registry::tryParse() refuses it, the constructor panics. */
std::string configError(const IdealPrcConfig &config);

/** Idealized per-row-counter mitigator (per bank). */
class IdealPrcMitigator
{
  public:
    explicit IdealPrcMitigator(const IdealPrcConfig &config);

    void onActivate(RowId row, MitigationContext &ctx);
    void onRefCommand(MitigationContext &ctx);
    void onAutoRefresh(RowId first, RowId last, MitigationContext &ctx);
    void onRfm(MitigationContext &ctx);
    bool wantsAlert() const { return false; }
    std::string name() const;
    uint32_t sramBytesPerBank() const;

  private:
    IdealPrcConfig config_;
    uint64_t refs_seen_ = 0;
    /** Incrementally maintained argmax over the PRAC counters. */
    RowId max_row_ = kInvalidRow;
    ActCount max_count_ = 0;
};

static_assert(MitigatorDesign<IdealPrcMitigator>);

} // namespace moatsim::mitigation

#endif // MOATSIM_MITIGATION_IDEAL_PRC_HH
