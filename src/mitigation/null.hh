/**
 * @file
 * No-op mitigator: a DRAM chip with PRAC counters but no Rowhammer
 * mitigation logic. Baseline for performance normalization (the paper
 * normalizes to a system that never incurs ALERTs) and ground truth
 * for "how bad can it get" security experiments.
 */

#ifndef MOATSIM_MITIGATION_NULL_HH
#define MOATSIM_MITIGATION_NULL_HH

#include "mitigation/mitigator.hh"

namespace moatsim::mitigation
{

/** Mitigator that never mitigates and never alerts. */
class NullMitigator
{
  public:
    void onActivate(RowId, MitigationContext &) {}
    void onRefCommand(MitigationContext &) {}
    void onAutoRefresh(RowId, RowId, MitigationContext &) {}
    void onRfm(MitigationContext &) {}
    bool wantsAlert() const { return false; }
    std::string name() const { return "none"; }
    uint32_t sramBytesPerBank() const { return 0; }
};

static_assert(MitigatorDesign<NullMitigator>);

} // namespace moatsim::mitigation

#endif // MOATSIM_MITIGATION_NULL_HH
