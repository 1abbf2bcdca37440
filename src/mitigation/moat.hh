/**
 * @file
 * MOAT: Mitigating Rowhammer with Dual Thresholds (Section 4, Appendix
 * C and D of the paper).
 *
 * MOAT tracks a small number of candidate aggressor rows per bank (one
 * for the default MOAT-L1; L for MOAT-L2/L4) and uses two thresholds:
 *
 *  - ETH (Eligibility Threshold): a row becomes a candidate for the
 *    proactive mitigation performed under REF only once its activation
 *    count exceeds ETH; this bounds mitigation energy.
 *  - ATH (ALERT Threshold): once any counter exceeds ATH, MOAT asserts
 *    an ALERT so the row is mitigated reactively via RFM.
 *
 * The tracker (the CTA register for L1) always holds the highest-count
 * row(s) seen since the last mitigation or ALERT. Once per mitigation
 * period (default 5 tREFI: 4 victim refreshes plus one counter reset)
 * the best candidate is latched into the CMA register and mitigated
 * gradually, one row operation per REF.
 *
 * Counters are reset when their row is auto-refreshed, using the safe
 * scheme of Section 4.3: the counters of the last two rows of the
 * refreshed group are preserved in two SRAM replica registers until the
 * next group's refresh makes those rows safe.
 */

#ifndef MOATSIM_MITIGATION_MOAT_HH
#define MOATSIM_MITIGATION_MOAT_HH

#include <vector>

#include "mitigation/mitigator.hh"

namespace moatsim::mitigation
{

/** Configuration of one MOAT instance. */
struct MoatConfig
{
    /** Eligibility threshold for proactive mitigation (paper: ATH/2). */
    ActCount eth = 32;
    /** ALERT threshold (paper default 64). */
    ActCount ath = 64;
    /** Tracker entries; equals the ABO level for MOAT-L (App. D). */
    uint32_t trackerEntries = 1;
    /**
     * Mitigation period in tREFI. A full mitigation is 4 victim
     * refreshes + 1 counter reset = 5 row operations, spread over the
     * period. 0 disables proactive mitigation (ALERT-only, App. C).
     */
    uint32_t mitigationPeriodRefis = 5;
    /** Reset PRAC counters when their row is auto-refreshed (Sec 4.3). */
    bool resetOnRefresh = true;
    /**
     * Use the safe reset scheme (SRAM replicas for the last two rows of
     * the refreshed group). Disabling reproduces the 2T vulnerability
     * of Figure 7(a) and exists for the security experiments only.
     */
    bool safeReset = true;
    /** Victim rows on each side of an aggressor. */
    uint32_t blastRadius = 2;

    /** Row operations per REF needed to finish a job within the period. */
    uint32_t stepsPerRef() const;
};

/** Why @p config cannot be built, naming the spec key; empty when it
 *  can. Registry::tryParse() refuses it, the constructor panics. */
std::string configError(const MoatConfig &config);

/** The MOAT mitigator (per bank). */
class MoatMitigator
{
  public:
    explicit MoatMitigator(const MoatConfig &config);

    void onActivate(RowId row, MitigationContext &ctx);
    void onRefCommand(MitigationContext &ctx);
    void onAutoRefresh(RowId first, RowId last, MitigationContext &ctx);
    void onAlertAsserted(MitigationContext &ctx);
    void onRfm(MitigationContext &ctx);
    bool wantsAlert() const;
    std::string name() const;
    uint32_t sramBytesPerBank() const;

    const MoatConfig &config() const { return config_; }

    /** Whether the tracker currently holds a valid candidate. */
    bool trackerValid() const;

    /** Highest tracked count (0 when the tracker is empty). */
    ActCount maxTrackedCount() const;

    /** Row of the highest tracked count (kInvalidRow when empty). */
    RowId maxTrackedRow() const;

    /** Highest-count row latched for the in-flight ALERT's RFMs
     *  (kInvalidRow when none). */
    RowId pendingAlertRow() const;

  private:
    /** One tracker entry (the CTA register for L1). */
    struct Entry
    {
        RowId row = kInvalidRow;
        ActCount count = 0;
        bool valid = false;
    };

    /** SRAM replica of a recently-reset row counter (Section 4.3). */
    struct Replica
    {
        RowId row = kInvalidRow;
        ActCount count = 0;
        bool valid = false;
    };

    /** Effective counter of a row: the SRAM replica if present. */
    ActCount effectiveCount(RowId row, const MitigationContext &ctx) const;

    /** Insert/update a row in the tracker per the MOAT policy. */
    void trackerInsert(RowId row, ActCount count);

    /** Remove and return the highest-count entry; false when empty. */
    bool trackerPopMax(Entry &out);

    /** Drop a replica if it refers to @p row (after counter reset). */
    void invalidateReplica(RowId row);

    /** Drop stale tracker entries naming a just-mitigated row. */
    void invalidateTracked(RowId row);

    MoatConfig config_;
    std::vector<Entry> tracker_;
    /** Entries latched at ALERT assertion, awaiting their RFMs. */
    std::vector<Entry> pending_rfm_;
    Replica replicas_[2];
    /** Gradual mitigation of the CMA row. */
    MitigationJob cma_job_;
    /** REF commands seen (for the mitigation period boundary). */
    uint64_t refs_seen_ = 0;
    /** Whether any tracked count exceeds ATH (latched ALERT request). */
    bool alert_requested_ = false;
};

static_assert(MitigatorDesign<MoatMitigator>);

} // namespace moatsim::mitigation

#endif // MOATSIM_MITIGATION_MOAT_HH
