/**
 * @file
 * Panopticon in-DRAM mitigation (Section 3 and Appendix B of the
 * paper; original design from Bennett et al., DRAMSec 2021).
 *
 * Each bank keeps an 8-entry FIFO queue of row addresses. A row enters
 * the queue whenever its free-running PRAC counter toggles the
 * designated threshold bit, i.e. whenever the counter crosses a
 * multiple of the queueing threshold (e.g. 128). Only the row address
 * is stored -- no counter value -- which is exactly the weakness the
 * Jailbreak pattern exploits. ALERT is asserted when an insertion finds
 * the queue full.
 *
 * Two mitigation policies are modelled:
 *  - Gradual (the paper's default): one victim-row refresh per REF, so
 *    one queue entry is consumed every 4 tREFI.
 *  - Drain-All-Entries-on-REF (Appendix B): a REF repurposes its time
 *    to fully mitigate up to two queue entries and issues ALERTs until
 *    the queue is empty; broken by refresh postponement (Figure 16).
 */

#ifndef MOATSIM_MITIGATION_PANOPTICON_HH
#define MOATSIM_MITIGATION_PANOPTICON_HH

#include <deque>
#include "mitigation/mitigator.hh"

namespace moatsim::mitigation
{

/** Configuration of one Panopticon instance. */
struct PanopticonConfig
{
    /** Queueing threshold: insert on crossing multiples of this. */
    ActCount queueThreshold = 128;
    /** FIFO entries per bank. */
    uint32_t queueEntries = 8;
    /** Use the Appendix-B Drain-All-Entries-on-REF policy. */
    bool drainAllOnRef = false;
    /** Aggressors a drain-all REF can fully mitigate (Appendix B: 2). */
    uint32_t drainPerRef = 2;
    /** Victim rows on each side of an aggressor. */
    uint32_t blastRadius = 2;
};

/** Why @p config cannot be built, naming the spec key; empty when it
 *  can. Registry::tryParse() refuses it, the constructor panics. */
std::string configError(const PanopticonConfig &config);

/** The Panopticon mitigator (per bank). */
class PanopticonMitigator
{
  public:
    explicit PanopticonMitigator(const PanopticonConfig &config);

    void onActivate(RowId row, MitigationContext &ctx);
    void onRefCommand(MitigationContext &ctx);
    void onAutoRefresh(RowId first, RowId last, MitigationContext &ctx);
    void onRfm(MitigationContext &ctx);
    bool wantsAlert() const;
    std::string name() const;
    uint32_t sramBytesPerBank() const;

    const PanopticonConfig &config() const { return config_; }

    /** Current queue occupancy (for tests and attack pacing). */
    uint32_t queueSize() const { return static_cast<uint32_t>(queue_.size()); }

    /** Row at a queue position, 0 = head (oldest). */
    RowId queueAt(uint32_t index) const;

  private:
    /** Insert a row; sets the overflow state when the queue is full. */
    void insert(RowId row);

    PanopticonConfig config_;
    std::deque<RowId> queue_;
    /** Gradual mitigation of the queue head. */
    MitigationJob head_job_;
    /** Insertion that found the queue full, waiting for an RFM. */
    RowId overflow_row_ = kInvalidRow;
    bool overflow_pending_ = false;
    /** Drain-all mode: a REF left entries behind; ALERT until empty. */
    bool drain_alert_armed_ = false;
};

static_assert(MitigatorDesign<PanopticonMitigator>);

} // namespace moatsim::mitigation

#endif // MOATSIM_MITIGATION_PANOPTICON_HH
