/**
 * @file
 * Counter-carrying Panopticon queue: the paper's Section-9
 * recommendations, implemented.
 *
 * The paper's post-mortem of the Jailbreak attack recommends that (a)
 * queue entries must carry a counter so activations received while a
 * row is enqueued are not invisible, and (b) entries should be
 * serviced by highest count rather than FIFO, with an ALERT once any
 * enqueued row's count crosses an ALERT threshold. This mitigator
 * implements exactly that repair of Panopticon, so the ablation bench
 * can show Jailbreak collapsing from 9x the threshold to roughly the
 * ALERT threshold.
 */

#ifndef MOATSIM_MITIGATION_PANOPTICON_COUNTER_HH
#define MOATSIM_MITIGATION_PANOPTICON_COUNTER_HH

#include <vector>

#include "mitigation/mitigator.hh"

namespace moatsim::mitigation
{

/** Configuration of the repaired (counter-carrying) Panopticon. */
struct PanopticonCounterConfig
{
    /** Queue insertion on crossing multiples of this (as original). */
    ActCount queueThreshold = 128;
    /** Queue entries per bank. */
    uint32_t queueEntries = 8;
    /**
     * ALERT once a row receives more than this many activations while
     * enqueued (i.e. at most queueThreshold + alertSlack activations
     * can land before the reactive mitigation).
     */
    ActCount alertSlack = 64;
    /** Victim rows on each side of an aggressor. */
    uint32_t blastRadius = 2;
};

/** Why @p config cannot be built, naming the spec key; empty when it
 *  can. Registry::tryParse() refuses it, the constructor panics. */
std::string configError(const PanopticonCounterConfig &config);

/** Panopticon with per-entry counters and max-first service. */
class PanopticonCounterMitigator
{
  public:
    explicit PanopticonCounterMitigator(
        const PanopticonCounterConfig &config);

    void onActivate(RowId row, MitigationContext &ctx);
    void onRefCommand(MitigationContext &ctx);
    void onAutoRefresh(RowId first, RowId last, MitigationContext &ctx);
    void onAlertAsserted(MitigationContext &ctx);
    void onRfm(MitigationContext &ctx);
    bool wantsAlert() const;
    std::string name() const;
    uint32_t sramBytesPerBank() const;

    /** Current queue occupancy. */
    uint32_t queueSize() const
    {
        return static_cast<uint32_t>(queue_.size());
    }

  private:
    struct Entry
    {
        RowId row = kInvalidRow;
        ActCount count = 0;
    };

    /** Index of the max-count entry; queue_.size() when empty. */
    size_t maxIndex() const;

    PanopticonCounterConfig config_;
    std::vector<Entry> queue_;
    /** Gradual mitigation of the current max entry. */
    MitigationJob job_;
    /** Entry latched at ALERT assertion for the RFM. */
    Entry pending_rfm_;
    bool pending_valid_ = false;
    bool alert_requested_ = false;
};

static_assert(MitigatorDesign<PanopticonCounterMitigator>);

} // namespace moatsim::mitigation

#endif // MOATSIM_MITIGATION_PANOPTICON_COUNTER_HH
