#include "mitigation/panopticon.hh"

#include <cassert>

#include "common/logging.hh"

namespace moatsim::mitigation
{

std::string
configError(const PanopticonConfig &config)
{
    if (config.queueThreshold == 0)
        return "threshold must be at least 1";
    return config.queueEntries == 0 ? "entries must be at least 1" : "";
}

PanopticonMitigator::PanopticonMitigator(const PanopticonConfig &config)
    : config_(config)
{
    if (const std::string why = configError(config_); !why.empty())
        panic("PanopticonMitigator: " + why);
}

RowId
PanopticonMitigator::queueAt(uint32_t index) const
{
    assert(index < queue_.size());
    return queue_[index];
}

void
PanopticonMitigator::insert(RowId row)
{
    if (queue_.size() < config_.queueEntries) {
        queue_.push_back(row);
        return;
    }
    // Queue full: assert ALERT and hold the insertion until an RFM
    // frees a slot.
    overflow_row_ = row;
    overflow_pending_ = true;
}

void
PanopticonMitigator::onActivate(RowId row, MitigationContext &ctx)
{
    // The counter is free-running; the row is (re-)queued every time
    // the counter crosses a multiple of the queueing threshold, i.e.
    // when the designated counter bit toggles.
    const ActCount count = ctx.counter(row);
    if (count % config_.queueThreshold == 0)
        insert(row);
}

void
PanopticonMitigator::onRefCommand(MitigationContext &ctx)
{
    if (config_.drainAllOnRef) {
        // Appendix B: repurpose the REF to fully mitigate up to
        // drainPerRef entries; entries still left arm ALERTs until the
        // queue is fully drained.
        for (uint32_t i = 0; i < config_.drainPerRef && !queue_.empty();
             ++i) {
            MitigationJob job(queue_.front(), config_.blastRadius,
                              /*reset_counter=*/false);
            queue_.pop_front();
            job.runToCompletion(ctx, /*reactive=*/false);
        }
        drain_alert_armed_ = !queue_.empty();
        return;
    }

    // Gradual policy: one victim-row refresh per REF; a queue entry is
    // consumed every 2*blastRadius REFs (4 tREFI by default).
    if (!head_job_.active() && !queue_.empty()) {
        head_job_ = MitigationJob(queue_.front(), config_.blastRadius,
                                  /*reset_counter=*/false);
        queue_.pop_front();
        if (overflow_pending_) {
            // A slot is free again; complete the held insertion.
            queue_.push_back(overflow_row_);
            overflow_pending_ = false;
        }
    }
    if (head_job_.active())
        head_job_.step(ctx, /*reactive=*/false);
}

void
PanopticonMitigator::onAutoRefresh(RowId first, RowId last,
                                   MitigationContext &ctx)
{
    // Panopticon counters are free-running and never reset.
    (void)first;
    (void)last;
    (void)ctx;
}

void
PanopticonMitigator::onRfm(MitigationContext &ctx)
{
    if (!queue_.empty()) {
        MitigationJob job(queue_.front(), config_.blastRadius,
                          /*reset_counter=*/false);
        queue_.pop_front();
        job.runToCompletion(ctx, /*reactive=*/true);
    }
    if (overflow_pending_ && queue_.size() < config_.queueEntries) {
        queue_.push_back(overflow_row_);
        overflow_pending_ = false;
    }
    if (drain_alert_armed_)
        drain_alert_armed_ = !queue_.empty();
}

bool
PanopticonMitigator::wantsAlert() const
{
    return overflow_pending_ || drain_alert_armed_;
}

std::string
PanopticonMitigator::name() const
{
    return std::string("Panopticon") +
           (config_.drainAllOnRef ? "-DrainAll" : "") +
           "(T=" + std::to_string(config_.queueThreshold) +
           ",Q=" + std::to_string(config_.queueEntries) + ")";
}

uint32_t
PanopticonMitigator::sramBytesPerBank() const
{
    // Two bytes of row address per queue entry.
    return 2 * config_.queueEntries;
}

} // namespace moatsim::mitigation
