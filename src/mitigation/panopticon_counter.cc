#include "mitigation/panopticon_counter.hh"

#include <algorithm>
#include <cstddef>

#include "common/logging.hh"

namespace moatsim::mitigation
{

std::string
configError(const PanopticonCounterConfig &config)
{
    if (config.queueThreshold == 0)
        return "threshold must be at least 1";
    if (config.queueEntries == 0)
        return "entries must be at least 1";
    // Zero slack would alert on every enqueued activation.
    return config.alertSlack == 0 ? "slack must be at least 1" : "";
}

PanopticonCounterMitigator::PanopticonCounterMitigator(
    const PanopticonCounterConfig &config)
    : config_(config)
{
    if (const std::string why = configError(config_); !why.empty())
        panic("PanopticonCounterMitigator: " + why);
    queue_.reserve(config_.queueEntries);
}

size_t
PanopticonCounterMitigator::maxIndex() const
{
    size_t best = queue_.size();
    for (size_t i = 0; i < queue_.size(); ++i) {
        if (best == queue_.size() || queue_[i].count > queue_[best].count)
            best = i;
    }
    return best;
}

void
PanopticonCounterMitigator::onActivate(RowId row, MitigationContext &ctx)
{
    // Enqueued rows keep counting activations received since they
    // were enqueued: this is the repair that defeats Jailbreak (the
    // original design forgot these activations).
    for (auto &e : queue_) {
        if (e.row == row) {
            ++e.count;
            if (e.count > config_.alertSlack)
                alert_requested_ = true;
            return;
        }
    }

    const ActCount count = ctx.counter(row);
    if (count % config_.queueThreshold != 0)
        return;
    if (queue_.size() < config_.queueEntries) {
        queue_.push_back({row, 0});
        return;
    }
    // Overflow still alerts, as in the original design.
    alert_requested_ = true;
}

void
PanopticonCounterMitigator::onRefCommand(MitigationContext &ctx)
{
    // Gradual proactive mitigation, one victim per REF, but always of
    // the highest-count entry (max-first service, recommendation (b)).
    if (!job_.active() && !queue_.empty()) {
        const size_t idx = maxIndex();
        job_ = MitigationJob(queue_[idx].row, config_.blastRadius,
                             /*reset_counter=*/false);
        queue_.erase(queue_.begin() + static_cast<ptrdiff_t>(idx));
    }
    if (job_.active())
        job_.step(ctx, /*reactive=*/false);
}

void
PanopticonCounterMitigator::onAutoRefresh(RowId first, RowId last,
                                          MitigationContext &ctx)
{
    (void)first;
    (void)last;
    (void)ctx; // free-running counters, like the original
}

void
PanopticonCounterMitigator::onAlertAsserted(MitigationContext &ctx)
{
    (void)ctx;
    const size_t idx = maxIndex();
    if (idx < queue_.size()) {
        pending_rfm_ = queue_[idx];
        pending_valid_ = true;
        queue_.erase(queue_.begin() + static_cast<ptrdiff_t>(idx));
    }
    alert_requested_ = false;
}

void
PanopticonCounterMitigator::onRfm(MitigationContext &ctx)
{
    if (pending_valid_) {
        MitigationJob job(pending_rfm_.row, config_.blastRadius,
                          /*reset_counter=*/false);
        job.runToCompletion(ctx, /*reactive=*/true);
        pending_valid_ = false;
    }
    for (const auto &e : queue_) {
        if (e.count > config_.alertSlack)
            alert_requested_ = true;
    }
}

bool
PanopticonCounterMitigator::wantsAlert() const
{
    return alert_requested_;
}

std::string
PanopticonCounterMitigator::name() const
{
    return "Panopticon+Ctr(T=" + std::to_string(config_.queueThreshold) +
           ",Q=" + std::to_string(config_.queueEntries) +
           ",slack=" + std::to_string(config_.alertSlack) + ")";
}

uint32_t
PanopticonCounterMitigator::sramBytesPerBank() const
{
    // Row address (2 B) + counter (1 B) per entry.
    return 3 * config_.queueEntries;
}

} // namespace moatsim::mitigation
