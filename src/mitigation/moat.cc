#include "mitigation/moat.hh"

#include <cassert>

#include "common/logging.hh"

namespace moatsim::mitigation
{

uint32_t
MoatConfig::stepsPerRef() const
{
    // A full mitigation is 2*blastRadius victim refreshes plus one
    // counter reset; it must finish within the mitigation period.
    const uint32_t total_steps = 2 * blastRadius + 1;
    if (mitigationPeriodRefis == 0)
        return 0;
    return (total_steps + mitigationPeriodRefis - 1) / mitigationPeriodRefis;
}

std::string
configError(const MoatConfig &config)
{
    if (config.trackerEntries == 0)
        return "entries must be at least 1";
    if (config.eth > config.ath)
        return "eth (" + std::to_string(config.eth) +
               ") must not exceed ath (" + std::to_string(config.ath) + ")";
    return "";
}

MoatMitigator::MoatMitigator(const MoatConfig &config)
    : config_(config),
      tracker_(config.trackerEntries)
{
    if (const std::string why = configError(config_); !why.empty())
        panic("MoatMitigator: " + why);
}

ActCount
MoatMitigator::effectiveCount(RowId row, const MitigationContext &ctx) const
{
    for (const auto &rep : replicas_) {
        if (rep.valid && rep.row == row)
            return rep.count;
    }
    return ctx.counter(row);
}

void
MoatMitigator::trackerInsert(RowId row, ActCount count)
{
    // Update in place when already tracked.
    for (auto &e : tracker_) {
        if (e.valid && e.row == row) {
            if (count > e.count)
                e.count = count;
            return;
        }
    }
    // Fill an invalid slot if one exists.
    for (auto &e : tracker_) {
        if (!e.valid) {
            e = {row, count, true};
            return;
        }
    }
    // Replace the minimum-count entry if the new row beats it (App. D).
    Entry *min_entry = &tracker_.front();
    for (auto &e : tracker_) {
        if (e.count < min_entry->count)
            min_entry = &e;
    }
    if (count > min_entry->count)
        *min_entry = {row, count, true};
}

bool
MoatMitigator::trackerPopMax(Entry &out)
{
    Entry *max_entry = nullptr;
    for (auto &e : tracker_) {
        if (e.valid && (max_entry == nullptr || e.count > max_entry->count))
            max_entry = &e;
    }
    if (max_entry == nullptr)
        return false;
    out = *max_entry;
    max_entry->valid = false;
    return true;
}

void
MoatMitigator::invalidateReplica(RowId row)
{
    for (auto &rep : replicas_) {
        if (rep.valid && rep.row == row)
            rep.valid = false;
    }
}

void
MoatMitigator::invalidateTracked(RowId row)
{
    // A mitigated row's counter is reset; any CTA entry still naming
    // it (e.g. inserted by an activation between ALERT assertion and
    // the RFM) is stale and must not trigger further mitigation.
    for (auto &e : tracker_) {
        if (e.valid && e.row == row)
            e.valid = false;
    }
}

void
MoatMitigator::onActivate(RowId row, MitigationContext &ctx)
{
    // Keep the SRAM replica in sync: it shadows the in-array counter,
    // which was already incremented by the bank.
    for (auto &rep : replicas_) {
        if (rep.valid && rep.row == row)
            ++rep.count;
    }

    const ActCount eff = effectiveCount(row, ctx);
    if (eff > config_.eth)
        trackerInsert(row, eff);
    if (eff > config_.ath)
        alert_requested_ = true;
}

void
MoatMitigator::onRefCommand(MitigationContext &ctx)
{
    if (config_.mitigationPeriodRefis == 0)
        return; // ALERT-only configuration (Appendix C, "none").

    // Advance the in-flight CMA mitigation by this REF's quota.
    const uint32_t quota = config_.stepsPerRef();
    for (uint32_t i = 0; i < quota && cma_job_.active(); ++i) {
        if (cma_job_.step(ctx, /*reactive=*/false)) {
            invalidateReplica(cma_job_.aggressor());
            invalidateTracked(cma_job_.aggressor());
        }
    }

    ++refs_seen_;
    if (refs_seen_ % config_.mitigationPeriodRefis != 0)
        return;

    // Mitigation-period boundary: latch the best candidate from the
    // tracker (CTA) into the CMA and start its gradual mitigation.
    assert(!cma_job_.active() &&
           "mitigation job must finish within its period");
    Entry best;
    if (trackerPopMax(best)) {
        cma_job_ = MitigationJob(best.row, config_.blastRadius,
                                 /*reset_counter=*/true);
    }
}

void
MoatMitigator::onAutoRefresh(RowId first, RowId last, MitigationContext &ctx)
{
    if (!config_.resetOnRefresh)
        return;

    if (config_.safeReset) {
        // Preserve the counters of the last two rows of this group in
        // SRAM before resetting (Section 4.3): their victims in the
        // next group are not refreshed yet.
        const RowId second_last = last > first ? last - 1 : first;
        replicas_[0] = {second_last, effectiveCount(second_last, ctx), true};
        replicas_[1] = {last, effectiveCount(last, ctx), true};
    }
    for (RowId r = first; r <= last; ++r)
        ctx.resetCounter(r);
}

void
MoatMitigator::onAlertAsserted(MitigationContext &ctx)
{
    (void)ctx;
    // CTA -> CMA latch at assertion time (Section 4.2): the rows to be
    // mitigated by the upcoming RFMs are fixed now, so activations in
    // the 180 ns window cannot redirect the mitigation. The tracker
    // (CTA) and the in-flight proactive mitigation (CMA) are
    // invalidated. Stale latched entries from a mismatched
    // tracker-size/ABO-level configuration are dropped.
    pending_rfm_.clear();
    for (auto &e : tracker_) {
        if (e.valid) {
            pending_rfm_.push_back(e);
            e.valid = false;
        }
    }
    cma_job_.cancel();
    alert_requested_ = false;
}

void
MoatMitigator::onRfm(MitigationContext &ctx)
{
    // Mitigate the highest-count entry latched at assertion. A bank
    // whose tracker was empty at assertion contributes nothing to this
    // ALERT: the design stores no other addresses to mitigate.
    Entry victim;
    bool have = false;
    if (!pending_rfm_.empty()) {
        auto best = pending_rfm_.begin();
        for (auto it = pending_rfm_.begin(); it != pending_rfm_.end();
             ++it) {
            if (it->count > best->count)
                best = it;
        }
        victim = *best;
        pending_rfm_.erase(best);
        have = true;
    }
    if (have) {
        MitigationJob job(victim.row, config_.blastRadius,
                          /*reset_counter=*/true);
        job.runToCompletion(ctx, /*reactive=*/true);
        invalidateReplica(victim.row);
        invalidateTracked(victim.row);
    }

    // Keep requesting ALERTs while tracked rows remain above ATH.
    alert_requested_ = false;
    for (const auto &e : tracker_) {
        if (e.valid && e.count > config_.ath)
            alert_requested_ = true;
    }
}

bool
MoatMitigator::wantsAlert() const
{
    return alert_requested_;
}

std::string
MoatMitigator::name() const
{
    return "MOAT-L" + std::to_string(config_.trackerEntries) +
           "(ETH=" + std::to_string(config_.eth) +
           ",ATH=" + std::to_string(config_.ath) + ")";
}

uint32_t
MoatMitigator::sramBytesPerBank() const
{
    // Section 6.5 / Appendix D: 3 bytes per tracker entry (row address
    // + counter), 2 bytes for the CMA register, and 2 bytes for the
    // two safe-reset replica counters.
    return 3 * config_.trackerEntries + 2 + (config_.safeReset ? 2 : 0);
}

bool
MoatMitigator::trackerValid() const
{
    for (const auto &e : tracker_) {
        if (e.valid)
            return true;
    }
    return false;
}

ActCount
MoatMitigator::maxTrackedCount() const
{
    ActCount best = 0;
    for (const auto &e : tracker_) {
        if (e.valid && e.count > best)
            best = e.count;
    }
    return best;
}

RowId
MoatMitigator::pendingAlertRow() const
{
    ActCount best = 0;
    RowId row = kInvalidRow;
    for (const auto &e : pending_rfm_) {
        if (e.count >= best) {
            best = e.count;
            row = e.row;
        }
    }
    return row;
}

RowId
MoatMitigator::maxTrackedRow() const
{
    ActCount best = 0;
    RowId row = kInvalidRow;
    for (const auto &e : tracker_) {
        if (e.valid && e.count >= best) {
            best = e.count;
            row = e.row;
        }
    }
    return row;
}

} // namespace moatsim::mitigation
