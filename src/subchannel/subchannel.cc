#include "subchannel/subchannel.hh"

#include <algorithm>
#include <cassert>
#include <span>
#include <string>
#include <variant>

#include "common/logging.hh"

namespace moatsim::subchannel
{

SubChannel::SubChannel(const SubChannelConfig &config,
                       const mitigation::Mitigator &prototype)
    : config_(config),
      abo_(config_.timing, config.aboLevel)
{
    config_.timing.validate();

    const uint32_t nb = config_.numBanks != 0
                            ? config_.numBanks
                            : config_.timing.banksPerSubchannel;
    // Every bank's PRAC counters live in one flat slab.
    const size_t rows = config_.timing.rowsPerBank;
    counter_slab_.assign(static_cast<size_t>(nb) * rows, 0);
    banks_.reserve(nb);
    mitigators_.assign(nb, prototype);
    refresh_.reserve(nb);
    mitigation_stats_.reserve(nb);
    for (BankId b = 0; b < nb; ++b) {
        banks_.emplace_back(
            config_.timing,
            std::span<ActCount>(counter_slab_.data() + b * rows, rows));
        refresh_.emplace_back(config_.timing, config_.maxPostponedRefs);
        mitigation_stats_.emplace_back();
    }

    // The oracle's per-row arrays (3 words per row) dominate the cost
    // of constructing a sub-channel; build them only for the banks
    // something will read: every bank, or just oracleBank.
    oracle_.assign(nb, nullptr);
    if (config_.securityEnabled) {
        const uint32_t first = config_.oracleBank.value_or(0);
        const uint32_t last = config_.oracleBank ? first + 1 : nb;
        if (last > nb)
            fatal("SubChannel: oracle bank " + std::to_string(first) +
                  " out of range (" + std::to_string(nb) + " banks)");
        security_.reserve(last - first); // keeps oracle_ pointers stable
        for (uint32_t b = first; b < last; ++b) {
            oracle_[b] = &security_.emplace_back(
                config_.timing.rowsPerBank, config_.timing.blastRadius);
        }
    }
    bank_ready_.assign(nb, 0);
    next_ref_time_ = config_.timing.tREFI;
}

Time
SubChannel::earliestActTime(BankId bank) const
{
    assert(bank < banks_.size());
    Time t = std::max({now_, channel_busy_until_, bank_ready_[bank]});
    if (last_act_time_ >= 0)
        t = std::max(t, last_act_time_ + config_.timing.tRRD);
    const Time oldest = faw_ring_[faw_pos_];
    if (oldest >= 0)
        t = std::max(t, oldest + config_.timing.tFAW);
    return t;
}

Time
SubChannel::activate(BankId bank, RowId row)
{
    return activateAt(bank, row, now_);
}

Time
SubChannel::activateAt(BankId bank, RowId row, Time not_before)
{
    assert(bank < banks_.size());
    assert(row < banks_[bank].numRows());
    const Time tRC = config_.timing.tRC;

    for (;;) {
        const Time t = std::max(earliestActTime(bank), not_before);

        // The ACT must fully complete before any stall event that
        // starts earlier than its completion; process the earliest
        // such event and retry.
        const bool rfm_due =
            rfm_block_pending_ && abo_.rfmBlockStart() < t + tRC;
        const bool ref_due = next_ref_time_ < t + tRC;
        if (rfm_due &&
            (!ref_due || abo_.rfmBlockStart() <= next_ref_time_)) {
            serviceRfmBlock();
            continue;
        }
        if (ref_due) {
            processRefBoundary();
            continue;
        }

        // Issue the ACT at t; closed-page policy precharges right away
        // and the PRAC counter update lands at t + tRC.
        dram::Bank &bk = banks_[bank];
        bk.activate(row);
        bk.precharge();
        dram::SecurityMonitor *sec = oracle_[bank];
        if (sec != nullptr)
            sec->onActivate(row);
        mitigation::MitigationContext ctx(bk, sec, mitigation_stats_[bank]);
        const bool wants = std::visit(
            [&](auto &m) {
                m.onActivate(row, ctx);
                return m.wantsAlert();
            },
            mitigators_[bank]);
        // An ACT can only raise the activated bank's own want; the
        // sticky flag spares the per-ACT scan over every other bank.
        if (wants)
            alert_wanted_sticky_ = true;
        ++stats_.acts;

        bank_ready_[bank] = t + tRC;
        last_act_time_ = t;
        faw_ring_[faw_pos_] = t;
        faw_pos_ = (faw_pos_ + 1) % 4;
        now_ = t;

        abo_.onActCompleted(t + tRC);
        maybeAssertAlert(t + tRC);
        return t;
    }
}

void
SubChannel::advanceTo(Time t)
{
    processEventsBefore(t);
    now_ = std::max(now_, t);
}

Time
SubChannel::drainToQuiescence(Time max_advance)
{
    const Time deadline = now_ + max_advance;
    while (alertWorkPending()) {
        // The next thing that can retire work: the in-flight ALERT's
        // RFM block, or the next REF boundary (whose mitigation slot
        // is the only thing that clears a want once ACTs stop).
        Time next = next_ref_time_;
        if (rfm_block_pending_)
            next = std::min(next, abo_.rfmBlockStart());
        if (next > deadline)
            break;
        advanceTo(next);
    }
    // The recovery is over when the work that retired the last want
    // finishes executing, not when it was issued.
    if (!alertWorkPending())
        now_ = std::max(now_, std::min(channel_busy_until_, deadline));
    return now_;
}

void
SubChannel::processEventsBefore(Time t)
{
    for (;;) {
        const bool rfm_due =
            rfm_block_pending_ && abo_.rfmBlockStart() <= t;
        const bool ref_due = next_ref_time_ <= t;
        if (rfm_due &&
            (!ref_due || abo_.rfmBlockStart() <= next_ref_time_)) {
            serviceRfmBlock();
        } else if (ref_due) {
            processRefBoundary();
        } else {
            break;
        }
    }
}

void
SubChannel::processRefBoundary()
{
    const Time boundary = next_ref_time_;
    next_ref_time_ += config_.timing.tREFI;

    if (postpone_refresh_ && owed_refs_ < config_.maxPostponedRefs) {
        ++owed_refs_;
        ++stats_.postponedRefs;
        return;
    }

    // Issue the due REF plus any owed ones back to back (batching).
    const uint32_t n = owed_refs_ + 1;
    owed_refs_ = 0;
    const Time busy_start = std::max(boundary, channel_busy_until_);
    channel_busy_until_ = busy_start +
                          static_cast<Time>(n) * config_.timing.tRFC;
    for (uint32_t i = 0; i < n; ++i)
        performOneRef();
    // REF-time mitigation work can clear (or, via counter resets on
    // refresh, raise) wants on any bank; refresh the sticky flag.
    alert_wanted_sticky_ = anyAlertWanted();
    maybeAssertAlert(channel_busy_until_);
}

void
SubChannel::performOneRef()
{
    for (BankId b = 0; b < banks_.size(); ++b) {
        const uint32_t group = refresh_[b].issueRef();
        const auto [first, last] = refresh_[b].groupRows(group);
        dram::SecurityMonitor *sec = oracle_[b];
        mitigation::MitigationContext ctx(banks_[b], sec,
                                          mitigation_stats_[b]);
        if (config_.refreshResetsRows && sec != nullptr) {
            for (RowId r = first; r <= last; ++r)
                sec->onRowRefreshed(r);
        }
        std::visit(
            [&](auto &m) {
                if (config_.refreshResetsRows)
                    m.onAutoRefresh(first, last, ctx);
                m.onRefCommand(ctx);
            },
            mitigators_[b]);
    }
    ++stats_.refs;
}

void
SubChannel::serviceRfmBlock()
{
    assert(rfm_block_pending_);
    const int n = abo_.rfmsPerAlert();
    for (int i = 0; i < n; ++i) {
        for (BankId b = 0; b < banks_.size(); ++b) {
            mitigation::MitigationContext ctx(banks_[b], oracle_[b],
                                              mitigation_stats_[b]);
            std::visit([&](auto &m) { m.onRfm(ctx); }, mitigators_[b]);
        }
        ++stats_.rfms;
    }
    channel_busy_until_ =
        std::max(channel_busy_until_, abo_.rfmBlockEnd());
    abo_.completeAlert();
    rfm_block_pending_ = false;
    // RFM mitigation cleared wants on any subset of banks.
    alert_wanted_sticky_ = anyAlertWanted();
}

void
SubChannel::maybeAssertAlert(Time t)
{
    if (rfm_block_pending_)
        return;
    // The sticky flag is exact (see its invariant in the header), so
    // it replaces the all-banks wantsAlert() poll that would otherwise
    // dominate the per-ACT cost.
    assert(alert_wanted_sticky_ == anyAlertWanted());
    if (!alert_wanted_sticky_)
        return;
    if (!abo_.canAssert(t))
        return;
    abo_.assertAlert(t);
    rfm_block_pending_ = true;
    for (BankId b = 0; b < banks_.size(); ++b) {
        mitigation::MitigationContext ctx(banks_[b], oracle_[b],
                                          mitigation_stats_[b]);
        // Designs without the hook ignore the assertion.
        std::visit(
            [&](auto &m) {
                if constexpr (requires { m.onAlertAsserted(ctx); })
                    m.onAlertAsserted(ctx);
            },
            mitigators_[b]);
    }
}

dram::SecurityMonitor *
SubChannel::requireOracle(BankId b) const
{
    dram::SecurityMonitor *sec = oracle_.at(b);
    if (sec != nullptr)
        return sec;
    if (security_.empty())
        fatal("SubChannel::security: the ground-truth oracle is elided "
              "on this channel (securityEnabled is off); enable "
              "securityEnabled to track damage/hammer state");
    fatal("SubChannel::security: bank " + std::to_string(b) +
          " is untracked; the ground-truth oracle on this channel "
          "tracks only bank " + std::to_string(*config_.oracleBank));
}

bool
SubChannel::anyAlertWanted() const
{
    for (const auto &mit : mitigators_) {
        if (std::visit([](const auto &m) { return m.wantsAlert(); }, mit))
            return true;
    }
    return false;
}

mitigation::MitigationStats
SubChannel::mitigationStats() const
{
    mitigation::MitigationStats total;
    for (const auto &s : mitigation_stats_) {
        total.proactiveMitigations += s.proactiveMitigations;
        total.alertMitigations += s.alertMitigations;
        total.victimRefreshes += s.victimRefreshes;
        total.counterResets += s.counterResets;
    }
    return total;
}

uint32_t
SubChannel::maxHammerAnyBank() const
{
    uint32_t best = 0;
    for (const auto &s : security_)
        best = std::max(best, s.maxHammer());
    return best;
}

} // namespace moatsim::subchannel
