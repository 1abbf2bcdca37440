/**
 * @file
 * The contract of an in-DRAM Rowhammer mitigator design.
 *
 * A mitigator is the per-bank logic a DRAM vendor implements on top of
 * the PRAC+ABO framework: it observes activations (with PRAC counter
 * values), gets one proactive work slot per REF command, may request an
 * ALERT, and performs reactive mitigation during RFM commands. The
 * MitigatorDesign concept names those hooks; the closed set of designs
 * that satisfy it is mitigation::Mitigator (registry.hh). The
 * SubChannel holds one Mitigator per bank by value and provides it a
 * MitigationContext for touching DRAM state.
 */

#ifndef MOATSIM_MITIGATION_MITIGATOR_HH
#define MOATSIM_MITIGATION_MITIGATOR_HH

#include <concepts>
#include <cstdint>
#include <string>

#include "common/types.hh"

namespace moatsim::dram
{
class Bank;
class SecurityMonitor;
} // namespace moatsim::dram

namespace moatsim::mitigation
{

/** Counters of mitigation work, aggregated per bank. */
struct MitigationStats
{
    /** Aggressor rows fully mitigated during REF (proactive). */
    uint64_t proactiveMitigations = 0;
    /** Aggressor rows fully mitigated during RFM (reactive/ALERT). */
    uint64_t alertMitigations = 0;
    /** Individual victim-row refreshes performed. */
    uint64_t victimRefreshes = 0;
    /** PRAC counter resets performed as mitigation steps. */
    uint64_t counterResets = 0;

    /** Total aggressor mitigations (both kinds). */
    uint64_t totalMitigations() const
    {
        return proactiveMitigations + alertMitigations;
    }
};

/**
 * Capability handle a mitigator uses to read counters and perform
 * refresh work on its bank. Wraps the bank, the ground-truth security
 * monitor, and the work counters so that every implementation reports
 * work uniformly.
 */
class MitigationContext
{
  public:
    MitigationContext(dram::Bank &bank, dram::SecurityMonitor &security,
                      MitigationStats &stats);

    /**
     * Context without a ground-truth monitor (@p security may be
     * null). Banks the oracle does not track (every bank of a pure
     * performance run) have no monitor; the security-facing
     * accounting calls then become no-ops, which is unobservable --
     * nothing reads the oracle of an untracked bank.
     */
    MitigationContext(dram::Bank &bank, dram::SecurityMonitor *security,
                      MitigationStats &stats);

    /** PRAC counter of a row. */
    ActCount counter(RowId row) const;

    /** Rows in the bank. */
    uint32_t numRows() const;

    /** Refresh one victim row (charges restored, damage cleared). */
    void refreshVictim(RowId row);

    /** Reset one row's PRAC counter (the aggressor, after mitigation). */
    void resetCounter(RowId row);

    /** Mark an aggressor's mitigation as complete (security accounting). */
    void markMitigated(RowId row, bool reactive);

  private:
    dram::Bank &bank_;
    /** Null when the oracle is disabled (performance runs). */
    dram::SecurityMonitor *security_;
    MitigationStats &stats_;
};

/**
 * A mitigation of one aggressor row, broken into single-row-refresh
 * steps so that gradual (one victim per REF) and atomic (whole
 * aggressor per RFM) mitigation share one implementation.
 *
 * Steps: refresh each victim within the blast radius (skipping rows
 * outside the bank), then optionally reset the aggressor's PRAC
 * counter. The final step marks the aggressor mitigated.
 */
class MitigationJob
{
  public:
    MitigationJob() = default;

    /**
     * @param aggressor Row being mitigated.
     * @param blast_radius Victims on each side to refresh.
     * @param reset_counter Whether a counter-reset step is appended.
     */
    MitigationJob(RowId aggressor, uint32_t blast_radius, bool reset_counter);

    /** Whether a job is loaded and unfinished. */
    bool active() const { return active_; }

    /** Aggressor row of the active job. */
    RowId aggressor() const { return aggressor_; }

    /**
     * Perform one single-row operation.
     * @param reactive Whether this runs under an RFM (for stats).
     * @return true when the job completed with this step.
     */
    bool step(MitigationContext &ctx, bool reactive);

    /** Run all remaining steps at once (RFM-style atomic mitigation). */
    void runToCompletion(MitigationContext &ctx, bool reactive);

    /** Abandon the job without completing it (MOAT invalidates the CMA
     *  when an ALERT is serviced). */
    void cancel() { active_ = false; }

  private:
    RowId aggressor_ = kInvalidRow;
    uint32_t blast_radius_ = 0;
    bool reset_counter_ = false;
    bool active_ = false;
    /** Next step index: victims first, then optional counter reset. */
    uint32_t next_step_ = 0;
};

/**
 * The hook contract of an in-DRAM Rowhammer mitigator design (one
 * instance per bank). Every alternative of mitigation::Mitigator
 * static_asserts it; the SubChannel calls the hooks through one
 * std::visit per call.
 *
 *  - onActivate(row, ctx): observe an activation. Called after the
 *    PRAC counter increment; the new value is readable via
 *    ctx.counter(row).
 *  - onRefCommand(ctx): one REF command. Called after the
 *    auto-refresh bookkeeping, once per tREFI; the mitigator may
 *    perform up to its per-REF quota of single-row operations here.
 *  - onAutoRefresh(first, last, ctx): auto-refresh of the row range
 *    [first, last] is being performed. Counter-reset-on-refresh
 *    policies act here.
 *  - onRfm(ctx): one RFM command during an ALERT. The mitigator
 *    should complete reactive mitigation of (up to) one aggressor row.
 *  - wantsAlert(): whether the mitigator currently needs an ALERT.
 *  - name(): human-readable design name.
 *  - sramBytesPerBank(): SRAM cost of this design in bytes per bank
 *    (Section 6.5).
 *
 * Optional: onAlertAsserted(ctx), called when an ALERT is asserted on
 * the channel (by this bank or another). Designs that latch their
 * candidate at assertion time (MOAT's CTA -> CMA transfer, Section
 * 4.2) do so here; activations in the 180 ns window between assertion
 * and the RFMs then no longer change which row gets mitigated. A
 * design without the hook ignores the assertion.
 *
 * Designs are copyable values: a copy of a mid-run mitigator is a
 * snapshot of its whole state.
 */
template <typename M>
concept MitigatorDesign =
    std::copyable<M> &&
    requires(M &m, const M &cm, RowId row, MitigationContext &ctx) {
        { m.onActivate(row, ctx) } -> std::same_as<void>;
        { m.onRefCommand(ctx) } -> std::same_as<void>;
        { m.onAutoRefresh(row, row, ctx) } -> std::same_as<void>;
        { m.onRfm(ctx) } -> std::same_as<void>;
        { cm.wantsAlert() } -> std::same_as<bool>;
        { cm.name() } -> std::same_as<std::string>;
        { cm.sramBytesPerBank() } -> std::same_as<uint32_t>;
    };

} // namespace moatsim::mitigation

#endif // MOATSIM_MITIGATION_MITIGATOR_HH
