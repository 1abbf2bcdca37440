/**
 * @file
 * Command-level DDR5 sub-channel simulator.
 *
 * The SubChannel is the substrate on which both the attack patterns and
 * the workload performance model run. It owns the banks of one DDR5
 * sub-channel together with one mitigator instance per bank, enforces
 * command timing (per-bank tRC, channel-wide tRRD/tFAW, REF busy
 * windows), issues auto-refresh on the tREFI cadence (optionally with
 * attacker-controlled postponement, Appendix B), and runs the
 * ALERT-Back-Off protocol: when any bank's mitigator requests an ALERT
 * and the ABO engine permits it, the channel schedules the 180 ns
 * normal window followed by L RFM commands during which every bank's
 * mitigator performs reactive mitigation.
 *
 * Callers drive it with activate() ("issue this ACT as early as legal")
 * or activateAt() ("...but not before this time"), and advanceTo() for
 * idle waiting. A closed-page policy is assumed: every ACT is followed
 * by an automatic precharge, and the PRAC counter update (and thus any
 * ALERT trigger) lands at the end of the activate-precharge cycle.
 */

#ifndef MOATSIM_SUBCHANNEL_SUBCHANNEL_HH
#define MOATSIM_SUBCHANNEL_SUBCHANNEL_HH

#include <optional>
#include <vector>

#include "abo/abo.hh"
#include "common/time.hh"
#include "common/types.hh"
#include "dram/bank.hh"
#include "dram/refresh.hh"
#include "dram/security.hh"
#include "dram/timing.hh"
#include "mitigation/registry.hh"
#include "subchannel/counter_slab.hh"

namespace moatsim::subchannel
{

/** Configuration of one sub-channel instance. */
struct SubChannelConfig
{
    dram::TimingParams timing{};
    /** ABO mitigation level (MR71 op[1:0]). */
    abo::Level aboLevel = abo::Level::L1;
    /**
     * Whether auto-refresh resets row damage/hammer state and invokes
     * the mitigator's counter-reset-on-refresh hook. Long-running
     * security experiments disable this to model an attacker that
     * aligns the pattern with the refresh schedule (the threat model
     * lets the attacker pick the memory policy best suited to the
     * attack); REF commands still occur and still provide mitigation
     * slots.
     */
    bool refreshResetsRows = true;
    /**
     * Whether the ground-truth SecurityMonitor tracks activations.
     * Security experiments need it; pure performance runs disable it
     * for speed. It never affects behaviour, only observation, so the
     * oracle is built only where something reads it: every bank by
     * default, or only oracleBank when that is set.
     */
    bool securityEnabled = true;
    /**
     * With securityEnabled, the one bank the oracle tracks; every
     * other bank runs oracle-free and security() on it fatal()s.
     * Unset means every bank. Ignored when securityEnabled is off.
     * System sets it from SystemConfig::oracleOnly, on the chosen
     * slot only.
     */
    std::optional<BankId> oracleBank;
    /** Number of banks; 0 means timing.banksPerSubchannel. */
    uint32_t numBanks = 0;
    /** Maximum REFs that postponement may owe at once (DDR5: 2). */
    uint32_t maxPostponedRefs = 2;
    /**
     * Unread: no sub-channel draws a random number (PRAC counters
     * start at zero). sim::System still derives one per slot, and
     * perfbench assigns it, so the field stays until that chain goes.
     */
    uint64_t seed = 1;
};

/** Aggregate activity counters of a sub-channel. */
struct SubChannelStats
{
    /** Activations issued. */
    uint64_t acts = 0;
    /** Individual REF commands executed. */
    uint64_t refs = 0;
    /** tREFI boundaries where the REF was postponed. */
    uint64_t postponedRefs = 0;
    /** RFM commands executed (rfmsPerAlert per ALERT). */
    uint64_t rfms = 0;
};

/** Command-level model of one DDR5 sub-channel. */
class SubChannel
{
  public:
    /** Every bank starts with its own copy of @p prototype. */
    SubChannel(const SubChannelConfig &config,
               const mitigation::Mitigator &prototype);

    /** Current simulation time (completion of the last processed op). */
    Time now() const { return now_; }

    /** Number of banks. */
    uint32_t numBanks() const { return static_cast<uint32_t>(banks_.size()); }

    /**
     * Issue an activation to (bank, row) at the earliest legal time.
     * @return the issue time of the ACT.
     */
    Time activate(BankId bank, RowId row);

    /**
     * Issue an activation no earlier than @p not_before (used by the
     * performance model, where requests arrive at specific times, and
     * by attacks that pace themselves).
     * @return the issue time of the ACT.
     */
    Time activateAt(BankId bank, RowId row, Time not_before);

    /** Earliest time an ACT to @p bank could issue right now. */
    Time earliestActTime(BankId bank) const;

    /** Advance the clock to @p t, processing REFs and pending ALERTs. */
    void advanceTo(Time t);

    /**
     * Whether serviceable ALERT/mitigation work is still outstanding:
     * an asserted ALERT whose RFM block has not been serviced yet, or
     * a bank wanting an ALERT that the ABO protocol can still accept
     * without further activations. A want gated on the inter-ALERT
     * activation minimum is latent state, not pending work -- it
     * cannot resolve until the command stream resumes.
     */
    bool alertWorkPending() const
    {
        return rfm_block_pending_ ||
               (anyAlertWanted() && abo_.canAssert(now_));
    }

    /**
     * Advance time until no serviceable ALERT/mitigation work is
     * pending -- the in-flight RFM block executes, and an assertable
     * want is raised at the next REF boundary and serviced -- then
     * land on the end of the busy window that retired the last work
     * item. Never advances beyond now() + @p max_advance.
     * @return the new now().
     */
    Time drainToQuiescence(Time max_advance);

    /** Enable/disable attacker-controlled refresh postponement. */
    void setPostponeRefresh(bool on) { postpone_refresh_ = on; }

    /** Access to a bank (counters). */
    dram::Bank &bank(BankId b) { return banks_.at(b); }
    const dram::Bank &bank(BankId b) const { return banks_.at(b); }

    /**
     * Address of the PRAC counter an ACT to (bank, row) will update,
     * or nullptr when the bank or row is out of range; the replay
     * loop prefetches it (see sim/system.hh).
     */
    const ActCount *counterAddress(BankId b, RowId row) const
    {
        return b < banks_.size() ? banks_[b].counterAddress(row) : nullptr;
    }

    /**
     * Ground-truth security monitor of a bank. Only available on the
     * banks the oracle tracks (see securityEnabled and oracleBank);
     * on any other bank this accessor fatal()s with a diagnostic.
     */
    dram::SecurityMonitor &security(BankId b)
    {
        return *requireOracle(b);
    }
    const dram::SecurityMonitor &security(BankId b) const
    {
        return *requireOracle(b);
    }

    /** Mitigator of a bank. */
    mitigation::Mitigator &mitigator(BankId b) { return mitigators_.at(b); }
    const mitigation::Mitigator &mitigator(BankId b) const
    {
        return mitigators_.at(b);
    }

    /** The refresh-group pointer: every REF refreshes the same group
     *  in every bank. */
    const dram::RefreshScheduler &refreshScheduler() const
    {
        return refresh_;
    }

    /** ABO protocol engine. */
    const abo::AboEngine &abo() const { return abo_; }

    /** Activity counters. */
    const SubChannelStats &stats() const { return stats_; }

    /** Aggregated mitigation-work counters across all banks. */
    mitigation::MitigationStats mitigationStats() const;

    /** Max hammer count (paper's attack metric) across the banks the
     *  oracle tracks (0 when it tracks none). */
    uint32_t maxHammerAnyBank() const;

    /** The timing parameters in use. */
    const dram::TimingParams &timing() const { return config_.timing; }

    /** The configuration in use. */
    const SubChannelConfig &config() const { return config_; }

  private:
    /** Process REF boundaries and RFM blocks scheduled before @p t. */
    void processEventsBefore(Time t);

    /** Execute the REF(s) due at the current boundary. */
    void processRefBoundary();

    /** Execute one REF command across all banks. */
    void performOneRef();

    /** Execute the RFM block of the in-flight ALERT. */
    void serviceRfmBlock();

    /** Assert an ALERT at @p t if one is wanted and permitted. */
    void maybeAssertAlert(Time t);

    /** Whether any bank's mitigator currently wants an ALERT. */
    bool anyAlertWanted() const;

    /** The monitor of @p b; fatal() with a diagnostic when @p b is
     *  untracked. */
    dram::SecurityMonitor *requireOracle(BankId b) const;

    SubChannelConfig config_;
    /**
     * PRAC counters and dirty bitmaps of every bank, recycled from
     * earlier sub-channels of the same shape (see counter_slab.hh).
     * A recycled slab reads all zeros because only Bank::activate()
     * makes a counter nonzero and it marks the counter's line; any new
     * write that can make a counter nonzero must mark its line too.
     * Declared before banks_ so it outlives the Bank spans into it.
     */
    CounterSlab counter_slab_;
    /** Banks stored by value: the per-ACT path indexes a contiguous
     *  array instead of chasing one heap pointer per bank. */
    std::vector<dram::Bank> banks_;
    /** One monitor per tracked bank (none, one, or all of them); its
     *  per-row arrays are the dominant cost of constructing a
     *  sub-channel, so untracked banks get none. */
    std::vector<dram::SecurityMonitor> security_;
    /** Per bank: its monitor in security_, or null when untracked --
     *  the per-ACT oracle test is one load and one branch. */
    std::vector<dram::SecurityMonitor *> oracle_;
    /** Mitigators stored by value, like the banks: each hook is one
     *  std::visit on the bank's slot, with no pointer to chase. */
    std::vector<mitigation::Mitigator> mitigators_;
    dram::RefreshScheduler refresh_;
    std::vector<mitigation::MitigationStats> mitigation_stats_;
    abo::AboEngine abo_;
    SubChannelStats stats_;

    Time now_ = 0;
    /** Next scheduled tREFI boundary. */
    Time next_ref_time_;
    /** Channel unavailable before this time (REF/RFM busy). */
    Time channel_busy_until_ = 0;
    /** Per-bank earliest next ACT (tRC). */
    std::vector<Time> bank_ready_;
    /** Channel-wide last ACT issue time (tRRD). */
    Time last_act_time_ = -1;
    /** Issue times of the last four ACTs (tFAW window). */
    Time faw_ring_[4] = {-1, -1, -1, -1};
    uint32_t faw_pos_ = 0;
    /** RFM block of the in-flight ALERT not yet executed. */
    bool rfm_block_pending_ = false;
    bool postpone_refresh_ = false;
    /**
     * Whether any bank's mitigator currently wants an ALERT, so the
     * per-ACT path never polls every bank: OR-ed with the activated
     * bank's state after every ACT (the only place a want can appear)
     * and recomputed after REF/RFM mitigation work (the only places a
     * want can clear). maybeAssertAlert() asserts it equals
     * anyAlertWanted() in debug builds.
     */
    bool alert_wanted_sticky_ = false;
    /** Channel-level count of postponed (owed) REFs. */
    uint32_t owed_refs_ = 0;
};

} // namespace moatsim::subchannel

#endif // MOATSIM_SUBCHANNEL_SUBCHANNEL_HH
