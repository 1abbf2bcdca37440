/**
 * @file
 * Full-system, multi-sub-channel memory model.
 *
 * The paper's baseline (Table 3) is a 32 GB system with two DDR5
 * sub-channels of 32 banks each. A System instantiates N SubChannel
 * instances -- each with its own per-bank mitigators copied from the
 * same mitigation::Mitigator prototype -- and replays every core's
 * pre-decoded activation trace
 * (workload::TraceEvent carries the dram::AddressMap-routed
 * coordinates) through one merged event loop: cores issue in global
 * intended-arrival order, each ACT dispatches to its event's
 * sub-channel, and the per-core memory-level-parallelism bound
 * back-pressures the instruction stream across all sub-channels a
 * core touches.
 *
 * The intended gap between two of a core's activations (the
 * instructions executed between them) is preserved, so channel stalls
 * (REF, ALERT/RFM) delay a core only through that bound. The per-core
 * finish time is the measure of performance; the paper's normalized
 * weighted speedup is the ratio of finish times against a no-ALERT
 * baseline run of the identical traces.
 *
 * The replay loop is the simulator's hot path, so it is flattened:
 * per-core in-flight completions live in fixed ring buffers (no deque
 * allocation per ACT), trace events are consumed through raw pointers,
 * and each sub-channel keeps a sticky ALERT-want flag instead of
 * polling every bank per ACT (see subchannel/subchannel.hh).
 * bench_core_loop reports the resulting acts/sec.
 */

#ifndef MOATSIM_SIM_SYSTEM_HH
#define MOATSIM_SIM_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/time.hh"
#include "subchannel/subchannel.hh"
#include "workload/tracegen.hh"

namespace moatsim::sim
{

/** Core model parameters. */
struct CoreModel
{
    /** Maximum outstanding activations per core. */
    uint32_t mlp = 4;
};

/** Configuration of a multi-sub-channel system. */
struct SystemConfig
{
    /**
     * Per-sub-channel configuration; every sub-channel is built from
     * this template. Each slot's `seed` is still derived -- slot i of
     * the flat single-channel, single-rank system gets
     * hashCombine(channel.seed, i), slot (c, r, s) of a larger
     * topology hashCombine(hashCombine(hashCombine(seed, c), r), s)
     * -- but no sub-channel reads it, so no result depends on it. The
     * only RNG on a result path is trace generation's
     * workload::traceSeed(spec, config).
     */
    subchannel::SubChannelConfig channel{};
    /** Sub-channels per (channel, rank) (Table 3 baseline: 2). */
    uint32_t subchannels = 2;
    /** Memory channels (device topology; Table 3: 1). */
    uint32_t channels = 1;
    /** Ranks per channel (device topology; Table 3: 1). */
    uint32_t ranks = 1;

    /** One bank of one sub-channel slot (flat index, see slotIndex). */
    struct OracleSite
    {
        uint32_t slot = 0;
        BankId bank = 0;
    };
    /**
     * When set with channel.securityEnabled, the ground-truth oracle
     * tracks only this bank: every other slot runs oracle-free and the
     * chosen slot narrows it via SubChannelConfig::oracleBank. Unset
     * means every bank of every slot. It never changes a result.
     */
    std::optional<OracleSite> oracleOnly;
};

/** Activity of one sub-channel during a replay. */
struct SubChannelUsage
{
    /** Demand activations issued on this sub-channel. */
    uint64_t acts = 0;
    /** REF commands executed. */
    uint64_t refs = 0;
    /** ALERTs asserted. */
    uint64_t alerts = 0;
    /** RFM commands executed. */
    uint64_t rfms = 0;
    /** Mitigation work performed by this sub-channel's banks. */
    mitigation::MitigationStats mitigation{};
};

/** Result of replaying one set of traces on a System. */
struct SystemResult
{
    /** Per-core completion time (last ACT completion + trailing gap). */
    std::vector<Time> coreFinish;
    /** Total activations replayed (all sub-channels). */
    uint64_t totalActs = 0;
    /** REF commands executed (summed over sub-channels). */
    uint64_t refs = 0;
    /** ALERTs asserted (summed over sub-channels). */
    uint64_t alerts = 0;
    /** Per-sub-channel breakdown (one entry per sub-channel). */
    std::vector<SubChannelUsage> perSubchannel;
};

/** N sub-channels sharing one mitigator design and timing. */
class System
{
  public:
    /** Every bank of every slot starts with its own copy of
     *  @p prototype. */
    System(const SystemConfig &config,
           const mitigation::Mitigator &prototype);

    /** Number of sub-channel slots (channels x ranks x subchannels). */
    uint32_t numSubchannels() const
    {
        return static_cast<uint32_t>(channels_.size());
    }

    /** One sub-channel slot by flat index. */
    subchannel::SubChannel &subchannel(uint32_t i)
    {
        return *channels_.at(i);
    }
    const subchannel::SubChannel &subchannel(uint32_t i) const
    {
        return *channels_.at(i);
    }

    /** Flat slot index of (channel, rank, subchannel). */
    uint32_t slotIndex(uint32_t channel, uint32_t rank,
                       uint32_t subchannel) const
    {
        return ((channel * config_.ranks) + rank) * config_.subchannels +
               subchannel;
    }

    /** Enable/disable refresh postponement on every sub-channel. */
    void setPostponeRefresh(bool on);

    /** Mitigation-work counters summed over every sub-channel. */
    mitigation::MitigationStats mitigationStats() const;

    /** Max hammer count across every tracked bank of every
     *  sub-channel. */
    uint32_t maxHammerAnyBank() const;

    /** Total banks across all sub-channels. */
    uint32_t totalBanks() const;

    const SystemConfig &config() const { return config_; }

  private:
    SystemConfig config_;
    std::vector<std::unique_ptr<subchannel::SubChannel>> channels_;
};

/**
 * Replay per-core trace views on @p system in one merged event loop
 * until every core consumed its trace. event.subchannel indexes the
 * system's sub-channel slots, reduced modulo their count, so a smaller
 * system accepts any trace (`moatsim replay --subchannels` relies on
 * it). Views borrow their event storage (typically a shared
 * workload::TraceSet out of the TraceStore, or a CoreTrace owned by
 * the caller), so a whole sweep matrix replays one immutable copy
 * of each workload's trace.
 */
SystemResult runSystem(System &system,
                       const std::vector<workload::CoreTraceView> &traces,
                       const CoreModel &core = CoreModel{});

/** Convenience overload over owned traces (borrows them as views). */
SystemResult runSystem(System &system,
                       const std::vector<workload::CoreTrace> &traces,
                       const CoreModel &core = CoreModel{});

} // namespace moatsim::sim

#endif // MOATSIM_SIM_SYSTEM_HH
