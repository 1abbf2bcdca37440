/**
 * @file
 * Adversary-under-load cell math.
 *
 * The paper's security results run the attacker on an isolated
 * sub-channel; its performance results replay only benign traffic.
 * A co-attack cell closes the gap between the two: it appends a
 * synthesized attacker core (workload/attack_trace.hh) to a workload's
 * benign tracegen cores and replays all of them through sim::System's
 * merged multi-sub-channel event loop, then reports per-core-class
 * metrics -- the attacker's residual maxHammer under real contention,
 * the victims' slowdown against an attack-free co-run of the *same*
 * mitigator (isolating the attack's cost from the mitigation's own
 * overhead), and the ALERT/RFM activity attributable to the attack.
 *
 * Everything here is a pure function of its arguments. sim::SweepEngine
 * (sim/sweep.hh) runs co-attack cells beside perf cells: it keys,
 * caches and fans them out, and computes each attack-free baseline
 * once per (configuration, workload, mitigator, level).
 */

#ifndef MOATSIM_SIM_COATTACK_HH
#define MOATSIM_SIM_COATTACK_HH

#include <string>
#include <vector>

#include "abo/abo.hh"
#include "mitigation/registry.hh"
#include "sim/system.hh"
#include "workload/attack_trace.hh"
#include "workload/spec.hh"
#include "workload/trace_store.hh"

namespace moatsim::sim
{

/** The attack side of one co-attack cell (placement + shape). Every
 *  field shapes the cell's results, so every field must be folded
 *  into coAttackCellKey() -- the ResultStore serves cached co-attack
 *  lines by that key; keylint proves it on every build. */
// moatlint: key-source(coAttackCellKey)
struct CoAttackScenario
{
    /** Pattern name (attacks::attackPatterns()), or "none". */
    std::string pattern = "hammer";
    /** Rows in the attack pool (0 = pattern default). */
    uint32_t poolRows = 0;
    /** Activation budget (0 = span the benign window). */
    uint64_t budget = 0;
    /** Sub-channel replay slot the attacker pins (flat index over
     *  channels x ranks x sub-channels, sim::System slot order). */
    uint32_t subchannel = 0;
    /** Bank (within that sub-channel) the attacker pins. */
    uint32_t bank = 0;
    uint64_t seed = 1;
};

/** One independent (workload, mitigator, level, attack) cell. Folded
 *  into coAttackCellKey() in full (the attack side delegates to
 *  CoAttackScenario's own key-source contract). */
// moatlint: key-source(coAttackCellKey)
struct CoAttackCell
{
    workload::WorkloadSpec workload;
    mitigation::MitigatorSpec mitigator;
    abo::Level level = abo::Level::L1;
    CoAttackScenario attack{};
};

/** Per-core-class outcome of one adversary-under-load cell. */
struct CoAttackResult
{
    std::string workload;
    /** Canonical spec of the design under test. */
    std::string mitigator;
    /** Canonical device spec the cell ran on; empty for the
     *  hand-assembled default configuration. */
    std::string device;
    /** Attack pattern ("none" for an attack-free co-run). */
    std::string pattern;
    int aboLevel = 1;

    // ----- attacker class ------------------------------------------
    /** Peak unmitigated ACTs over the attacker's rows (under load). */
    uint32_t attackerMaxHammer = 0;
    /** Activations the attacker core issued. */
    uint64_t attackerActs = 0;

    // ----- victim class --------------------------------------------
    /** Mean per-victim finish-time ratio vs the attack-free co-run of
     *  the same mitigator (>= 1; the attack's denial-of-service). */
    double victimSlowdown = 1.0;
    /** Inverse view (mean attack-free/attacked, <= 1). */
    double victimNormPerf = 1.0;
    /** Activations the benign cores issued. */
    uint64_t victimActs = 0;

    // ----- defence activity attributable to the attack -------------
    /** ALERTs during the co-run / during the attack-free baseline. */
    uint64_t alerts = 0;
    uint64_t attackFreeAlerts = 0;
    /** RFM commands during the co-run / the attack-free baseline. */
    uint64_t rfms = 0;
    uint64_t attackFreeRfms = 0;
    /** REF commands during the co-run. */
    uint64_t refs = 0;
    /** ALERTs per tREFI (all sub-channels) with / without the attack. */
    double alertsPerRefi = 0.0;
    double attackFreeAlertsPerRefi = 0.0;
};

/**
 * Channel seed of a co-attack cell: the perf cell seed re-keyed for
 * the co-attack domain, independent of @p attack. Like cellSeed() it
 * shapes no result (no sub-channel reads its seed); it stays because
 * perfbench assigns it to the system it builds.
 */
uint64_t coAttackCellSeed(const workload::TraceGenConfig &config,
                          const workload::WorkloadSpec &spec,
                          const mitigation::MitigatorSpec &mitigator,
                          abo::Level level,
                          const workload::AttackTraceConfig &attack);

/**
 * Content address of one co-attack cell for the sim::ResultStore:
 * perfCellKey() (configuration, workload, mitigator, level) extended
 * with every CoAttackScenario field -- unlike the cell *seed*, the
 * cell *key* must separate attacked results by attack shape. Equal
 * keys produce byte-identical toJsonLine(CoAttackResult) payloads.
 */
uint64_t coAttackCellKey(const workload::TraceGenConfig &config,
                         const CoreModel &core, const CoAttackCell &cell);

/**
 * Replay @p spec's benign traces -- plus the attacker stream unless
 * @p attack is "none" -- on a fresh System of
 * config.subchannels sub-channels. The benign cores occupy result
 * indices [0, numCores); the attacker, when present, is the last
 * core. When @p attacker_max_hammer is non-null it receives the peak
 * hammer count over the attacker's rows, and the security oracle
 * tracks the attacker's (slot, bank) only; otherwise the run carries
 * no oracle (it never changes the SystemResult either way). When
 * @p benign is non-null it supplies the benign traces (a shared
 * TraceStore handout); otherwise they are generated locally.
 */
SystemResult runCoSystem(const workload::TraceGenConfig &config,
                         const CoreModel &core,
                         const workload::WorkloadSpec &spec,
                         const mitigation::MitigatorSpec &mitigator,
                         abo::Level level,
                         const workload::AttackTraceConfig &attack,
                         uint32_t *attacker_max_hammer = nullptr,
                         const workload::TraceSet *benign = nullptr);

/** The AttackTraceConfig a scenario resolves to under a benign
 *  configuration (timing and window filled in). */
workload::AttackTraceConfig
resolveAttack(const CoAttackScenario &scenario,
              const workload::TraceGenConfig &config);

/** Attack-free co-run of (workload, mitigator, level): the victim
 *  baseline every attacked cell of that tuple compares against. */
struct CoAttackBaseline
{
    std::vector<Time> coreFinish;
    /** Benign activations (the victim-class act count). */
    uint64_t totalActs = 0;
    uint64_t alerts = 0;
    uint64_t rfms = 0;
    uint64_t refs = 0;
};

/** Replay the attack-free co-run of @p cell's (workload, mitigator,
 *  level) over its @p benign traces; the attack side is ignored. */
CoAttackBaseline runCoAttackBaseline(const workload::TraceGenConfig &config,
                                     const CoreModel &core,
                                     const CoAttackCell &cell,
                                     const workload::TraceSet &benign);

/**
 * Run one co-attack cell given its attack-free @p baseline and its
 * @p benign traces (typically a TraceStore handout). Pure function of
 * its arguments; an attack-free cell ("none") *is* its baseline and
 * replays nothing.
 */
CoAttackResult runCoAttackCell(const workload::TraceGenConfig &config,
                               const CoreModel &core,
                               const CoAttackCell &cell,
                               const CoAttackBaseline &baseline,
                               const workload::TraceSet &benign);

/** Cross product: every workload at every (mitigator, level, attack)
 *  point. */
std::vector<CoAttackCell>
crossCoAttackCells(const std::vector<workload::WorkloadSpec> &workloads,
                   const std::vector<mitigation::MitigatorSpec> &mitigators,
                   abo::Level level, const CoAttackScenario &attack);

} // namespace moatsim::sim

#endif // MOATSIM_SIM_COATTACK_HH
