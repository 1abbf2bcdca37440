#include "workload/attack_trace.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "common/spec_text.hh"
#include "workload/event_order.hh"

namespace moatsim::workload
{

namespace
{

/** The jailbreak shape's target ACTs per tREFI. */
constexpr uint32_t kJailbreakActsPerRefi = 32;

/** Default pacing between attacker ACTs. */
Time
gapOf(const AttackTraceConfig &cfg)
{
    return cfg.actGap > 0 ? cfg.actGap : cfg.timing.tRC;
}

/** Spacing of the jailbreak shape's target ACTs. */
Time
jailbreakPaceOf(const dram::TimingParams &timing)
{
    return timing.tREFI / (kJailbreakActsPerRefi + 1);
}

/** Resolved activation budget: explicit, else sized to the window,
 *  else a fixed default matching the isolated driver's scale. */
uint64_t
budgetOf(const AttackTraceConfig &cfg)
{
    if (cfg.budget != 0)
        return cfg.budget;
    if (cfg.window > 0)
        return std::max<uint64_t>(
            1024, static_cast<uint64_t>(cfg.window / gapOf(cfg)));
    return 4096;
}

/** Builder state shared by the pattern synthesizers. */
struct Builder
{
    const AttackTraceConfig &cfg;
    AttackTrace out;
    /** Intended-time cursor. */
    Time t = 0;
    /** Default pacing between attacker ACTs. */
    Time gap;
    /** The pinned slot, range-checked by generateAttackTrace. */
    uint16_t slot;

    explicit Builder(const AttackTraceConfig &config)
        : cfg(config),
          gap(gapOf(config)),
          slot(static_cast<uint16_t>(config.subchannel))
    {
        out.subchannel = config.subchannel;
        out.bank = config.bank;
    }

    void
    emit(RowId row)
    {
        out.trace.events.push_back(
            {.at = t, .row = row, .bank = cfg.bank, .subchannel = slot});
        t += gap;
    }

    void
    emit(RowId row, Time at)
    {
        out.trace.events.push_back(
            {.at = at, .row = row, .bank = cfg.bank, .subchannel = slot});
        t = std::max(t, at + gap);
    }
};

/** Single mid-bank row as fast as the pacing allows. */
void
buildHammer(Builder &b)
{
    const uint64_t budget = budgetOf(b.cfg);
    b.out.rows = {attackBaseRow(b.cfg.timing)};
    for (uint64_t i = 0; i < budget; ++i)
        b.emit(b.out.rows[0]);
}

/** Circular many-sided pool. */
void
buildRoundRobin(Builder &b)
{
    const uint32_t pool = b.cfg.poolRows != 0 ? b.cfg.poolRows : 8;
    b.out.rows = attackRowPool(b.cfg.timing, pool);
    const uint64_t budget = budgetOf(b.cfg);
    for (uint64_t i = 0; i < budget; ++i)
        b.emit(b.out.rows[i % pool]);
}

/**
 * Ratchet funnel: sweep a pool, halve it every few sweeps (the
 * survivors soak up the leaked per-ALERT activations), and spend the
 * remaining budget on the last survivor.
 */
void
buildRatchet(Builder &b)
{
    const uint32_t pool = b.cfg.poolRows != 0 ? b.cfg.poolRows : 64;
    b.out.rows = attackRowPool(b.cfg.timing, pool);
    const uint64_t budget = budgetOf(b.cfg);
    constexpr uint32_t kSweepsPerStage = 4;

    uint64_t acts = 0;
    uint32_t live = pool;
    while (live > 1 && acts < budget) {
        for (uint32_t s = 0; s < kSweepsPerStage && acts < budget; ++s) {
            for (uint32_t i = 0; i < live && acts < budget; ++i) {
                b.emit(b.out.rows[i]);
                ++acts;
            }
        }
        live = live / 2;
    }
    for (; acts < budget; ++acts)
        b.emit(b.out.rows[0]);
}

/**
 * Jailbreak shape: prime a queue-sized decoy set, then hammer the
 * target at the paper's 32-ACTs-per-tREFI pace, re-touching one decoy
 * per period to keep the queue populated without overflowing.
 */
void
buildJailbreak(Builder &b)
{
    const uint32_t decoys = b.cfg.poolRows != 0 ? b.cfg.poolRows : 8;
    b.out.rows = attackRowPool(b.cfg.timing, decoys + 1);
    const RowId target = b.out.rows[0];
    const uint64_t budget = budgetOf(b.cfg);
    const Time pace = jailbreakPaceOf(b.cfg.timing);

    uint64_t acts = 0;
    for (uint32_t d = 0; d < decoys && acts < budget; ++d, ++acts)
        b.emit(b.out.rows[1 + d]);

    uint64_t period = 0;
    while (acts < budget) {
        const Time start = b.t;
        for (uint32_t i = 0; i < kJailbreakActsPerRefi && acts < budget;
             ++i, ++acts) {
            b.emit(target, start + static_cast<Time>(i) * pace);
        }
        if (acts < budget) {
            b.emit(b.out.rows[1 + (period % decoys)]);
            ++acts;
        }
        ++period;
    }
}

/**
 * Feinting: spread each sacrifice period's budget evenly over the
 * surviving pool, dropping the last row every period; the first row
 * survives every period and accumulates the sum.
 */
void
buildFeinting(Builder &b)
{
    const uint32_t pool = b.cfg.poolRows != 0 ? b.cfg.poolRows : 16;
    b.out.rows = attackRowPool(b.cfg.timing, pool);
    const uint64_t budget = budgetOf(b.cfg);
    const uint64_t per_period = std::max<uint64_t>(1, budget / pool);

    uint64_t acts = 0;
    for (uint32_t live = pool; live >= 1 && acts < budget; --live) {
        const uint64_t share = std::max<uint64_t>(1, per_period / live);
        for (uint32_t r = 0; r < live && acts < budget; ++r) {
            for (uint64_t i = 0; i < share && acts < budget;
                 ++i, ++acts) {
                b.emit(b.out.rows[r]);
            }
        }
    }
    for (; acts < budget; ++acts)
        b.emit(b.out.rows[0]);
}

/** One pattern's trace shape. */
struct Shape
{
    const char *pattern;
    /** The synthesizer; null for the empty stream. */
    void (*build)(Builder &);
    /** Whether it lays out a pool of pool_rows rows... */
    bool pooled;
    /** ...and how many rows beside it (the jailbreak target). */
    uint32_t spareRows;
};

constexpr Shape kShapes[] = {
    // Empty stream: the attack-free co-run replays through the same
    // engine path with the attacker core contributing nothing.
    {"none", nullptr, false, 0},
    {"hammer", buildHammer, false, 0},
    // Postponement pressure is continuous hammering; the attack's bite
    // comes from the System-level REF postponement a co-attack run
    // enables (attackPostponesRefresh).
    {"postponement", buildHammer, false, 0},
    {"round-robin", buildRoundRobin, true, 0},
    {"ratchet", buildRatchet, true, 0},
    {"jailbreak", buildJailbreak, true, 1},
    {"feinting", buildFeinting, true, 0},
};

const Shape *
findShape(const std::string &pattern)
{
    for (const Shape &shape : kShapes) {
        if (pattern == shape.pattern)
            return &shape;
    }
    return nullptr;
}

} // namespace

const std::vector<std::string> &
attackTracePatterns()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const Shape &shape : kShapes)
            out.emplace_back(shape.pattern);
        return out;
    }();
    return names;
}

bool
checkAttackTrace(const AttackTraceConfig &config, std::string *why)
{
    const Shape *shape = findShape(config.pattern);
    if (shape == nullptr) {
        if (why)
            *why = "pattern '" + config.pattern +
                   "' has no co-attack trace (co-attack patterns: " +
                   joinNames(attackTracePatterns(), std::identity{}) + ")";
        return false;
    }
    const uint32_t fit = maxAttackPoolRows(config.timing);
    const uint32_t most = fit - std::min(fit, shape->spareRows);
    if (shape->pooled && config.poolRows > most) {
        if (why)
            *why = "the " + config.pattern + " pool of " +
                   std::to_string(config.poolRows) +
                   " rows does not fit in the bank (at most " +
                   std::to_string(most) + ")";
        return false;
    }
    return checkAttackTraceRange(config, why);
}

AttackTrace
generateAttackTrace(const AttackTraceConfig &config)
{
    if (config.subchannel > kMaxTraceSlot)
        fatal("generateAttackTrace: subchannel " +
              std::to_string(config.subchannel) +
              " exceeds the trace event's slot range (max " +
              std::to_string(kMaxTraceSlot) + ")");
    std::string why;
    if (!checkAttackTrace(config, &why))
        fatal("generateAttackTrace: " + why);
    Builder b(config);
    if (const auto build = findShape(config.pattern)->build)
        build(b);

    b.out.trace.events = sortedEvents(std::move(b.out.trace.events));
    b.out.trace.window =
        std::max(config.window,
                 b.out.trace.events.empty()
                     ? Time{0}
                     : b.out.trace.events.back().at + b.gap);
    return b.out;
}

uint64_t
maxAttackBudget(const AttackTraceConfig &config)
{
    // Each event moves the cursor on by at most one step (a jailbreak
    // period spends 31 paces and 2 gaps on 33 events), so event k
    // (from 0) lies at or before k steps and every event of a budget
    // of n lies below n steps.
    Time step = std::max<Time>(gapOf(config), 1);
    if (config.pattern == "jailbreak")
        step = std::max(step, jailbreakPaceOf(config.timing));
    return static_cast<uint64_t>(kEventTimeLimit / step);
}

bool
checkAttackTraceRange(const AttackTraceConfig &config, std::string *why)
{
    const std::string range =
        "the trace sort's 2^" + std::to_string(kEventTimeBits) + " ps range";
    if (config.window >= kEventTimeLimit) {
        if (why)
            *why = "window of " + std::to_string(config.window) +
                   " ps reaches " + range;
        return false;
    }
    if (config.pattern == "none")
        return true;
    const uint64_t budget = budgetOf(config);
    const uint64_t most = maxAttackBudget(config);
    if (budget > most) {
        if (why) {
            *why = "budget of " + std::to_string(config.budget) +
                   (config.budget == budget
                        ? ""
                        : " (resolving to " + std::to_string(budget) + ")") +
                   " activations spans past " + range + " (at most " +
                   std::to_string(most) + " for pattern '" +
                   config.pattern + "')";
        }
        return false;
    }
    return true;
}

bool
attackPostponesRefresh(const std::string &pattern)
{
    return pattern == "postponement";
}

RowId
attackBaseRow(const dram::TimingParams &timing)
{
    return timing.rowsPerBank / 2;
}

uint32_t
attackRowStride(const dram::TimingParams &timing)
{
    // One stride keeps neighbouring pool rows' blast radii disjoint.
    return 2 * timing.blastRadius + 2;
}

uint32_t
maxAttackPoolRows(const dram::TimingParams &timing)
{
    return (timing.rowsPerBank - attackBaseRow(timing)) /
           attackRowStride(timing);
}

std::vector<RowId>
attackRowPool(const dram::TimingParams &timing, uint32_t pool)
{
    const RowId base = attackBaseRow(timing);
    const uint32_t stride = attackRowStride(timing);
    const uint32_t max_fit = maxAttackPoolRows(timing);
    if (pool > max_fit) {
        fatal("attack pool of " + std::to_string(pool) +
              " rows does not fit in the bank (max " +
              std::to_string(max_fit) + ")");
    }
    std::vector<RowId> rows;
    rows.reserve(pool);
    for (uint32_t i = 0; i < pool; ++i)
        rows.push_back(base + static_cast<RowId>(i) * stride);
    return rows;
}

} // namespace moatsim::workload
