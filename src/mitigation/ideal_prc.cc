#include "mitigation/ideal_prc.hh"

#include "common/logging.hh"

namespace moatsim::mitigation
{

std::string
configError(const IdealPrcConfig &config)
{
    return config.mitigationPeriodRefis == 0 ? "period must be at least 1"
                                              : "";
}

IdealPrcMitigator::IdealPrcMitigator(const IdealPrcConfig &config)
    : config_(config)
{
    if (const std::string why = configError(config_); !why.empty())
        panic("IdealPrcMitigator: " + why);
}

void
IdealPrcMitigator::onActivate(RowId row, MitigationContext &ctx)
{
    // Track the argmax incrementally: counters only grow between
    // mitigations, and the mitigated row's counter resets to zero, at
    // which point we rescan lazily in onRefCommand.
    const ActCount count = ctx.counter(row);
    if (count > max_count_) {
        max_count_ = count;
        max_row_ = row;
    }
}

void
IdealPrcMitigator::onRefCommand(MitigationContext &ctx)
{
    ++refs_seen_;
    if (refs_seen_ % config_.mitigationPeriodRefis != 0)
        return;
    if (max_row_ == kInvalidRow || max_count_ < config_.minCount)
        return;

    // Mitigate the globally highest-count row within this REF (the
    // idealized scheme's mitigation is as fast as the period allows).
    MitigationJob job(max_row_, config_.blastRadius,
                      /*reset_counter=*/true);
    job.runToCompletion(ctx, /*reactive=*/false);

    // Rescan for the new argmax. The scan is conceptually free for the
    // idealized scheme; the simulator pays O(rows) host time only.
    max_row_ = kInvalidRow;
    max_count_ = 0;
    const uint32_t n = ctx.numRows();
    for (RowId r = 0; r < n; ++r) {
        const ActCount c = ctx.counter(r);
        if (c > max_count_) {
            max_count_ = c;
            max_row_ = r;
        }
    }
}

void
IdealPrcMitigator::onAutoRefresh(RowId first, RowId last,
                                 MitigationContext &ctx)
{
    // Reset counters on the row's own refresh; safe-reset subtleties
    // are MOAT-specific and out of scope for this idealized baseline.
    for (RowId r = first; r <= last; ++r) {
        ctx.resetCounter(r);
        if (r == max_row_) {
            max_row_ = kInvalidRow;
            max_count_ = 0;
        }
    }
}

void
IdealPrcMitigator::onRfm(MitigationContext &ctx)
{
    (void)ctx; // Never alerts, so never receives meaningful RFMs.
}

std::string
IdealPrcMitigator::name() const
{
    return "IdealPRC(k=" + std::to_string(config_.mitigationPeriodRefis) +
           ")";
}

uint32_t
IdealPrcMitigator::sramBytesPerBank() const
{
    return 0; // Counters live in the DRAM array (PRAC).
}

} // namespace moatsim::mitigation
