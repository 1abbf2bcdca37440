#include "dram/timing.hh"

#include <string>
#include <utility>

#include "common/hash.hh"
#include "common/logging.hh"

namespace moatsim::dram
{

uint32_t
TimingParams::actsPerRefi() const
{
    return static_cast<uint32_t>((tREFI - tRFC) / tRC);
}

uint32_t
TimingParams::refisPerRefw() const
{
    return static_cast<uint32_t>(tREFW / tREFI);
}

uint32_t
TimingParams::rowsPerGroup() const
{
    return rowsPerBank / refreshGroups;
}

Time
TimingParams::availableWindow() const
{
    return tREFW - static_cast<Time>(refreshGroups) * tRFC;
}

Time
TimingParams::alertToAlert(int level) const
{
    // 180 ns of normal activity, then L back-to-back RFMs, then one
    // tRC for the mandatory post-RFM activation slot (Section 5.1 /
    // Appendix A: tA2A = 180ns + (350ns + 52ns) * L).
    return tAlertNormal + static_cast<Time>(level) * (tRFM + tRC);
}

uint32_t
TimingParams::actsPerAlertWindow(int level) const
{
    // 3 ACTs fit in the 180 ns normal window; L ACTs are permitted
    // after the RFMs before the next ALERT may be asserted (Fig. 8).
    return 3 + static_cast<uint32_t>(level);
}

void
TimingParams::validate() const
{
    // Name the offending field: a sweep over device grades must point
    // at the bad parameter, not at "all timings".
    const std::pair<const char *, Time> positives[] = {
        {"tACT", tACT},   {"tPRE", tPRE},   {"tRAS", tRAS},
        {"tRC", tRC},     {"tREFW", tREFW}, {"tREFI", tREFI},
        {"tRFC", tRFC},   {"tRRD", tRRD},   {"tFAW", tFAW},
        {"tRFM", tRFM},   {"tAlertNormal", tAlertNormal},
    };
    for (const auto &[name, value] : positives) {
        if (value <= 0)
            fatal("TimingParams: " + std::string(name) +
                  " must be positive (got " + std::to_string(value) +
                  " ps)");
    }
    if (tRFC >= tREFI)
        fatal("TimingParams: tRFC must be smaller than tREFI");
    if (tREFW <= tREFI)
        fatal("TimingParams: tREFW must be larger than tREFI");
    if (rowsPerBank == 0)
        fatal("TimingParams: rowsPerBank must be non-zero");
    if (banksPerSubchannel == 0)
        fatal("TimingParams: banksPerSubchannel must be non-zero");
    if (refreshGroups == 0)
        fatal("TimingParams: refreshGroups must be non-zero");
    if (rowsPerBank % refreshGroups != 0)
        fatal("TimingParams: rowsPerBank must be a multiple of refreshGroups");
    if (blastRadius == 0)
        fatal("TimingParams: blastRadius must be at least 1");
}

uint64_t
foldTiming(uint64_t h, const TimingParams &t)
{
    for (const Time v : {t.tACT, t.tPRE, t.tRAS, t.tRC, t.tREFW, t.tREFI,
                         t.tRFC, t.tRRD, t.tFAW, t.tRFM, t.tAlertNormal})
        h = hashCombine(h, static_cast<uint64_t>(v));
    for (const uint32_t v :
         {t.rowsPerBank, t.banksPerSubchannel, t.refreshGroups, t.blastRadius})
        h = hashCombine(h, v);
    return h;
}

} // namespace moatsim::dram
