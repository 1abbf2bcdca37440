/**
 * @file
 * moatsim quickstart: build a MOAT-protected DDR5 sub-channel, hammer
 * a row past the ALERT threshold, and watch the PRAC+ABO machinery
 * mitigate it.
 *
 * Build and run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>
#include <memory>
#include <variant>

#include "analysis/ratchet_model.hh"
#include "mitigation/registry.hh"
#include "subchannel/subchannel.hh"

using namespace moatsim;

int
main()
{
    // 1. Configure a DDR5 sub-channel with the paper's Table-1 timings
    //    (the defaults) and one MOAT instance per bank. Any registered
    //    design works here: try "panopticon" or "ideal-prc".
    subchannel::SubChannelConfig config;
    config.numBanks = 4; // keep the demo small

    const auto spec =
        mitigation::Registry::parse("moat"); // ETH=32, ATH=64, MOAT-L1
    const mitigation::MoatConfig moat = mitigation::moatConfigOf(spec);
    subchannel::SubChannel channel(config, spec.factory());

    std::printf("Sub-channel: %u banks, %u rows each, tRC %.0f ns\n",
                channel.numBanks(), channel.bank(0).numRows(),
                toNs(channel.timing().tRC));
    std::visit(
        [](const auto &m) {
            std::printf("MOAT: %s, %u bytes SRAM per bank\n\n",
                        m.name().c_str(), m.sramBytesPerBank());
        },
        channel.mitigator(0));

    // 2. Hammer one row. Every activation increments the row's PRAC
    //    counter; the SecurityMonitor independently tracks the ground
    //    truth damage on the neighbouring victim rows.
    const BankId bank = 0;
    const RowId aggressor = 30000;
    for (int i = 0; i < 100; ++i)
        channel.activate(bank, aggressor);
    channel.advanceTo(channel.now() + fromNs(1000)); // drain the ALERT

    std::printf("After 100 activations of row %u:\n", aggressor);
    std::printf("  ALERTs asserted:           %lu\n",
                static_cast<unsigned long>(channel.abo().alertCount()));
    std::printf("  PRAC counter now:          %u (reset by mitigation)\n",
                channel.bank(bank).counter(aggressor));
    std::printf("  max ACTs w/o mitigation:   %u (the security metric)\n",
                channel.security(bank).maxHammer());
    std::printf("  victim damage remaining:   %u\n\n",
                channel.security(bank).damage(aggressor + 1));

    // 3. The analytical guarantee: with ATH=64 at ABO level 1, no
    //    attacker -- not even the Ratchet pattern -- can exceed:
    const auto bound =
        analysis::ratchetBound(channel.timing(), moat.ath, 1);
    std::printf("Provable bound for this configuration: no row can "
                "reach %.0f activations\n(paper: MOAT with ATH=64 "
                "safely tolerates a Rowhammer threshold of 99).\n",
                bound.safeTrh);
    return 0;
}
