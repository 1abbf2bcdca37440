/**
 * @file
 * Red-team lab: run the paper's attack suite against each in-DRAM
 * mitigation and report who survives.
 *
 * Scenario: you are evaluating a DRAM part whose datasheet claims a
 * Rowhammer threshold of 500. Which mitigation actually holds?
 */

#include <cstdio>

#include "analysis/ratchet_model.hh"
#include "attacks/attack.hh"
#include "mitigation/registry.hh"

using namespace moatsim;

namespace
{

void
verdict(const char *design, const char *attack, uint32_t max_acts,
        uint32_t claimed_trh)
{
    std::printf("  %-28s vs %-22s max ACTs = %5u  -> %s\n", design,
                attack, max_acts,
                max_acts >= claimed_trh ? "BIT-FLIPS (broken)"
                                        : "holds");
}

} // namespace

int
main()
{
    const uint32_t claimed_trh = 500;
    std::printf("Attack lab: device claims to tolerate TRH = %u\n\n",
                claimed_trh);

    dram::TimingParams timing;

    // Each run is the same call shape: a pattern name plus a registered
    // mitigator spec -- the registry makes every defence addressable.
    const struct
    {
        const char *design;
        const char *spec;
        const char *pattern;
    } plan[] = {
        // 1. Panopticon (threshold 128, 8-entry queue) vs Jailbreak.
        {"Panopticon (gradual)", "panopticon", "jailbreak"},
        // 2. Drain-all Panopticon vs refresh postponement.
        {"Panopticon (drain-all)", "panopticon:drain-all=true",
         "postponement"},
        // 3. The Section-9 repaired queue. The tuned jailbreak driver
        //    targets the original address-only design, so the repaired
        //    queue is probed with the generic round-robin pattern.
        {"Panopticon+counters", "panopticon-counter", "round-robin"},
        // 4. The transparent per-row-counter ideal vs feinting.
        {"IdealPRC (no ALERT)", "ideal-prc", "feinting"},
        // 5. MOAT (ATH 64) vs the Ratchet attack -- the strongest
        //    pattern the PRAC+ABO framework admits.
        {"MOAT-L1 (ETH 32, ATH 64)", "moat", "ratchet"},
    };
    for (const auto &p : plan) {
        attacks::AttackConfig cfg;
        cfg.timing = timing;
        cfg.pattern = p.pattern;
        // The postponement alignment sweep, kept small; the other
        // drivers read no trials.
        cfg.trials = p.pattern == std::string("postponement") ? 128 : 0;
        const auto r =
            attacks::runAttack(cfg, mitigation::Registry::parse(p.spec));
        verdict(p.design, p.pattern, r.maxHammer, claimed_trh);
    }

    std::printf("\nMOAT's guarantee is analytic, not just empirical: "
                "the Appendix-A bound for ATH 64 is %.0f ACTs, so any "
                "device with TRH above that is safe.\n",
                analysis::ratchetBound(timing, 64, 1).safeTrh);
    std::printf("Rule of thumb from the paper: pick the largest ATH "
                "whose bound stays below your chips' TRH; ATH 64 covers "
                "TRH >= 99, ATH 128 covers TRH >= 161.\n");
    return 0;
}
