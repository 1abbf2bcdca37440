/**
 * @file
 * Tests of the mitigator registry and the unified experiment API: spec
 * parsing (round-trip, unknown names/keys, malformed values), config
 * extraction, the SRAM single-source-of-truth, and a parameterized
 * sweep running every registered design through the sweep engine and
 * the generic attack driver.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <variant>
#include <vector>

#include "attacks/attack.hh"
#include "mitigation/registry.hh"
#include "sim/experiment.hh"
#include "sim/perf.hh"
#include "sim/sweep.hh"

namespace moatsim::mitigation
{
namespace
{

// ------------------------------------------------------------- parsing

TEST(Registry, KnowsTheRegisteredDesigns)
{
    for (const char *name :
         {"moat", "panopticon", "panopticon-counter", "ideal-prc", "null"})
        EXPECT_TRUE(Registry::known(name)) << name;
    EXPECT_FALSE(Registry::known("mithril"));

    const auto names = Registry::names();
    EXPECT_GE(names.size(), 4u);
    for (const auto &name : names) {
        EXPECT_TRUE(Registry::known(name));
        EXPECT_FALSE(Registry::descriptor(name).summary.empty());
    }
}

TEST(Registry, ParseDescribeRoundTrip)
{
    const char *cases[] = {
        "moat",
        "moat:ath=128,eth=64",
        "moat:period=0,safe-reset=false",
        "panopticon:threshold=256,entries=4,drain-all=true",
        "panopticon-counter:slack=128",
        "ideal-prc:period=8,min-count=2",
        "null",
    };
    for (const char *text : cases) {
        const MitigatorSpec first = Registry::parse(text);
        const MitigatorSpec second = Registry::parse(first.describe());
        EXPECT_EQ(first, second) << text;
        EXPECT_EQ(first.describe(), second.describe()) << text;
    }
}

TEST(Registry, DescribeIsCanonicalKeyOrder)
{
    // Keys are emitted in descriptor order regardless of input order.
    const auto a = Registry::parse("moat:eth=64,ath=128");
    const auto b = Registry::parse("moat:ath=128,eth=64");
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.describe(), "moat:ath=128,eth=64");
}

TEST(Registry, RejectsUnknownName)
{
    std::string error;
    EXPECT_FALSE(Registry::tryParse("mithril", &error).has_value());
    EXPECT_NE(error.find("unknown mitigator 'mithril'"), std::string::npos)
        << error;
    EXPECT_NE(error.find("moat"), std::string::npos) << error;

    EXPECT_FALSE(Registry::tryParse("", &error).has_value());
    EXPECT_FALSE(Registry::tryParse(":ath=64", &error).has_value());
}

TEST(Registry, RejectsUnknownKey)
{
    std::string error;
    EXPECT_FALSE(Registry::tryParse("moat:bogus=1", &error).has_value());
    EXPECT_NE(error.find("unknown key 'bogus'"), std::string::npos) << error;
    EXPECT_NE(error.find("ath"), std::string::npos) << error;

    // A key of another design is still unknown here.
    EXPECT_FALSE(Registry::tryParse("moat:threshold=128", &error).has_value());
    // "null" takes no parameters at all.
    EXPECT_FALSE(Registry::tryParse("null:ath=64", &error).has_value());
}

TEST(Registry, RejectsMalformedValues)
{
    std::string error;
    EXPECT_FALSE(Registry::tryParse("moat:ath=banana", &error).has_value());
    EXPECT_NE(error.find("'ath'"), std::string::npos) << error;
    EXPECT_NE(error.find("banana"), std::string::npos) << error;

    EXPECT_FALSE(
        Registry::tryParse("moat:safe-reset=maybe", &error).has_value());
    EXPECT_NE(error.find("true/false"), std::string::npos) << error;

    // 2^32 would wrap to 0 in the 32-bit config field; reject instead.
    EXPECT_FALSE(
        Registry::tryParse("moat:ath=4294967296", &error).has_value());
    EXPECT_NE(error.find("out of range"), std::string::npos) << error;
    EXPECT_TRUE(Registry::tryParse("moat:ath=4294967295").has_value());

    EXPECT_FALSE(Registry::tryParse("moat:ath", &error).has_value());
    EXPECT_FALSE(Registry::tryParse("moat:ath=", &error).has_value());
    EXPECT_FALSE(Registry::tryParse("moat:=64", &error).has_value());
    EXPECT_FALSE(Registry::tryParse("moat:ath=1,ath=2", &error).has_value());
    EXPECT_NE(error.find("duplicate"), std::string::npos) << error;
}

TEST(Registry, RejectsSpecsTheDesignCannotBuild)
{
    // Each design's one check (configError) runs at parse time, so no
    // parsed spec reaches the constructor's panic; the message names
    // the key.
    const std::pair<const char *, const char *> unbuildable[] = {
        {"panopticon:entries=0", "entries must be at least 1"},
        {"panopticon:threshold=0", "threshold must be at least 1"},
        {"panopticon-counter:slack=0", "slack must be at least 1"},
        {"panopticon-counter:entries=0", "entries must be at least 1"},
        {"moat:entries=0", "entries must be at least 1"},
        {"moat:ath=16", "eth (32) must not exceed ath (16)"},
        {"moat:ath=64,eth=65", "eth (65) must not exceed ath (64)"},
        {"ideal-prc:period=0", "period must be at least 1"}};
    for (const auto &[text, needle] : unbuildable) {
        std::string error;
        EXPECT_FALSE(Registry::tryParse(text, &error).has_value()) << text;
        EXPECT_NE(error.find(needle), std::string::npos) << error;
    }
    // Their edges build.
    for (const char *text :
         {"panopticon:entries=1,threshold=1", "panopticon-counter:slack=1",
          "moat:entries=1", "moat:ath=16,eth=16", "ideal-prc:period=1",
          "null"}) {
        const auto spec = Registry::tryParse(text);
        ASSERT_TRUE(spec.has_value()) << text;
        spec->factory();
    }
}

// --------------------------------------------------- config extraction

/** One design's parameters, read back through its config extraction. */
struct DesignParams
{
    /** Every key set to a value differing from its default. */
    std::string fullSpec;
    /** The values fullSpec sets, in descriptor order (bools as 0/1). */
    std::vector<uint64_t> values;
    /** The config fields of a spec, in descriptor order (bools 0/1). */
    std::vector<uint64_t> (*fields)(const MitigatorSpec &spec);
};

const DesignParams kDesignParams[] = {
    // The MOAT case is the text sim::mitigatorOfArgs emits for the
    // legacy --ath/--eth path.
    {"moat:ath=96,eth=24,entries=4,period=10,reset-on-refresh=false,"
     "safe-reset=false,blast=1",
     {96, 24, 4, 10, 0, 0, 1},
     [](const MitigatorSpec &s) -> std::vector<uint64_t> {
         const MoatConfig c = moatConfigOf(s);
         return {c.ath,           c.eth,
                 c.trackerEntries, c.mitigationPeriodRefis,
                 c.resetOnRefresh, c.safeReset,
                 c.blastRadius};
     }},
    {"panopticon:threshold=256,entries=4,drain-all=true,drain-per-ref=3,"
     "blast=1",
     {256, 4, 1, 3, 1},
     [](const MitigatorSpec &s) -> std::vector<uint64_t> {
         const PanopticonConfig c = panopticonConfigOf(s);
         return {c.queueThreshold, c.queueEntries, c.drainAllOnRef,
                 c.drainPerRef, c.blastRadius};
     }},
    {"panopticon-counter:threshold=64,entries=16,slack=32,blast=3",
     {64, 16, 32, 3},
     [](const MitigatorSpec &s) -> std::vector<uint64_t> {
         const PanopticonCounterConfig c = panopticonCounterConfigOf(s);
         return {c.queueThreshold, c.queueEntries, c.alertSlack,
                 c.blastRadius};
     }},
    {"ideal-prc:period=8,min-count=2,blast=1",
     {8, 2, 1},
     [](const MitigatorSpec &s) -> std::vector<uint64_t> {
         const IdealPrcConfig c = idealPrcConfigOf(s);
         return {c.mitigationPeriodRefis, c.minCount, c.blastRadius};
     }},
};

TEST(Registry, EveryParameterRoundTripsThroughItsConfig)
{
    for (const auto &d : kDesignParams) {
        const MitigatorSpec full = Registry::parse(d.fullSpec);
        const MitigatorDescriptor &desc = Registry::descriptor(full.name());
        const std::vector<uint64_t> defaults =
            d.fields(Registry::parse(full.name()));
        const std::vector<uint64_t> set = d.fields(full);
        ASSERT_EQ(desc.params.size(), d.values.size()) << d.fullSpec;
        ASSERT_EQ(defaults.size(), d.values.size()) << d.fullSpec;

        // (a) Every key reaches its own field, away from the default,
        // and the spec re-describes to the same text.
        EXPECT_EQ(set, d.values) << d.fullSpec;
        EXPECT_EQ(full.describe(), d.fullSpec);
        for (size_t i = 0; i < defaults.size(); ++i)
            EXPECT_NE(set[i], defaults[i])
                << d.fullSpec << " leaves '" << desc.params[i].key
                << "' at its default";

        // (b) The listed default of each key is the default config's.
        for (size_t i = 0; i < defaults.size(); ++i) {
            const ParamInfo &p = desc.params[i];
            const std::string text =
                p.type == ParamType::Bool
                    ? (defaults[i] != 0 ? "true" : "false")
                    : std::to_string(defaults[i]);
            EXPECT_EQ(p.defaultValue, text) << full.name() << " " << p.key;
        }
    }
}

TEST(Registry, MoatSpecOfConfigSpellsOutEveryParameter)
{
    MoatConfig cfg;
    cfg.ath = 96;
    cfg.eth = 24;
    cfg.trackerEntries = 4;
    cfg.mitigationPeriodRefis = 10;
    cfg.resetOnRefresh = false;
    cfg.safeReset = false;
    cfg.blastRadius = 1;
    const MitigatorSpec spec = Registry::specOf(cfg);
    EXPECT_EQ(spec.describe(), kDesignParams[0].fullSpec);
    EXPECT_EQ(spec, Registry::parse(spec.describe()));
    EXPECT_EQ(Registry::specOf(MoatConfig{}).describe(),
              "moat:ath=64,eth=32,entries=1,period=5,reset-on-refresh=true,"
              "safe-reset=true,blast=2");
}

TEST(Registry, WithMoatEntriesFillsOnlyAnUnsetMoatTracker)
{
    EXPECT_EQ(Registry::withMoatEntries(Registry::parse("moat"), 4)
                  .describe(),
              "moat:entries=4");
    // The entries key lands in canonical order among the given keys.
    EXPECT_EQ(Registry::withMoatEntries(
                  Registry::parse("moat:blast=1,ath=128"), 2)
                  .describe(),
              "moat:ath=128,entries=2,blast=1");
    // A pinned tracker and the other designs pass through.
    EXPECT_EQ(Registry::withMoatEntries(Registry::parse("moat:entries=2"), 4)
                  .describe(),
              "moat:entries=2");
    EXPECT_EQ(Registry::withMoatEntries(Registry::parse("panopticon"), 4)
                  .describe(),
              "panopticon");
}

TEST(Registry, ValuesAreStoredInCanonicalText)
{
    // One design, one text: leading zeros and 1/0 booleans are
    // rewritten, so both spellings key the same cell.
    const MitigatorSpec odd = Registry::parse("moat:ath=064,safe-reset=1");
    const MitigatorSpec canon =
        Registry::parse("moat:ath=64,safe-reset=true");
    EXPECT_EQ(odd.describe(), "moat:ath=64,safe-reset=true");
    EXPECT_EQ(odd, canon);
    EXPECT_EQ(Registry::parse("panopticon:drain-all=0").describe(),
              "panopticon:drain-all=false");

    const workload::TraceGenConfig config;
    const sim::CoreModel core;
    const auto &xz = workload::findWorkload("xz");
    EXPECT_EQ(sim::perfCellKey(config, core, xz, odd, abo::Level::L1),
              sim::perfCellKey(config, core, xz, canon, abo::Level::L1));
}

TEST(Registry, ExtractionAppliesOverridesAndDefaults)
{
    const auto pano =
        panopticonConfigOf(Registry::parse("panopticon:threshold=256"));
    EXPECT_EQ(pano.queueThreshold, 256u);
    EXPECT_EQ(pano.queueEntries, PanopticonConfig{}.queueEntries);

    const auto prc = idealPrcConfigOf(Registry::parse("ideal-prc:period=7"));
    EXPECT_EQ(prc.mitigationPeriodRefis, 7u);
}

TEST(Registry, FactoryYieldsTheNamedDesign)
{
    const auto name_of = [](const Mitigator &m) {
        return std::visit([](const auto &d) { return d.name(); }, m);
    };
    const auto sram_of = [](const Mitigator &m) {
        return std::visit([](const auto &d) { return d.sramBytesPerBank(); },
                          m);
    };
    // Every registered design builds a prototype of its own
    // alternative, whose SRAM cost is the spec's.
    for (const auto &name : Registry::names()) {
        const MitigatorSpec spec = Registry::parse(name);
        const Mitigator m = spec.factory();
        ASSERT_FALSE(m.valueless_by_exception()) << name;
        EXPECT_EQ(sram_of(m), spec.sramBytesPerBank()) << name;
    }
    EXPECT_TRUE(std::holds_alternative<MoatMitigator>(
        Registry::parse("moat").factory()));
    EXPECT_TRUE(std::holds_alternative<PanopticonMitigator>(
        Registry::parse("panopticon").factory()));
    EXPECT_TRUE(std::holds_alternative<PanopticonCounterMitigator>(
        Registry::parse("panopticon-counter").factory()));
    EXPECT_TRUE(std::holds_alternative<IdealPrcMitigator>(
        Registry::parse("ideal-prc").factory()));
    EXPECT_TRUE(std::holds_alternative<NullMitigator>(
        Registry::parse("null").factory()));

    EXPECT_EQ(name_of(Registry::parse("null").factory()), "none");
    EXPECT_NE(name_of(Registry::parse("moat:ath=128").factory()).find(
                  "ATH=128"),
              std::string::npos);
}

TEST(Registry, SramCostComesFromTheImplementation)
{
    // The registry's number is the mitigator's own Section-6.5 number.
    const MoatConfig def;
    EXPECT_EQ(Registry::parse("moat").sramBytesPerBank(),
              MoatMitigator(def).sramBytesPerBank());
    // MOAT-L2/L4 grow with the tracker, as in the paper (7/10/16 B).
    const auto l1 = Registry::parse("moat:entries=1").sramBytesPerBank();
    const auto l2 = Registry::parse("moat:entries=2").sramBytesPerBank();
    const auto l4 = Registry::parse("moat:entries=4").sramBytesPerBank();
    EXPECT_LT(l1, l2);
    EXPECT_LT(l2, l4);
    EXPECT_EQ(Registry::parse("null").sramBytesPerBank(), 0u);
}

// ------------------------------------ every design through the pipeline

class RegistryDesignTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(RegistryDesignTest, RunsThroughTheSweepEngine)
{
    sim::SweepConfig sc;
    sc.tracegen.banksSimulated = 8;
    sc.tracegen.windowFraction = 0.03125;
    sc.jobs = 1;
    sim::SweepEngine engine(sc);
    const auto spec = Registry::parse(GetParam());
    const auto r = engine.runCell(
        sim::SweepCell{workload::findWorkload("x264"), spec, abo::Level::L1});
    EXPECT_EQ(r.mitigator, spec.describe());
    EXPECT_GT(r.acts, 0u);
    EXPECT_GT(r.normPerf, 0.0);
    EXPECT_LE(r.normPerf, 1.001);
}

TEST_P(RegistryDesignTest, RunsThroughTheAttackDriver)
{
    attacks::AttackConfig cfg;
    cfg.pattern = "hammer";
    cfg.budget = 600;
    const auto r = attacks::runAttack(cfg, Registry::parse(GetParam()));
    EXPECT_EQ(r.totalActs, 600u);
    EXPECT_GT(r.maxHammer, 0u);
    EXPECT_GT(r.duration, 0);
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, RegistryDesignTest,
                         ::testing::Values("moat", "panopticon",
                                           "panopticon-counter", "ideal-prc",
                                           "null"),
                         [](const auto &info) {
                             std::string name = info.param;
                             std::replace(name.begin(), name.end(), '-', '_');
                             return name;
                         });

TEST(RegistryDesign, UnmitigatedHammerRunsHotterThanMoat)
{
    attacks::AttackConfig cfg;
    cfg.pattern = "hammer";
    cfg.budget = 2000;
    const auto none = attacks::runAttack(cfg, Registry::parse("null"));
    const auto moat = attacks::runAttack(cfg, Registry::parse("moat"));
    EXPECT_GT(none.maxHammer, moat.maxHammer);
    EXPECT_EQ(none.alerts, 0u);
    EXPECT_GT(moat.alerts, 0u);
}

// ------------------------------------------------------- Experiment API

TEST(Experiment, RunsTheConfiguredSelection)
{
    sim::ExperimentConfig ec;
    ec.tracegen.banksSimulated = 8;
    ec.tracegen.windowFraction = 0.03125;
    ec.workload = "x264";
    ec.mitigator = Registry::parse("panopticon");
    sim::Experiment exp(ec);

    const auto results = exp.run();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].workload, "x264");
    EXPECT_EQ(results[0].mitigator, "panopticon");

    // A sweep over another design reuses the same baseline cache.
    const auto swept =
        exp.runMatrix({{Registry::parse("moat:ath=128,eth=64"),
                        abo::Level::L1}});
    ASSERT_EQ(swept.size(), 1u);
    ASSERT_EQ(swept[0].size(), 1u);
    EXPECT_EQ(swept[0][0].mitigator, "moat:ath=128,eth=64");
}

} // namespace
} // namespace moatsim::mitigation
