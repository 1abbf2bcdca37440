/**
 * @file
 * String-keyed mitigator registry and the MitigatorSpec experiment API.
 *
 * The paper's claims are comparative -- MOAT vs. Panopticon vs. an
 * idealized per-row-counter design on the same PRAC+ABO substrate --
 * so the experiment layer must be able to name any design, not just
 * MOAT. Every design registers a Descriptor (name, summary, typed
 * key=value parameters); callers select one with a compact text form
 *
 *     name[:key=value,...]        e.g.  "moat:ath=128,eth=64"
 *
 * in the one spec grammar of common/spec_text.hh, which parses into a
 * MitigatorSpec: a validated, canonical, round-trippable (parse ->
 * describe -> parse) selection whose factory() builds the prototype
 * Mitigator a SubChannel copies into every bank. Values are canonical
 * too: an integer is stored as the decimal text of its number and a
 * boolean as true/false, so "moat:ath=064,safe-reset=1" describes as
 * "moat:ath=64,safe-reset=true". Each design lists its parameters once
 * (registry.cc), and that list is the single source of truth for
 * parameter names, defaults, config extraction and `moatsim
 * list-mitigators`; the Section-6.5 SRAM cost comes from the design's
 * own implementation.
 *
 * Registered designs: "moat", "panopticon", "panopticon-counter",
 * "ideal-prc", "null". They are a closed set: Mitigator is a
 * std::variant over exactly these five, held by value.
 */

#ifndef MOATSIM_MITIGATION_REGISTRY_HH
#define MOATSIM_MITIGATION_REGISTRY_HH

#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/spec_text.hh"
#include "mitigation/ideal_prc.hh"
#include "mitigation/mitigator.hh"
#include "mitigation/moat.hh"
#include "mitigation/null.hh"
#include "mitigation/panopticon.hh"
#include "mitigation/panopticon_counter.hh"

namespace moatsim::mitigation
{

/**
 * One bank's mitigator: a value of one of the registry's five designs
 * (each satisfies MitigatorDesign). The SubChannel dispatches every
 * hook through one std::visit, and copying a Mitigator snapshots the
 * design's whole state.
 */
using Mitigator =
    std::variant<MoatMitigator, PanopticonMitigator,
                 PanopticonCounterMitigator, IdealPrcMitigator,
                 NullMitigator>;

/** Value type of one descriptor parameter. */
enum class ParamType
{
    UInt,
    Bool,
};

/** One typed key=value parameter of a registered design. */
struct ParamInfo
{
    /** Key as written on the command line (e.g. "ath"). */
    std::string key;
    ParamType type = ParamType::UInt;
    /** Canonical text of the default value (from the config struct). */
    std::string defaultValue;
    /** One-line description for list-mitigators. */
    std::string doc;
};

/**
 * A validated mitigator selection: a registered design name plus the
 * explicitly-overridden parameters. Obtain one from Registry::parse()
 * (or default-construct for the paper's default MOAT) and hand it to
 * SweepEngine, Experiment, or runAttack; factory() builds the
 * mitigator the SubChannel constructor takes.
 *
 * describe() is a key input (cellSeed, perfCellKey, the co-attack
 * baseline key and every result line fold the canonical spec text), so
 * every member below must reach it -- keylint checks it on every build.
 */
// moatlint: key-source(MitigatorSpec::describe)
class MitigatorSpec
{
  public:
    /** The paper's default design: "moat" with default parameters. */
    MitigatorSpec() = default;

    /** Registered design name. */
    const std::string &name() const { return name_; }

    /** Canonical re-parseable text form: name[:k=v,...]. */
    std::string describe() const;

    /** Whether @p key was explicitly set. */
    bool hasParam(const std::string &key) const;

    /** Integer parameter value, or @p def when not explicitly set. */
    uint64_t paramUInt(const std::string &key, uint64_t def) const;

    /** Boolean parameter value, or @p def when not explicitly set. */
    bool paramBool(const std::string &key, bool def) const;

    /**
     * The prototype mitigator of this design at these parameters; a
     * SubChannel copies it into every bank.
     */
    Mitigator factory() const;

    /**
     * SRAM cost in bytes per bank (Section 6.5) of this design at
     * these parameters, taken from the design's own implementation so
     * benches and list-mitigators never duplicate the constants.
     */
    uint32_t sramBytesPerBank() const;

    bool operator==(const MitigatorSpec &other) const
    {
        return name_ == other.name_ && params_ == other.params_;
    }

  private:
    friend class Registry;

    std::string name_ = "moat";
    /** Explicit overrides, in the descriptor's parameter order. */
    std::vector<SpecParam> params_;
};

/** Registration record of one mitigator design. */
struct MitigatorDescriptor
{
    std::string name;
    /** One-line summary for list-mitigators. */
    std::string summary;
    /** Accepted parameters with defaults. */
    std::vector<ParamInfo> params;
};

/** The static registry of mitigator designs. */
class Registry
{
  public:
    /**
     * Parse "name[:key=value,...]" into a validated spec; calls
     * fatal() with a message naming the offending token on error.
     */
    static MitigatorSpec parse(const std::string &text);

    /**
     * Parse without terminating: returns std::nullopt on error and,
     * when @p error is non-null, stores the diagnostic there. A spec
     * the design cannot be built at (its configError(), e.g.
     * "panopticon:entries=0" or an eth above ath) is an error too.
     */
    static std::optional<MitigatorSpec>
    tryParse(const std::string &text, std::string *error = nullptr);

    /** Whether @p name is a registered design. */
    static bool known(const std::string &name);

    /** All registered design names, in registration order. */
    static std::vector<std::string> names();

    /** Descriptor of a registered design; fatal() when unknown. */
    static const MitigatorDescriptor &descriptor(const std::string &name);

    /**
     * The MOAT spec of @p cfg with every parameter explicit, so its
     * text -- and every key built from it -- is the same however the
     * config was assembled.
     */
    static MitigatorSpec specOf(const MoatConfig &cfg);

    /**
     * @p spec with the MOAT tracker sized to @p entries (MOAT-L: the
     * ABO level) when it is a MOAT spec that leaves the tracker entries
     * unset; any other spec comes back unchanged.
     */
    static MitigatorSpec withMoatEntries(const MitigatorSpec &spec,
                                         uint32_t entries);
};

/**
 * Config extraction: rebuild the typed config struct a spec denotes.
 * Single parsing point shared by factory() and the attack drivers
 * (which genuinely consume typed configs). Each fatal()s when the
 * spec names a different design. Code *constructing* a request goes
 * the other way -- Registry::parse() of spec text, or
 * Registry::specOf() of a MoatConfig -- so MitigatorSpec stays the one
 * request type (see sim::RunRequest).
 */
MoatConfig moatConfigOf(const MitigatorSpec &spec);
PanopticonConfig panopticonConfigOf(const MitigatorSpec &spec);
PanopticonCounterConfig panopticonCounterConfigOf(const MitigatorSpec &spec);
IdealPrcConfig idealPrcConfigOf(const MitigatorSpec &spec);

} // namespace moatsim::mitigation

#endif // MOATSIM_MITIGATION_REGISTRY_HH
