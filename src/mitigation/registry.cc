#include "mitigation/registry.hh"

#include <algorithm>
#include <concepts>
#include <limits>
#include <type_traits>

#include "common/logging.hh"
#include "common/number_text.hh"

namespace moatsim::mitigation
{

namespace
{

/** "null" takes no parameters. */
struct NullConfig
{
};

constexpr const char *kBlastDoc =
    "victim rows refreshed on each side of an aggressor";

// Each design is listed once, in one params() list per config: its
// name and summary, then one line per parameter -- key, config member,
// doc. The parameter type follows the member (bool: Bool, else UInt);
// the order is the canonical order of describe(). Visitors walk the
// lists: Lister (the descriptor and the spec grammar's key table),
// Reader (spec -> config), Writer (config -> full spec) and KeyFinder
// (the key of one config member).

template <class V, class C>
    requires std::same_as<std::remove_const_t<C>, MoatConfig>
void
params(V &v, C &c)
{
    v.design("moat", "MOAT dual-threshold tracker (Section 4): proactive "
                     "mitigation above ETH, ALERT above ATH");
    v.param("ath", c.ath, "ALERT threshold");
    v.param("eth", c.eth, "eligibility threshold for proactive mitigation");
    v.param("entries", c.trackerEntries,
            "tracker entries (MOAT-L: equals the ABO level)");
    v.param("period", c.mitigationPeriodRefis,
            "mitigation period in tREFI (0 = ALERT-only)");
    v.param("reset-on-refresh", c.resetOnRefresh,
            "reset PRAC counters on auto-refresh (Section 4.3)");
    v.param("safe-reset", c.safeReset,
            "SRAM replicas for the last two refreshed rows");
    v.param("blast", c.blastRadius, kBlastDoc);
}

template <class V, class C>
    requires std::same_as<std::remove_const_t<C>, PanopticonConfig>
void
params(V &v, C &c)
{
    v.design("panopticon", "Panopticon address-only FIFO queue (Section "
                           "3); ALERT when an insertion finds the queue "
                           "full");
    v.param("threshold", c.queueThreshold,
            "queue insertion on crossing multiples of this count");
    v.param("entries", c.queueEntries, "FIFO entries per bank");
    v.param("drain-all", c.drainAllOnRef,
            "Appendix-B Drain-All-Entries-on-REF policy");
    v.param("drain-per-ref", c.drainPerRef,
            "aggressors a drain-all REF fully mitigates");
    v.param("blast", c.blastRadius, kBlastDoc);
}

template <class V, class C>
    requires std::same_as<std::remove_const_t<C>, PanopticonCounterConfig>
void
params(V &v, C &c)
{
    v.design("panopticon-counter", "Panopticon repaired per Section 9: "
                                   "queue entries carry counters, served "
                                   "max-first");
    v.param("threshold", c.queueThreshold,
            "queue insertion on crossing multiples of this count");
    v.param("entries", c.queueEntries, "queue entries per bank");
    v.param("slack", c.alertSlack,
            "in-queue activations tolerated before an ALERT");
    v.param("blast", c.blastRadius, kBlastDoc);
}

template <class V, class C>
    requires std::same_as<std::remove_const_t<C>, IdealPrcConfig>
void
params(V &v, C &c)
{
    v.design("ideal-prc", "idealized per-row-counter tracker without "
                          "ALERT (Section 2.5); mitigates the global "
                          "argmax");
    v.param("period", c.mitigationPeriodRefis,
            "one aggressor mitigated per this many tREFI");
    v.param("min-count", c.minCount, "ignore rows below this counter value");
    v.param("blast", c.blastRadius, kBlastDoc);
}

template <class V, class C>
    requires std::same_as<std::remove_const_t<C>, NullConfig>
void
params(V &v, C &)
{
    v.design("null", "PRAC counters with no mitigation logic; the "
                     "no-ALERT normalization baseline");
}

/** Canonical value text: decimal for integers, true/false for bools. */
template <class T>
std::string
valueText(T value)
{
    if constexpr (std::same_as<T, bool>)
        return value ? "true" : "false";
    else
        return std::to_string(value);
}

/**
 * Checks one spec value for a config member of type @p T and rewrites
 * it to valueText(): booleans accept true/false/1/0, integers are
 * decimal and must fit the member (rejected instead of wrapping).
 */
template <class T>
std::string
checkValue(const std::string &key, std::string &value)
{
    T parsed{};
    if constexpr (std::same_as<T, bool>) {
        if (value == "true" || value == "1")
            parsed = true;
        else if (value != "false" && value != "0")
            return "key '" + key + "' expects true/false, got '" + value +
                   "'";
    } else {
        uint64_t wide = 0;
        if (!parseDecimal(value, &wide))
            return "key '" + key + "' expects an unsigned integer, got '" +
                   value + "'";
        if (wide > std::numeric_limits<T>::max())
            return "key '" + key + "' value " + value +
                   " is out of range (max " +
                   valueText(std::numeric_limits<T>::max()) + ")";
        parsed = static_cast<T>(wide);
    }
    value = valueText(parsed);
    return "";
}

/** A registered design. */
struct Design
{
    MitigatorDescriptor desc;
    /** The spec grammar's key table: desc.params with value checks. */
    std::vector<SpecKey> keys;
    /** The prototype mitigator of a spec of this design. */
    Mitigator (*make)(const MitigatorSpec &) = nullptr;
    /** The config's configError(), if the design has one. */
    std::string (*check)(const MitigatorSpec &) = nullptr;
};

/** Lists a design from its params(): descriptor and key table. */
struct Lister
{
    Design &d;

    void design(const char *name, const char *summary)
    {
        d.desc.name = name;
        d.desc.summary = summary;
    }
    template <class T>
    void param(const char *key, const T &def, const char *doc)
    {
        d.desc.params.push_back(
            {key, std::same_as<T, bool> ? ParamType::Bool : ParamType::UInt,
             valueText(def), doc});
        d.keys.push_back({key, [key = std::string(key)](std::string &v) {
                              return checkValue<T>(key, v);
                          }});
    }
};

/** Reads a config from a spec: given parameters override defaults. */
struct Reader
{
    const MitigatorSpec &spec;

    void design(const char *name, const char *)
    {
        if (spec.name() != name)
            fatal("expected a spec of design '" + std::string(name) +
                  "', got '" + spec.describe() + "'");
    }
    template <class T>
    void param(const char *key, T &member, const char *)
    {
        if constexpr (std::same_as<T, bool>)
            member = spec.paramBool(key, member);
        else
            member = static_cast<T>(spec.paramUInt(key, member));
    }
};

/** Writes every parameter of a config as canonical spec items. */
struct Writer
{
    std::string name;
    std::vector<SpecParam> items;

    void design(const char *n, const char *) { name = n; }
    template <class T>
    void param(const char *key, const T &value, const char *)
    {
        items.emplace_back(key, valueText(value));
    }
};

/** Finds a config's design name and the key of one of its members. */
struct KeyFinder
{
    const void *member;
    std::string name;
    std::string key;

    void design(const char *n, const char *) { name = n; }
    template <class T>
    void param(const char *k, const T &value, const char *)
    {
        if (&value == member)
            key = k;
    }
};

template <class C>
C
configOf(const MitigatorSpec &spec)
{
    C cfg;
    Reader reader{spec};
    params(reader, cfg);
    return cfg;
}

template <class M, class C>
Design
makeDesign()
{
    Design d;
    Lister lister{d};
    const C def;
    params(lister, def);
    d.make = [](const MitigatorSpec &spec) -> Mitigator {
        if constexpr (std::is_constructible_v<M, C>)
            return M(configOf<C>(spec));
        else
            return M();
    };
    d.check = [](const MitigatorSpec &spec) -> std::string {
        if constexpr (requires(const C &c) { configError(c); })
            return configError(configOf<C>(spec));
        else
            return "";
    };
    return d;
}

/** The registered designs, in listing order. */
const std::vector<Design> &
designs()
{
    static const std::vector<Design> all = {
        makeDesign<MoatMitigator, MoatConfig>(),
        makeDesign<PanopticonMitigator, PanopticonConfig>(),
        makeDesign<PanopticonCounterMitigator, PanopticonCounterConfig>(),
        makeDesign<IdealPrcMitigator, IdealPrcConfig>(),
        makeDesign<NullMitigator, NullConfig>(),
    };
    return all;
}

const Design *
findDesign(const std::string &name)
{
    for (const auto &d : designs()) {
        if (d.desc.name == name)
            return &d;
    }
    return nullptr;
}

std::string
knownNamesText()
{
    return joinNames(designs(), [](const Design &d) { return d.desc.name; });
}

} // namespace

std::string
MitigatorSpec::describe() const
{
    return describeSpec(name_, params_);
}

bool
MitigatorSpec::hasParam(const std::string &key) const
{
    return findSpecParam(params_, key) != nullptr;
}

uint64_t
MitigatorSpec::paramUInt(const std::string &key, uint64_t def) const
{
    const std::string *v = findSpecParam(params_, key);
    uint64_t out = def;
    if (v != nullptr && !parseDecimal(*v, &out))
        panic("MitigatorSpec holds non-integer value '" + *v +
              "' for key '" + key + "'");
    return out;
}

bool
MitigatorSpec::paramBool(const std::string &key, bool def) const
{
    // Parsing stored the value as canonical true/false.
    const std::string *v = findSpecParam(params_, key);
    return v == nullptr ? def : *v == "true";
}

Mitigator
MitigatorSpec::factory() const
{
    const Design *d = findDesign(name_);
    if (d == nullptr)
        panic("MitigatorSpec holds unregistered design '" + name_ + "'");
    return d->make(*this);
}

uint32_t
MitigatorSpec::sramBytesPerBank() const
{
    return std::visit([](const auto &m) { return m.sramBytesPerBank(); },
                      factory());
}

MitigatorSpec
Registry::parse(const std::string &text)
{
    std::string error;
    auto spec = tryParse(text, &error);
    if (!spec)
        fatal(error);
    return *spec;
}

std::optional<MitigatorSpec>
Registry::tryParse(const std::string &text, std::string *error)
{
    const std::string name = specName(text);
    const Design *d = findDesign(name);
    if (d == nullptr) {
        const std::string what =
            name.empty() ? "empty mitigator name in '" + text + "'"
                         : "unknown mitigator '" + name + "'";
        return specError(error,
                         what + " (known: " + knownNamesText() + ")");
    }
    auto params = parseSpecParams(text, d->keys,
                                  "mitigator '" + name + "': ", error);
    if (!params)
        return std::nullopt;
    MitigatorSpec spec;
    spec.name_ = name;
    spec.params_ = std::move(*params);
    if (const std::string why = d->check(spec); !why.empty())
        return specError(error, "mitigator '" + name + "': " + why);
    return spec;
}

bool
Registry::known(const std::string &name)
{
    return findDesign(name) != nullptr;
}

std::vector<std::string>
Registry::names()
{
    std::vector<std::string> out;
    for (const auto &d : designs())
        out.push_back(d.desc.name);
    return out;
}

const MitigatorDescriptor &
Registry::descriptor(const std::string &name)
{
    const Design *d = findDesign(name);
    if (d == nullptr)
        fatal("unknown mitigator '" + name + "' (known: " +
              knownNamesText() + ")");
    return d->desc;
}

MitigatorSpec
Registry::specOf(const MoatConfig &cfg)
{
    Writer writer;
    params(writer, cfg);
    MitigatorSpec spec;
    spec.name_ = writer.name;
    spec.params_ = std::move(writer.items);
    return spec;
}

MitigatorSpec
Registry::withMoatEntries(const MitigatorSpec &spec, uint32_t entries)
{
    MoatConfig cfg;
    KeyFinder finder{&cfg.trackerEntries, "", ""};
    params(finder, cfg);
    if (spec.name() != finder.name || spec.hasParam(finder.key))
        return spec;
    cfg = moatConfigOf(spec);
    cfg.trackerEntries = entries;
    MitigatorSpec out = specOf(cfg);
    std::erase_if(out.params_, [&](const SpecParam &p) {
        return p.first != finder.key && !spec.hasParam(p.first);
    });
    return out;
}

MoatConfig
moatConfigOf(const MitigatorSpec &spec)
{
    return configOf<MoatConfig>(spec);
}

PanopticonConfig
panopticonConfigOf(const MitigatorSpec &spec)
{
    return configOf<PanopticonConfig>(spec);
}

PanopticonCounterConfig
panopticonCounterConfigOf(const MitigatorSpec &spec)
{
    return configOf<PanopticonCounterConfig>(spec);
}

IdealPrcConfig
idealPrcConfigOf(const MitigatorSpec &spec)
{
    return configOf<IdealPrcConfig>(spec);
}

} // namespace moatsim::mitigation
