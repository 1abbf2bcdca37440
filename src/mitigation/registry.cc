#include "mitigation/registry.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"
#include "common/number_text.hh"

namespace moatsim::mitigation
{

namespace
{

std::string
boolText(bool v)
{
    return v ? "true" : "false";
}

/** Lenient boolean parse: true/false/1/0. */
bool
parseBool(const std::string &text, bool &out)
{
    if (text == "true" || text == "1") {
        out = true;
        return true;
    }
    if (text == "false" || text == "0") {
        out = false;
        return true;
    }
    return false;
}

std::vector<MitigatorDescriptor>
buildDescriptors()
{
    std::vector<MitigatorDescriptor> d;

    {
        const MoatConfig def;
        MitigatorDescriptor moat;
        moat.name = "moat";
        moat.summary = "MOAT dual-threshold tracker (Section 4): proactive "
                       "mitigation above ETH, ALERT above ATH";
        moat.params = {
            {"ath", ParamType::UInt, std::to_string(def.ath),
             "ALERT threshold"},
            {"eth", ParamType::UInt, std::to_string(def.eth),
             "eligibility threshold for proactive mitigation"},
            {"entries", ParamType::UInt, std::to_string(def.trackerEntries),
             "tracker entries (MOAT-L: equals the ABO level)"},
            {"period", ParamType::UInt,
             std::to_string(def.mitigationPeriodRefis),
             "mitigation period in tREFI (0 = ALERT-only)"},
            {"reset-on-refresh", ParamType::Bool,
             boolText(def.resetOnRefresh),
             "reset PRAC counters on auto-refresh (Section 4.3)"},
            {"safe-reset", ParamType::Bool, boolText(def.safeReset),
             "SRAM replicas for the last two refreshed rows"},
            {"blast", ParamType::UInt, std::to_string(def.blastRadius),
             "victim rows refreshed on each side of an aggressor"},
        };
        d.push_back(std::move(moat));
    }

    {
        const PanopticonConfig def;
        MitigatorDescriptor pano;
        pano.name = "panopticon";
        pano.summary = "Panopticon address-only FIFO queue (Section 3); "
                       "ALERT when an insertion finds the queue full";
        pano.params = {
            {"threshold", ParamType::UInt, std::to_string(def.queueThreshold),
             "queue insertion on crossing multiples of this count"},
            {"entries", ParamType::UInt, std::to_string(def.queueEntries),
             "FIFO entries per bank"},
            {"drain-all", ParamType::Bool, boolText(def.drainAllOnRef),
             "Appendix-B Drain-All-Entries-on-REF policy"},
            {"drain-per-ref", ParamType::UInt,
             std::to_string(def.drainPerRef),
             "aggressors a drain-all REF fully mitigates"},
            {"blast", ParamType::UInt, std::to_string(def.blastRadius),
             "victim rows refreshed on each side of an aggressor"},
        };
        d.push_back(std::move(pano));
    }

    {
        const PanopticonCounterConfig def;
        MitigatorDescriptor repaired;
        repaired.name = "panopticon-counter";
        repaired.summary = "Panopticon repaired per Section 9: queue entries "
                           "carry counters, served max-first";
        repaired.params = {
            {"threshold", ParamType::UInt, std::to_string(def.queueThreshold),
             "queue insertion on crossing multiples of this count"},
            {"entries", ParamType::UInt, std::to_string(def.queueEntries),
             "queue entries per bank"},
            {"slack", ParamType::UInt, std::to_string(def.alertSlack),
             "in-queue activations tolerated before an ALERT"},
            {"blast", ParamType::UInt, std::to_string(def.blastRadius),
             "victim rows refreshed on each side of an aggressor"},
        };
        d.push_back(std::move(repaired));
    }

    {
        const IdealPrcConfig def;
        MitigatorDescriptor prc;
        prc.name = "ideal-prc";
        prc.summary = "idealized per-row-counter tracker without ALERT "
                      "(Section 2.5); mitigates the global argmax";
        prc.params = {
            {"period", ParamType::UInt,
             std::to_string(def.mitigationPeriodRefis),
             "one aggressor mitigated per this many tREFI"},
            {"min-count", ParamType::UInt, std::to_string(def.minCount),
             "ignore rows below this counter value"},
            {"blast", ParamType::UInt, std::to_string(def.blastRadius),
             "victim rows refreshed on each side of an aggressor"},
        };
        d.push_back(std::move(prc));
    }

    {
        MitigatorDescriptor none;
        none.name = "null";
        none.summary = "PRAC counters with no mitigation logic; the "
                       "no-ALERT normalization baseline";
        none.params = {};
        d.push_back(std::move(none));
    }

    return d;
}

const std::vector<MitigatorDescriptor> &
descriptors()
{
    static const std::vector<MitigatorDescriptor> all = buildDescriptors();
    return all;
}

const MitigatorDescriptor *
findDescriptor(const std::string &name)
{
    for (const auto &d : descriptors()) {
        if (d.name == name)
            return &d;
    }
    return nullptr;
}

const ParamInfo *
findParam(const MitigatorDescriptor &desc, const std::string &key)
{
    for (const auto &p : desc.params) {
        if (p.key == key)
            return &p;
    }
    return nullptr;
}

std::string
knownNamesText()
{
    std::string out;
    for (const auto &d : descriptors()) {
        if (!out.empty())
            out += ", ";
        out += d.name;
    }
    return out;
}

std::string
knownKeysText(const MitigatorDescriptor &desc)
{
    if (desc.params.empty())
        return "(none)";
    std::string out;
    for (const auto &p : desc.params) {
        if (!out.empty())
            out += ", ";
        out += p.key;
    }
    return out;
}

} // namespace

std::string
MitigatorSpec::describe() const
{
    std::string out = name_;
    bool first = true;
    for (const auto &[k, v] : params_) {
        out += first ? ":" : ",";
        out += k + "=" + v;
        first = false;
    }
    return out;
}

bool
MitigatorSpec::hasParam(const std::string &key) const
{
    return std::any_of(params_.begin(), params_.end(),
                       [&](const auto &kv) { return kv.first == key; });
}

uint64_t
MitigatorSpec::paramUInt(const std::string &key, uint64_t def) const
{
    for (const auto &[k, v] : params_) {
        if (k == key) {
            uint64_t out = 0;
            if (!parseDecimal(v, &out))
                panic("MitigatorSpec holds non-integer value '" + v +
                      "' for key '" + key + "'");
            return out;
        }
    }
    return def;
}

bool
MitigatorSpec::paramBool(const std::string &key, bool def) const
{
    for (const auto &[k, v] : params_) {
        if (k == key) {
            bool out = false;
            if (!parseBool(v, out))
                panic("MitigatorSpec holds non-boolean value '" + v +
                      "' for key '" + key + "'");
            return out;
        }
    }
    return def;
}

Mitigator
MitigatorSpec::factory() const
{
    if (name_ == "moat")
        return MoatMitigator(moatConfigOf(*this));
    if (name_ == "panopticon")
        return PanopticonMitigator(panopticonConfigOf(*this));
    if (name_ == "panopticon-counter")
        return PanopticonCounterMitigator(panopticonCounterConfigOf(*this));
    if (name_ == "ideal-prc")
        return IdealPrcMitigator(idealPrcConfigOf(*this));
    if (name_ == "null")
        return NullMitigator();
    panic("MitigatorSpec holds unregistered design '" + name_ + "'");
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
    const auto fail =
        [&](const std::string &msg) -> std::optional<MitigatorSpec> {
        if (error != nullptr)
            *error = msg;
        return std::nullopt;
    };

    const size_t colon = text.find(':');
    const std::string name = text.substr(0, colon);
    if (name.empty())
        return fail("empty mitigator name in '" + text + "' (known: " +
                    knownNamesText() + ")");

    const MitigatorDescriptor *desc = findDescriptor(name);
    if (desc == nullptr)
        return fail("unknown mitigator '" + name + "' (known: " +
                    knownNamesText() + ")");

    MitigatorSpec spec;
    spec.name_ = name;
    spec.params_.clear();
    if (colon == std::string::npos)
        return spec;

    // Split the "k=v,k=v" tail and validate each pair.
    std::vector<std::pair<std::string, std::string>> given;
    const std::string tail = text.substr(colon + 1);
    size_t pos = 0;
    while (pos <= tail.size()) {
        size_t comma = tail.find(',', pos);
        if (comma == std::string::npos)
            comma = tail.size();
        const std::string item = tail.substr(pos, comma - pos);
        pos = comma + 1;

        const size_t eq = item.find('=');
        if (item.empty() || eq == std::string::npos || eq == 0 ||
            eq + 1 == item.size()) {
            return fail("mitigator '" + name + "': malformed parameter '" +
                        item + "' (expected key=value)");
        }
        const std::string key = item.substr(0, eq);
        const std::string value = item.substr(eq + 1);

        const ParamInfo *info = findParam(*desc, key);
        if (info == nullptr)
            return fail("mitigator '" + name + "': unknown key '" + key +
                        "' (known keys: " + knownKeysText(*desc) + ")");
        for (const auto &[k, v] : given) {
            if (k == key)
                return fail("mitigator '" + name + "': duplicate key '" +
                            key + "'");
        }
        if (info->type == ParamType::UInt) {
            uint64_t parsed = 0;
            if (!parseDecimal(value, &parsed))
                return fail("mitigator '" + name + "': key '" + key +
                            "' expects an unsigned integer, got '" + value +
                            "'");
            // Every config field is 32-bit; reject instead of wrapping.
            if (parsed > std::numeric_limits<uint32_t>::max())
                return fail("mitigator '" + name + "': key '" + key +
                            "' value " + value + " is out of range (max " +
                            std::to_string(
                                std::numeric_limits<uint32_t>::max()) +
                            ")");
        } else {
            bool parsed = false;
            if (!parseBool(value, parsed))
                return fail("mitigator '" + name + "': key '" + key +
                            "' expects true/false, got '" + value + "'");
        }
        given.emplace_back(key, value);
    }

    // Canonical order: the descriptor's parameter order.
    for (const auto &p : desc->params) {
        for (const auto &[k, v] : given) {
            if (k == p.key)
                spec.params_.emplace_back(k, v);
        }
    }
    return spec;
}

bool
Registry::known(const std::string &name)
{
    return findDescriptor(name) != nullptr;
}

std::vector<std::string>
Registry::names()
{
    std::vector<std::string> out;
    for (const auto &d : descriptors())
        out.push_back(d.name);
    return out;
}

const MitigatorDescriptor &
Registry::descriptor(const std::string &name)
{
    const MitigatorDescriptor *desc = findDescriptor(name);
    if (desc == nullptr)
        fatal("unknown mitigator '" + name + "' (known: " +
              knownNamesText() + ")");
    return *desc;
}

MoatConfig
moatConfigOf(const MitigatorSpec &spec)
{
    if (spec.name() != "moat")
        fatal("expected a 'moat' spec, got '" + spec.describe() + "'");
    MoatConfig cfg;
    cfg.ath = static_cast<ActCount>(spec.paramUInt("ath", cfg.ath));
    cfg.eth = static_cast<ActCount>(spec.paramUInt("eth", cfg.eth));
    cfg.trackerEntries =
        static_cast<uint32_t>(spec.paramUInt("entries", cfg.trackerEntries));
    cfg.mitigationPeriodRefis = static_cast<uint32_t>(
        spec.paramUInt("period", cfg.mitigationPeriodRefis));
    cfg.resetOnRefresh =
        spec.paramBool("reset-on-refresh", cfg.resetOnRefresh);
    cfg.safeReset = spec.paramBool("safe-reset", cfg.safeReset);
    cfg.blastRadius =
        static_cast<uint32_t>(spec.paramUInt("blast", cfg.blastRadius));
    return cfg;
}

PanopticonConfig
panopticonConfigOf(const MitigatorSpec &spec)
{
    if (spec.name() != "panopticon")
        fatal("expected a 'panopticon' spec, got '" + spec.describe() + "'");
    PanopticonConfig cfg;
    cfg.queueThreshold =
        static_cast<ActCount>(spec.paramUInt("threshold", cfg.queueThreshold));
    cfg.queueEntries =
        static_cast<uint32_t>(spec.paramUInt("entries", cfg.queueEntries));
    cfg.drainAllOnRef = spec.paramBool("drain-all", cfg.drainAllOnRef);
    cfg.drainPerRef = static_cast<uint32_t>(
        spec.paramUInt("drain-per-ref", cfg.drainPerRef));
    cfg.blastRadius =
        static_cast<uint32_t>(spec.paramUInt("blast", cfg.blastRadius));
    return cfg;
}

PanopticonCounterConfig
panopticonCounterConfigOf(const MitigatorSpec &spec)
{
    if (spec.name() != "panopticon-counter")
        fatal("expected a 'panopticon-counter' spec, got '" +
              spec.describe() + "'");
    PanopticonCounterConfig cfg;
    cfg.queueThreshold =
        static_cast<ActCount>(spec.paramUInt("threshold", cfg.queueThreshold));
    cfg.queueEntries =
        static_cast<uint32_t>(spec.paramUInt("entries", cfg.queueEntries));
    cfg.alertSlack =
        static_cast<ActCount>(spec.paramUInt("slack", cfg.alertSlack));
    cfg.blastRadius =
        static_cast<uint32_t>(spec.paramUInt("blast", cfg.blastRadius));
    return cfg;
}

IdealPrcConfig
idealPrcConfigOf(const MitigatorSpec &spec)
{
    if (spec.name() != "ideal-prc")
        fatal("expected an 'ideal-prc' spec, got '" + spec.describe() + "'");
    IdealPrcConfig cfg;
    cfg.mitigationPeriodRefis = static_cast<uint32_t>(
        spec.paramUInt("period", cfg.mitigationPeriodRefis));
    cfg.minCount =
        static_cast<ActCount>(spec.paramUInt("min-count", cfg.minCount));
    cfg.blastRadius =
        static_cast<uint32_t>(spec.paramUInt("blast", cfg.blastRadius));
    return cfg;
}

} // namespace moatsim::mitigation
