#include "dram/device.hh"

#include "common/logging.hh"

namespace moatsim::dram
{

namespace
{

/**
 * Organization presets (the ramulator org_map). Capacities assume 8 KB
 * rows: capacity = rows x banks x sub-channels x ranks x channels x
 * 8 KB. Every DDR5 channel has 2 sub-channels; grades vary rows per
 * bank (per-die density) and the rank/channel population. The first
 * preset is the default org.
 */
std::vector<DeviceOrg>
buildOrgs()
{
    // Every grade keeps the Table-3 bank array (8 bank groups x 4
    // banks) and DDR5's 2 sub-channels per channel.
    const auto org = [](const char *name, const char *summary,
                        uint32_t rows, uint32_t ranks, uint32_t channels) {
        DeviceOrg o;
        o.name = name;
        o.summary = summary;
        o.rowsPerBank = rows;
        o.banksPerGroup = 4;
        o.bankGroups = 8;
        o.ranks = ranks;
        o.channels = channels;
        o.subchannelsPerChannel = kTable3SubchannelsPerChannel;
        return o;
    };
    return {
        org("32gb",
            "Table-3 baseline: 64K rows, 8 bank groups x 4 banks, 1 rank, "
            "1 channel (32 GB)",
            kTable3RowsPerBank, 1, 1),
        org("8gb", "low-density die: 16K rows per bank (8 GB)",
            kTable3RowsPerBank / 4, 1, 1),
        org("16gb", "mid-density die: 32K rows per bank (16 GB)",
            kTable3RowsPerBank / 2, 1, 1),
        org("64gb-2r", "dual-rank DIMM: Table-3 die x 2 ranks (64 GB)",
            kTable3RowsPerBank, 2, 1),
        org("64gb-2ch",
            "dual-channel system: Table-3 DIMM x 2 channels (64 GB)",
            kTable3RowsPerBank, 1, 2),
        org("128gb-2r2ch",
            "dual-rank, dual-channel: Table-3 die x 2 ranks x 2 channels "
            "(128 GB)",
            kTable3RowsPerBank, 2, 2),
    };
}

/**
 * Speed grades (the ramulator speed_map). "ddr5-prac" is Table 1 of
 * the paper (revised DDR5 with PRAC) and must stay byte-equal to the
 * TimingParams defaults; the fast/slow bins bracket it, with the PRAC
 * counter read-modify-write (pracIncrement = tPRE - tACT) scaling with
 * the core timings per JEDEC's per-bin tPRE. The first grade is the
 * default speed.
 */
std::vector<DeviceSpeed>
buildSpeeds()
{
    std::vector<DeviceSpeed> speeds;

    {
        const TimingParams def;
        DeviceSpeed s;
        s.name = "ddr5-prac";
        s.summary = "Table-1 revised DDR5 with PRAC (tRC 52 ns, "
                    "tPRE 36 ns incl. counter update)";
        s.tACT = def.tACT;
        s.tPRE = def.tPRE;
        s.tRAS = def.tRAS;
        s.tRC = def.tRC;
        s.tREFW = def.tREFW;
        s.tREFI = def.tREFI;
        s.tRFC = def.tRFC;
        s.tRRD = def.tRRD;
        s.tFAW = def.tFAW;
        s.tRFM = def.tRFM;
        s.tAlertNormal = def.tAlertNormal;
        s.pracIncrement = def.tPRE - def.tACT;
        speeds.push_back(std::move(s));
    }
    {
        DeviceSpeed s;
        s.name = "ddr5-prac-fast";
        s.summary = "fast bin: tRC 44 ns, tRFC 350 ns, tighter ABO "
                    "recovery";
        s.tACT = fromNs(10);
        s.tPRE = fromNs(30);
        s.tRAS = fromNs(14);
        s.tRC = fromNs(44);
        s.tREFW = fromNs(32'000'000);
        s.tREFI = fromNs(3900);
        s.tRFC = fromNs(350);
        s.tRRD = fromNs(2);
        s.tFAW = fromNs(10);
        s.tRFM = fromNs(300);
        s.tAlertNormal = fromNs(160);
        s.pracIncrement = s.tPRE - s.tACT;
        speeds.push_back(std::move(s));
    }
    {
        DeviceSpeed s;
        s.name = "ddr5-prac-slow";
        s.summary = "slow bin: tRC 60 ns, tRFC 450 ns, wider ABO "
                    "recovery";
        s.tACT = fromNs(14);
        s.tPRE = fromNs(40);
        s.tRAS = fromNs(18);
        s.tRC = fromNs(60);
        s.tREFW = fromNs(32'000'000);
        s.tREFI = fromNs(3900);
        s.tRFC = fromNs(450);
        s.tRRD = fromNs(4);
        s.tFAW = fromNs(14);
        s.tRFM = fromNs(400);
        s.tAlertNormal = fromNs(200);
        s.pracIncrement = s.tPRE - s.tACT;
        speeds.push_back(std::move(s));
    }

    return speeds;
}

/** The preset of @p presets named @p name, or nullptr. */
template <class Presets>
const typename Presets::value_type *
findPreset(const Presets &presets, const std::string &name)
{
    for (const auto &p : presets) {
        if (p.name == name)
            return &p;
    }
    return nullptr;
}

/** The spec key @p key whose value names one of @p presets. */
template <class Presets>
SpecKey
presetKey(const std::string &key, const Presets &presets)
{
    return {key, [key, &presets](const std::string &value) -> std::string {
                if (findPreset(presets, value) != nullptr)
                    return "";
                return "unknown " + key + " '" + value + "' (known: " +
                       joinNames(presets, &Presets::value_type::name) + ")";
            }};
}

/** The device spec's keys, in canonical order. */
const std::vector<SpecKey> &
deviceKeys()
{
    static const std::vector<SpecKey> keys = {
        presetKey("org", deviceOrgs()),
        presetKey("speed", deviceSpeeds()),
    };
    return keys;
}

} // namespace

const std::vector<DeviceOrg> &
deviceOrgs()
{
    static const std::vector<DeviceOrg> orgs = buildOrgs();
    return orgs;
}

const std::vector<DeviceSpeed> &
deviceSpeeds()
{
    static const std::vector<DeviceSpeed> speeds = buildSpeeds();
    return speeds;
}

std::string
defaultDeviceOrg()
{
    return deviceOrgs().front().name;
}

std::string
defaultDeviceSpeed()
{
    return deviceSpeeds().front().name;
}

DeviceSpec
DeviceSpec::parse(const std::string &text)
{
    std::string error;
    auto spec = tryParse(text, &error);
    if (!spec)
        fatal(error);
    return *spec;
}

std::optional<DeviceSpec>
DeviceSpec::tryParse(const std::string &text, std::string *error)
{
    const std::string name = specName(text);
    if (name != "device") {
        const std::string what =
            name.empty() ? "empty device name in '" + text + "'"
                         : "unknown device spec '" + name + "'";
        return specError(error,
                         what + " (expected device:org=...,speed=...)");
    }
    auto params = parseSpecParams(text, deviceKeys(), "device: ", error);
    if (!params)
        return std::nullopt;
    DeviceSpec spec;
    spec.params_ = std::move(*params);
    return spec;
}

std::string
DeviceSpec::describe() const
{
    return describeSpec("device", params_);
}

const std::string &
DeviceSpec::org() const
{
    const std::string *org = findSpecParam(params_, "org");
    return org != nullptr ? *org : deviceOrgs().front().name;
}

const std::string &
DeviceSpec::speed() const
{
    const std::string *speed = findSpecParam(params_, "speed");
    return speed != nullptr ? *speed : deviceSpeeds().front().name;
}

bool
DeviceSpec::isDefault() const
{
    return org() == defaultDeviceOrg() && speed() == defaultDeviceSpeed();
}

DeviceModel
DeviceSpec::resolve() const
{
    const DeviceOrg *o = findPreset(deviceOrgs(), org());
    const DeviceSpeed *s = findPreset(deviceSpeeds(), speed());
    if (o == nullptr || s == nullptr)
        panic("DeviceSpec holds an unknown preset: " + describe());
    return DeviceModel(*this, *o, *s);
}

DeviceModel::DeviceModel()
    : DeviceModel(DeviceSpec{}.resolve())
{
}

DeviceModel::DeviceModel(const DeviceSpec &spec, const DeviceOrg &org,
                         const DeviceSpeed &speed)
    : spec_(spec), org_(org), speed_(speed)
{
}

TimingParams
DeviceModel::timing() const
{
    TimingParams t;
    t.tACT = speed_.tACT;
    t.tPRE = speed_.tPRE;
    t.tRAS = speed_.tRAS;
    t.tRC = speed_.tRC;
    t.tREFW = speed_.tREFW;
    t.tREFI = speed_.tREFI;
    t.tRFC = speed_.tRFC;
    t.tRRD = speed_.tRRD;
    t.tFAW = speed_.tFAW;
    t.tRFM = speed_.tRFM;
    t.tAlertNormal = speed_.tAlertNormal;
    t.rowsPerBank = org_.rowsPerBank;
    t.banksPerSubchannel = org_.banksPerSubchannel();
    // refreshGroups and blastRadius keep the TimingParams defaults:
    // both are mitigation-protocol parameters (Section 2.2), not
    // device-grade properties.
    t.validate();
    return t;
}

} // namespace moatsim::dram
