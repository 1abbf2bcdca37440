/**
 * @file
 * Named DDR5 device model: organization presets and speed grades.
 *
 * Today's Table-3 system is one hard-wired geometry; real deployments
 * span device grades (capacities, rank/channel counts, timing bins),
 * and a mitigator's security/cost story must hold per grade. Following
 * the ramulator org_map/speed_map idiom, the device model names each
 * grade once -- organization (rows/bank, banks per bank group, bank
 * groups, ranks, channels) and speed (the TimingParams time fields plus
 * the PRAC counter-update cost) -- and everything downstream derives
 * from the resolved DeviceModel: dram::TimingParams geometry,
 * dram::AddressMap::Config bit widths, sim::System topology, and the
 * SRAM-cost accounting in analysis/storage_model.
 *
 * A device is selected by a spec string in the one spec grammar of
 * common/spec_text.hh, the one mitigation::MitigatorSpec uses:
 *
 *     device:org=32gb,speed=ddr5-prac
 *
 * DeviceSpec::describe() reproduces the given parameters in canonical
 * order; DeviceSpec::resolve() yields the DeviceModel. The default
 * spec ("device") resolves to the first preset of each list, the
 * paper's Table-3 system, bit-exactly:
 * TimingParams{} timing, 64K rows x 32 banks per sub-channel, 2
 * sub-channels, 1 rank, 1 channel.
 */

#ifndef MOATSIM_DRAM_DEVICE_HH
#define MOATSIM_DRAM_DEVICE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/spec_text.hh"
#include "common/time.hh"
#include "dram/address_map.hh"
#include "dram/timing.hh"

namespace moatsim::dram
{

/** One named DDR5 organization (capacity/topology) preset. */
struct DeviceOrg
{
    /** Preset name (the `org=` value), e.g. "32gb". */
    std::string name;
    /** One-line summary for listings. */
    std::string summary;
    /** Rows per bank. */
    uint32_t rowsPerBank = 0;
    /** Banks per bank group. */
    uint32_t banksPerGroup = 0;
    /** Bank groups per sub-channel. */
    uint32_t bankGroups = 0;
    /** Ranks per channel. */
    uint32_t ranks = 1;
    /** Memory channels. */
    uint32_t channels = 1;
    /** Sub-channels per channel (DDR5 DIMMs: always 2). */
    uint32_t subchannelsPerChannel = 2;

    /** Banks per sub-channel (bank groups x banks per group). */
    uint32_t banksPerSubchannel() const { return banksPerGroup * bankGroups; }
};

/** One named DDR5 speed grade (timing bin). */
struct DeviceSpeed
{
    /** Preset name (the `speed=` value), e.g. "ddr5-prac". */
    std::string name;
    /** One-line summary for listings. */
    std::string summary;
    /** Time for performing an ACT. */
    Time tACT = 0;
    /** Row precharge, PRAC counter read-modify-write included. */
    Time tPRE = 0;
    /** Minimum time a row must be kept open. */
    Time tRAS = 0;
    /** Time between successive ACTs to the same bank. */
    Time tRC = 0;
    /** Refresh window: every row refreshed once per tREFW. */
    Time tREFW = 0;
    /** Time between successive REF commands. */
    Time tREFI = 0;
    /** Execution time of a REF command (bank unavailable). */
    Time tRFC = 0;
    /** ACT-to-ACT delay across banks of one sub-channel. */
    Time tRRD = 0;
    /** Four-activation window across a sub-channel. */
    Time tFAW = 0;
    /** RFM execution time (one ABO mitigation slot). */
    Time tRFM = 0;
    /** Normal-operation window after ALERT assertion. */
    Time tAlertNormal = 0;
    /**
     * PRAC counter increment cost per JEDEC DDR5 PRAC: the counter
     * read-modify-write the revised precharge hides. Already folded
     * into tPRE (tPRE ~ base precharge + pracIncrement); kept explicit
     * so analyses can separate the mitigation tax from the DRAM core.
     */
    Time pracIncrement = 0;
};

/** All named organization presets, in listing order. */
const std::vector<DeviceOrg> &deviceOrgs();

/** All named speed grades, in listing order. */
const std::vector<DeviceSpeed> &deviceSpeeds();

/** The default organization preset name (Table-3 system). */
std::string defaultDeviceOrg();

/** The default speed-grade name (Table-1 revised DDR5 with PRAC). */
std::string defaultDeviceSpeed();

class DeviceModel;

/**
 * Parsed `device:org=...,speed=...` spec. Mirrors
 * mitigation::MitigatorSpec: parse() fatals with the same error text
 * tryParse() reports, describe() reproduces the given parameters in
 * canonical (org, speed) order, and omitted parameters resolve to the
 * Table-3 defaults.
 *
 * describe() is a key input (perfCellKey folds the canonical spec
 * text into every ResultStore key), so every member below must reach
 * it -- keylint checks the round-trip on every build.
 */
// moatlint: key-source(DeviceSpec::describe)
class DeviceSpec
{
  public:
    /** The default device (Table-3 org at the Table-1 speed grade). */
    DeviceSpec() = default;

    /** Parse a spec string; calls fatal() on malformed input. */
    static DeviceSpec parse(const std::string &text);

    /** Parse; nullopt (and *error, when non-null) on malformed input. */
    static std::optional<DeviceSpec> tryParse(const std::string &text,
                                              std::string *error);

    /** Canonical spec text; parse(describe()) round-trips. */
    std::string describe() const;

    /** Resolved organization preset name. */
    const std::string &org() const;

    /** Resolved speed-grade name. */
    const std::string &speed() const;

    /** Whether this is the default device grade. */
    bool isDefault() const;

    /** Resolve the named presets into a DeviceModel. */
    DeviceModel resolve() const;

  private:
    /** The parameters given in the spec text, in canonical order. */
    std::vector<SpecParam> params_;
};

/**
 * A resolved device: one organization preset at one speed grade. The
 * single source of truth for DRAM geometry -- TimingParams geometry
 * fields, AddressMap bit widths, and system topology all derive from
 * here instead of from parallel defaults.
 */
class DeviceModel
{
  public:
    /** The default device (equivalent to DeviceSpec{}.resolve()). */
    DeviceModel();

    DeviceModel(const DeviceSpec &spec, const DeviceOrg &org,
                const DeviceSpeed &speed);

    const DeviceSpec &spec() const { return spec_; }
    const DeviceOrg &org() const { return org_; }
    const DeviceSpeed &speed() const { return speed_; }

    /** Canonical spec text (spec().describe()). */
    std::string describe() const { return spec_.describe(); }

    /** Whether this is the default device grade. */
    bool isDefault() const { return spec_.isDefault(); }

    /**
     * The speed grade's timings merged with the organization's
     * geometry, as one validated TimingParams. The default device
     * reproduces TimingParams{} exactly.
     */
    TimingParams timing() const;

    /**
     * Address-mapping bit widths derived from the geometry. Fatals if
     * banks per sub-channel, rows per bank, sub-channels, ranks, or
     * channels is not a power of two -- a mismatched config must not
     * silently misroute addresses.
     */
    AddressMap::Config addressConfig() const;

    /** Memory channels. */
    uint32_t channels() const { return org_.channels; }
    /** Ranks per channel. */
    uint32_t ranks() const { return org_.ranks; }
    /** Sub-channels per channel. */
    uint32_t subchannelsPerChannel() const
    {
        return org_.subchannelsPerChannel;
    }
    /** Banks per sub-channel. */
    uint32_t banksPerSubchannel() const { return org_.banksPerSubchannel(); }
    /** Rows per bank. */
    uint32_t rowsPerBank() const { return org_.rowsPerBank; }

    /**
     * Independent sub-channel replay slots: channels x ranks x
     * sub-channels per channel. Each slot is one subchannel::SubChannel
     * (its own banks, mitigators and ABO state machine).
     */
    uint32_t totalSubchannelSlots() const
    {
        return org_.channels * org_.ranks * org_.subchannelsPerChannel;
    }

    /** Banks across the whole device (all slots). */
    uint32_t totalBanks() const
    {
        return totalSubchannelSlots() * banksPerSubchannel();
    }

  private:
    DeviceSpec spec_;
    DeviceOrg org_;
    DeviceSpeed speed_;
};

} // namespace moatsim::dram

#endif // MOATSIM_DRAM_DEVICE_HH
