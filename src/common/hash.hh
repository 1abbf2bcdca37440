/**
 * @file
 * Stable 64-bit hashing for reproducible seeding and cache keys.
 *
 * Trace seeds, cell keys and baseline-cache keys are derived from
 * workload names, mitigator specs, and configuration values.
 * std::hash is implementation-defined, so two builds (or two stdlib
 * versions) could disagree on every derived seed; these helpers are
 * fixed algorithms (FNV-1a over bytes, the splitmix64 finalizer) whose
 * outputs are part of the golden-result contract.
 */

#ifndef MOATSIM_COMMON_HASH_HH
#define MOATSIM_COMMON_HASH_HH

#include <bit>
#include <cstdint>
#include <string_view>

namespace moatsim
{

/** FNV-1a over the bytes of @p s; stable across platforms. */
constexpr uint64_t
stableHash64(std::string_view s)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** splitmix64 finalizer: diffuses the bits of a raw value. */
constexpr uint64_t
hashMix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Order-sensitive combination of a running hash with one value. */
constexpr uint64_t
hashCombine(uint64_t seed, uint64_t value)
{
    return hashMix(seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) +
                           (seed >> 2)));
}

/** Hash a double by its bit pattern (exact, not value-rounded). */
inline uint64_t
hashDouble(double d)
{
    return hashMix(std::bit_cast<uint64_t>(d));
}

/**
 * CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over the bytes
 * of @p s. Unlike the FNV hashes above, this is a burst-error
 * detection code: the result-store shard records frame themselves
 * with it so a torn or bit-flipped line is detected no matter which
 * field the damage lands in.
 */
constexpr uint32_t
crc32(std::string_view s)
{
    uint32_t c = 0xffffffffU;
    for (const char ch : s) {
        c ^= static_cast<unsigned char>(ch);
        for (int bit = 0; bit < 8; ++bit)
            c = (c >> 1) ^ (0xedb88320U & (0U - (c & 1U)));
    }
    return c ^ 0xffffffffU;
}

} // namespace moatsim

#endif // MOATSIM_COMMON_HASH_HH
