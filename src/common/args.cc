#include "common/args.hh"

#include <cstring>
#include <limits>

#include "common/logging.hh"
#include "common/number_text.hh"
#include "common/stats.hh"

namespace moatsim
{

Args::Args(int argc, char **argv, int first)
{
    for (int i = first; i < argc;) {
        if (std::strncmp(argv[i], "--", 2) != 0)
            fatal(std::string("expected a --flag, got '") + argv[i] + "'");
        const std::string name = argv[i] + 2;
        if (name.empty())
            fatal("empty flag name '--'");
        if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
            values_.emplace_back(name, argv[i + 1]);
            i += 2;
        } else {
            // Valueless boolean flag.
            values_.emplace_back(name, "");
            i += 1;
        }
    }
}

bool
Args::has(const std::string &name) const
{
    for (const auto &[k, v] : values_) {
        if (k == name)
            return true;
    }
    return false;
}

std::string
Args::get(const std::string &name, const std::string &def) const
{
    for (const auto &[k, v] : values_) {
        if (k == name) {
            if (v.empty())
                fatal("flag --" + name + " requires a value");
            return v;
        }
    }
    return def;
}

uint64_t
Args::getInt(const std::string &name, uint64_t def) const
{
    const std::string v = get(name, std::to_string(def));
    uint64_t out = 0;
    if (!parseDecimal(v, &out))
        fatal("flag --" + name + " expects an unsigned integer, got '" + v +
              "'");
    return out;
}

uint32_t
Args::getUint32(const std::string &name, uint32_t def) const
{
    const uint64_t out = getInt(name, def);
    if (out > std::numeric_limits<uint32_t>::max())
        fatal("flag --" + name + " expects a value at most " +
              std::to_string(std::numeric_limits<uint32_t>::max()) +
              ", got '" + get(name, std::to_string(def)) + "'");
    return static_cast<uint32_t>(out);
}

uint32_t
Args::getPositive(const std::string &name, uint32_t def) const
{
    const uint32_t out = getUint32(name, def);
    if (out == 0)
        fatal("flag --" + name + " must be at least 1");
    return out;
}

double
Args::getDouble(const std::string &name, double def) const
{
    const std::string v = get(name, formatFixed(def, 6));
    double out = 0.0;
    if (!parseDouble(v, &out))
        fatal("flag --" + name + " expects a number, got '" + v + "'");
    return out;
}

bool
Args::getBool(const std::string &name, bool def) const
{
    for (const auto &[k, v] : values_) {
        if (k == name) {
            if (v.empty() || v == "true" || v == "1")
                return true;
            if (v == "false" || v == "0")
                return false;
            fatal("flag --" + name + " expects true/false, got '" + v +
                  "'");
        }
    }
    return def;
}

} // namespace moatsim
