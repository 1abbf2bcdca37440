#include "common/spec_text.hh"

#include <algorithm>

namespace moatsim
{

std::vector<std::string>
splitList(const std::string &text, char sep)
{
    std::vector<std::string> items;
    for (size_t pos = 0; pos <= text.size();) {
        const size_t end = std::min(text.find(sep, pos), text.size());
        items.push_back(text.substr(pos, end - pos));
        pos = end + 1;
    }
    return items;
}

std::string
specName(const std::string &text)
{
    return text.substr(0, text.find(':'));
}

std::optional<std::vector<SpecParam>>
parseSpecParams(const std::string &text, const std::vector<SpecKey> &keys,
                const std::string &prefix, std::string *error)
{
    std::vector<SpecParam> given;
    const size_t colon = text.find(':');
    if (colon == std::string::npos)
        return given;

    for (const std::string &item : splitList(text.substr(colon + 1), ',')) {
        const size_t eq = item.find('=');
        if (eq == std::string::npos || eq == 0 || eq + 1 == item.size())
            return specError(error, prefix + "malformed parameter '" +
                                        item + "' (expected key=value)");
        const std::string key = item.substr(0, eq);
        std::string value = item.substr(eq + 1);

        const auto known =
            std::find_if(keys.begin(), keys.end(),
                         [&](const SpecKey &k) { return k.key == key; });
        if (known == keys.end())
            return specError(
                error, prefix + "unknown key '" + key + "' (known keys: " +
                           (keys.empty() ? "(none)"
                                         : joinNames(keys, &SpecKey::key)) +
                           ")");
        if (findSpecParam(given, key) != nullptr)
            return specError(error, prefix + "duplicate key '" + key + "'");
        if (const std::string why = known->check(value); !why.empty())
            return specError(error, prefix + why);
        given.emplace_back(key, std::move(value));
    }

    // Canonical order: the key table's, whatever the input order.
    std::vector<SpecParam> params;
    for (const auto &k : keys) {
        if (const std::string *value = findSpecParam(given, k.key))
            params.emplace_back(k.key, *value);
    }
    return params;
}

const std::string *
findSpecParam(const std::vector<SpecParam> &params, const std::string &key)
{
    for (const auto &[k, v] : params) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

std::string
describeSpec(const std::string &name, const std::vector<SpecParam> &params)
{
    std::string out = name;
    char sep = ':';
    for (const auto &[k, v] : params) {
        out += sep;
        out += k + "=" + v;
        sep = ',';
    }
    return out;
}

std::nullopt_t
specError(std::string *error, const std::string &message)
{
    if (error != nullptr)
        *error = message;
    return std::nullopt;
}

} // namespace moatsim
