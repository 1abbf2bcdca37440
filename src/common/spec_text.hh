/**
 * @file
 * The one `name[:key=value,...]` spec grammar.
 *
 * Mitigator specs ("moat:ath=128,eth=64") and device specs
 * ("device:org=32gb,speed=ddr5-prac") are written, checked and printed
 * the same way, and both are folded into cache keys, so one design must
 * have exactly one text. parseSpecParams() splits the key=value items
 * after the name, rejects malformed, unknown and duplicate keys, lets
 * each key check its value and rewrite it to canonical text, and
 * returns the items in the key table's order; describeSpec() joins them
 * back. The caller names the spec: it checks the name, supplies the key
 * table and prefixes the item errors ("mitigator 'moat': ", "device: ").
 * splitList() is the one list splitter: spec items, fault plans and
 * --device lists all split through it.
 */

#ifndef MOATSIM_COMMON_SPEC_TEXT_HH
#define MOATSIM_COMMON_SPEC_TEXT_HH

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace moatsim
{

/** One key=value item of a spec, the value in canonical text. */
using SpecParam = std::pair<std::string, std::string>;

/** One accepted key of a spec grammar. */
struct SpecKey
{
    std::string key;
    /** Checks @p value and rewrites it to its canonical text; returns
     *  the error (without the spec's prefix), or "" when valid. */
    std::function<std::string(std::string &value)> check;
};

/**
 * The items of a @p sep-separated list, empty ones included, so the
 * caller can reject them: "a,,b" has three items, "" has one.
 */
std::vector<std::string> splitList(const std::string &text, char sep);

/** The name of @p text: everything before the first ':'. */
std::string specName(const std::string &text);

/**
 * The key=value items after the name of @p text, checked against
 * @p keys and listed in their order (empty when @p text has no ':').
 * On error, std::nullopt with @p prefix and the diagnostic in *error
 * when @p error is non-null.
 */
std::optional<std::vector<SpecParam>>
parseSpecParams(const std::string &text, const std::vector<SpecKey> &keys,
                const std::string &prefix, std::string *error);

/** The value of @p key among @p params, or nullptr when not given. */
const std::string *findSpecParam(const std::vector<SpecParam> &params,
                                 const std::string &key);

/** "name:k=v,k=v", or just "name" without items. */
std::string describeSpec(const std::string &name,
                         const std::vector<SpecParam> &params);

/** Stores @p message in *error when @p error is non-null. */
std::nullopt_t specError(std::string *error, const std::string &message);

/** "a, b, c": the @p name of each of @p items, for "known: ..." hints. */
template <class Items, class Name>
std::string
joinNames(const Items &items, Name name)
{
    std::string out;
    for (const auto &item : items) {
        if (!out.empty())
            out += ", ";
        out += std::invoke(name, item);
    }
    return out;
}

} // namespace moatsim

#endif // MOATSIM_COMMON_SPEC_TEXT_HH
