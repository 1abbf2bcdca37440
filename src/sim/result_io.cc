#include "sim/result_io.hh"

#include <cctype>
#include <cstdio>
#include <ostream>
#include <type_traits>

#include "common/logging.hh"

namespace moatsim::sim
{

namespace
{

enum class Lookup
{
    Found,
    Absent,
    Malformed
};

/**
 * Look @p key up in the flat JSON object @p line. When found, @p out
 * holds the value -- quotes stripped and escapes decoded for strings,
 * brackets kept for arrays, the bare token otherwise -- and @p first
 * the character the value starts with. A malformed value sets @p err
 * (when non-null).
 */
Lookup
lookupField(const std::string &line, std::string_view key, std::string *out,
            char *first, std::string *err)
{
    const auto fail = [&line, err](const std::string &msg) {
        if (err != nullptr)
            *err = msg + ": " + line;
        return Lookup::Malformed;
    };
    const std::string needle = "\"" + std::string(key) + "\":";
    size_t v = line.find(needle);
    if (v == std::string::npos)
        return Lookup::Absent;
    v += needle.size();
    *first = v < line.size() ? line[v] : '\0';
    if (*first == '[') {
        // Numeric array (per-sub-channel breakdowns); no nesting and
        // no strings inside, so the first ']' terminates it.
        const size_t end = line.find(']', v);
        if (end == std::string::npos)
            return fail("unterminated array in result line");
        out->assign(line, v, end - v + 1);
        return Lookup::Found;
    }
    if (*first == '"') {
        // String value. Our own escaper emits \", \\, and \u00XX for
        // control characters; the reader additionally accepts every
        // standard JSON escape so externally produced lines decode to
        // the same bytes a compliant parser would see. Unknown escapes
        // are an error, not a silently dropped backslash.
        out->clear();
        for (++v; v < line.size() && line[v] != '"'; ++v) {
            if (line[v] != '\\') {
                out->push_back(line[v]);
                continue;
            }
            if (v + 1 >= line.size())
                return fail("dangling escape in result line");
            // Two-character escapes as (escape letter, byte) pairs.
            static constexpr std::string_view kEscapes =
                "\"\"\\\\//b\bf\fn\nr\rt\t";
            const char e = line[++v];
            if (e != 'u') {
                const size_t at = kEscapes.find(e);
                if (at == std::string_view::npos || at % 2 != 0)
                    return fail(std::string("unknown escape '\\") + e +
                                "' in result line");
                out->push_back(kEscapes[at + 1]);
                continue;
            }
            if (v + 4 >= line.size())
                return fail("truncated \\u escape in result line");
            // strtol alone would accept signs, whitespace, and 0x
            // prefixes; insist on exactly four hex digits.
            long code = 0;
            for (size_t h = v + 1; h <= v + 4; ++h) {
                const auto c = static_cast<unsigned char>(line[h]);
                if (!std::isxdigit(c))
                    return fail("bad \\u escape in result line");
                code = code * 16 +
                       (std::isdigit(c) ? c - '0' : std::tolower(c) - 'a' + 10);
            }
            if (code >= 0xd800 && code <= 0xdfff)
                return fail("surrogate \\u escape in result line");
            // Encode as UTF-8 so codes above 0xff round-trip: the writer
            // passes non-ASCII bytes through raw, so the decoded bytes
            // re-serialize to the same string.
            if (code < 0x80) {
                out->push_back(static_cast<char>(code));
            } else if (code < 0x800) {
                out->push_back(static_cast<char>(0xc0 | (code >> 6)));
                out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
            } else {
                out->push_back(static_cast<char>(0xe0 | (code >> 12)));
                out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
                out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
            }
            v += 4;
        }
        if (v >= line.size())
            return fail("unterminated string in result line");
        return Lookup::Found;
    }
    size_t end = v;
    while (end < line.size() && line[end] != ',' && line[end] != '}')
        ++end;
    if (end == v)
        return fail("empty value for field '" + std::string(key) + "'");
    out->assign(line, v, end - v);
    return Lookup::Found;
}

/**
 * The fields of a perf cell, in line order. Both JsonLineWriter (R is
 * const) and JsonLineReader walk this one list.
 */
template <class V, class R>
    requires std::same_as<std::remove_const_t<R>, PerfResult>
void
fields(V &v, R &r)
{
    v.tag("kind", "perf");
    v.field("workload", r.workload);
    v.field("mitigator", r.mitigator);
    v.field("level", r.aboLevel);
    v.field("norm_perf", r.normPerf);
    v.field("alerts_per_refi", r.alertsPerRefi);
    v.field("mitigations_per_bank_per_refw", r.mitigationsPerBankPerRefw);
    v.field("act_overhead", r.actOverheadFraction);
    v.field("alerts", r.alerts);
    v.field("acts", r.acts);
    // Per-sub-channel breakdowns as parallel arrays, one element per
    // simulated sub-channel (empty when no breakdown was recorded).
    // Pre-v2 lines carry none and read as an empty breakdown.
    v.column("sc_acts", r.perSubchannel, &SubChannelPerf::acts);
    v.column("sc_alerts", r.perSubchannel, &SubChannelPerf::alerts);
    v.column("sc_alerts_per_refi", r.perSubchannel,
             &SubChannelPerf::alertsPerRefi);
    v.column("sc_mitigations_per_bank_per_refw", r.perSubchannel,
             &SubChannelPerf::mitigationsPerBankPerRefw);
    // Device grade at the tail, and only when one was named: default
    // runs keep the exact pre-device byte layout (golden files).
    v.tail("device", r.device);
}

/** The fields of a co-attack cell, in line order. */
template <class V, class R>
    requires std::same_as<std::remove_const_t<R>, CoAttackResult>
void
fields(V &v, R &r)
{
    v.tag("kind", "coattack");
    v.field("workload", r.workload);
    v.field("mitigator", r.mitigator);
    v.field("pattern", r.pattern);
    v.field("level", r.aboLevel);
    v.field("attacker_max_hammer", r.attackerMaxHammer);
    v.field("attacker_acts", r.attackerActs);
    v.field("victim_slowdown", r.victimSlowdown);
    v.field("victim_norm_perf", r.victimNormPerf);
    v.field("victim_acts", r.victimActs);
    v.field("alerts", r.alerts);
    v.field("attack_free_alerts", r.attackFreeAlerts);
    v.field("rfms", r.rfms);
    v.field("attack_free_rfms", r.attackFreeRfms);
    v.field("refs", r.refs);
    v.field("alerts_per_refi", r.alertsPerRefi);
    v.field("attack_free_alerts_per_refi", r.attackFreeAlertsPerRefi);
    v.tail("device", r.device);
}

/** The fields of an isolated attack cell, in line order. */
template <class V, class R>
    requires std::same_as<std::remove_const_t<R>, attacks::AttackResult>
void
fields(V &v, R &r)
{
    v.tag("kind", "attack");
    v.field("pattern", r.pattern);
    v.field("mitigator", r.mitigator);
    v.field("max_hammer", r.maxHammer);
    v.field("total_acts", r.totalActs);
    v.field("alerts", r.alerts);
    v.field("duration_ps", r.duration);
    // Only a throughput pattern's line carries its loss, so every
    // other attack line keeps its bytes.
    const attacks::AttackPattern *p = attacks::findAttackPattern(r.pattern);
    if (v.section(p != nullptr && p->throughput))
        v.field("loss_fraction", r.lossFraction);
}

/** Result lines write every field, so a missing one is malformed. */
template <class R>
R
readRecordOrDie(const std::string &line)
{
    R r;
    JsonLineReader reader(line, JsonLineReader::Absent::Fail);
    fields(reader, r);
    if (!reader.ok())
        fatal(reader.error());
    return r;
}

} // namespace

std::string
jsonQuote(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
            continue;
        }
        out.push_back(c);
    }
    out += '"';
    return out;
}

std::string
jsonDouble(double d)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", d);
    return buf;
}

bool
tryJsonField(const std::string &line, const std::string &key,
             std::string *out, std::string *err)
{
    std::string value;
    char first = 0;
    const Lookup found = lookupField(line, key, &value, &first, err);
    if (found == Lookup::Absent && err != nullptr)
        *err = "result line is missing field '" + key + "': " + line;
    if (found == Lookup::Found)
        *out = value; // a copy is sized to the value, unlike the decode
    return found == Lookup::Found;
}

bool
JsonLineReader::find(std::string_view key, char open, bool optional)
{
    if (!ok_)
        return false;
    char first = 0;
    const Lookup found = lookupField(line_, key, &token_, &first, &error_);
    if (found == Lookup::Malformed)
        ok_ = false;
    else if (found == Lookup::Absent && !optional && absent_ == Absent::Fail)
        fail("result line is missing field '" + std::string(key) + "'");
    else if (found == Lookup::Found &&
             (first == '"' || first == '[' ? first : 0) != open)
        fail("field '" + std::string(key) + "' has the wrong type");
    return ok_ && found == Lookup::Found;
}

void
JsonLineReader::fail(const std::string &what)
{
    ok_ = false;
    error_ = what + ": " + line_;
}

std::string
toJsonLine(const PerfResult &r)
{
    JsonLineWriter w;
    fields(w, r);
    return w.line();
}

std::string
toJsonLine(const CoAttackResult &r)
{
    JsonLineWriter w;
    fields(w, r);
    return w.line();
}

std::string
toJsonLine(const attacks::AttackResult &r)
{
    JsonLineWriter w;
    fields(w, r);
    return w.line();
}

void
writeJsonLines(std::ostream &os, const std::vector<PerfResult> &rs)
{
    for (const auto &r : rs)
        os << toJsonLine(r) << "\n";
}

void
writeJsonLines(std::ostream &os, const std::vector<CoAttackResult> &rs)
{
    for (const auto &r : rs)
        os << toJsonLine(r) << "\n";
}

PerfResult
perfResultOfJsonLine(const std::string &line)
{
    return readRecordOrDie<PerfResult>(line);
}

CoAttackResult
coAttackResultOfJsonLine(const std::string &line)
{
    return readRecordOrDie<CoAttackResult>(line);
}

attacks::AttackResult
attackResultOfJsonLine(const std::string &line)
{
    return readRecordOrDie<attacks::AttackResult>(line);
}

} // namespace moatsim::sim
