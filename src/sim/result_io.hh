/**
 * @file
 * The one flat-JSON line codec: experiment results, run requests, the
 * serve protocol and the result-store frame all go through it.
 *
 * The golden-result regression harness locks every paper number down
 * by diffing regenerated results against checked-in files, so the
 * serialization must be byte-stable: fields are emitted in a fixed
 * order and doubles with "%.17g" (round-trip exact for IEEE-754
 * binary64). One JSON object per line; a "kind" discriminator tags
 * perf cells vs. attack outcomes so mixed streams stay greppable.
 *
 * A record lists its fields once, in one `fields(v, record)` function
 * that both JsonLineWriter and JsonLineReader walk, so adding a field
 * is one line and the writer and the reader cannot disagree. Numbers
 * are read with the strict grammar of common/number_text.hh.
 */

#ifndef MOATSIM_SIM_RESULT_IO_HH
#define MOATSIM_SIM_RESULT_IO_HH

#include <algorithm>
#include <concepts>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "attacks/attack.hh"
#include "common/number_text.hh"
#include "sim/coattack.hh"
#include "sim/perf.hh"

namespace moatsim::sim
{

/** @p s JSON-escaped and double-quoted (the writer's own escaping:
 *  \", \\, and \u00XX for control characters; other bytes raw). */
std::string jsonQuote(const std::string &s);

/** %.17g: shortest form that round-trips an IEEE binary64 exactly. */
std::string jsonDouble(double d);

/**
 * Pull one "key":value out of a flat one-line JSON object into @p out
 * (quotes stripped and escapes decoded for strings, brackets kept for
 * arrays). Returns false -- with a diagnostic in @p err when non-null
 * -- on a missing key or a malformed value, so callers fed untrusted
 * lines (the result store's shards, the serve protocol) can treat bad
 * input as data, not as a fatal error.
 */
bool tryJsonField(const std::string &line, const std::string &key,
                  std::string *out, std::string *err = nullptr);

/**
 * Builds one flat JSON object line, field by field in call order:
 * strings escaped as by jsonQuote(), integers in decimal, bools as
 * true/false, doubles in "%.17g". One visitor of a `fields()` list.
 */
class JsonLineWriter
{
  public:
    template <class T>
    JsonLineWriter &field(std::string_view key, const T &value)
    {
        beginField(key);
        append(value);
        return *this;
    }
    /** The record's kind discriminator. */
    void tag(std::string_view key, std::string_view kind)
    {
        field(key, kind);
    }
    /** One member of every row as a numeric array ("[a,b,c]"). */
    template <class Row, class T>
    void column(std::string_view key, const std::vector<Row> &rows,
                T Row::*member)
    {
        beginField(key);
        out_ += '[';
        for (size_t i = 0; i < rows.size(); ++i) {
            if (i > 0)
                out_ += ',';
            append(rows[i].*member);
        }
        out_ += ']';
    }
    /** Written only when non-empty, so lines without it keep their
     *  old bytes; readers take its absence as empty. */
    void tail(std::string_view key, const std::string &value)
    {
        if (!value.empty())
            field(key, value);
    }
    /** Whether to visit a group of fields: when @p present, which a
     *  fields() list computes from the fields it visited before. */
    bool section(bool present) const { return present; }

    /** The finished line (no trailing newline); call once. */
    std::string line()
    {
        out_ += '}';
        return std::move(out_);
    }

  private:
    void beginField(std::string_view key)
    {
        out_ += out_.size() > 1 ? ",\"" : "\"";
        out_ += key;
        out_ += "\":";
    }
    template <class T>
    void append(const T &v)
    {
        if constexpr (std::same_as<T, bool>) {
            out_ += v ? "true" : "false";
        } else if constexpr (std::integral<T>) {
            char buf[24];
            out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
        } else if constexpr (std::floating_point<T>) {
            out_ += jsonDouble(v);
        } else if constexpr (std::same_as<T, std::string>) {
            out_ += jsonQuote(v);
        } else {
            out_ += jsonQuote(std::string(v));
        }
    }

    std::string out_ = "{";
};

/**
 * Reads one flat JSON object line into a record's fields: the other
 * visitor of a `fields()` list. Each field is looked up once. A
 * present field must be well formed: strings quoted with valid
 * escapes, numbers in the grammar of common/number_text.hh. The first
 * failure is kept and later visits are no-ops; check ok() at the end.
 */
class JsonLineReader
{
  public:
    /** What a missing field means: a malformed line (result lines
     *  write every field), or keep the field's value (requests and
     *  protocol lines, forward compatible). */
    enum class Absent
    {
        Fail,
        Keep
    };

    JsonLineReader(const std::string &line, Absent absent)
        : line_(line), absent_(absent)
    {
    }

    template <class T>
    void field(std::string_view key, T &value)
    {
        // Strings are copied out, not swapped: the copy is sized to the
        // value, while token_ keeps its grown buffer for the next field.
        if constexpr (std::same_as<T, std::string>) {
            if (find(key, '"', false))
                value = token_;
        } else if (find(key, 0, false) && !parseValue(token_, &value)) {
            failValue(key);
        }
    }
    /** The field must be present and equal @p kind. */
    void tag(std::string_view key, std::string_view kind)
    {
        if (find(key, '"', false) && token_ != kind)
            fail("not a " + std::string(kind) + " line");
    }
    /** One member of every row from a numeric array. The first column
     *  of @p rows sizes it and later ones must match; an absent column
     *  reads as empty (lines older than the array). */
    template <class Row, class T>
    void column(std::string_view key, std::vector<Row> &rows,
                T Row::*member)
    {
        const bool first = rows_ != &rows;
        rows_ = &rows;
        std::string_view items;
        if (find(key, '[', true))
            items = std::string_view(token_).substr(1, token_.size() - 2);
        size_t count = 0;
        for (size_t at = 0; ok_ && !items.empty() && at <= items.size();
             ++count) {
            const size_t end = std::min(items.find(',', at), items.size());
            if (first)
                rows.resize(count + 1);
            if (count < rows.size() &&
                !parseValue(items.substr(at, end - at),
                            &(rows[count].*member)))
                failValue(key);
            at = end + 1;
        }
        if (ok_ && count != rows.size())
            fail("array field '" + std::string(key) + "' has " +
                 std::to_string(count) + " elements, not " +
                 std::to_string(rows.size()));
    }
    /** An optional string field: absent keeps @p value. */
    void tail(std::string_view key, std::string &value)
    {
        if (find(key, '"', true))
            value = token_;
    }
    /** A group is read when @p present, computed from the fields read
     *  before it, so a line without the group is well formed; within
     *  it, absent fields follow the Absent policy. */
    bool section(bool present) const { return present; }

    bool ok() const { return ok_; }
    /** The first failure, with the line it was found in. */
    const std::string &error() const { return error_; }

  private:
    /** Look @p key up. True with the value in token_ when present and
     *  opening with @p open ('"', '[', or 0 for a bare token); false
     *  when absent (a failure unless @p optional or Absent::Keep),
     *  malformed, or after an earlier failure. */
    bool find(std::string_view key, char open, bool optional);
    void fail(const std::string &what);
    void failValue(std::string_view key)
    {
        fail("field '" + std::string(key) +
             "' has a malformed or out-of-range value '" + token_ + "'");
    }
    template <class T>
    static bool parseValue(std::string_view text, T *out)
    {
        if constexpr (std::same_as<T, bool>) {
            *out = text == "true";
            return *out || text == "false";
        } else if constexpr (std::floating_point<T>) {
            return parseDouble(text, out);
        } else {
            return parseDecimal(text, out);
        }
    }

    const std::string &line_;
    Absent absent_;
    bool ok_ = true;
    std::string error_;
    /** The current field's value (decoded for strings). */
    std::string token_;
    /** The row vector the last column() filled. */
    const void *rows_ = nullptr;
};

/** One PerfResult as a byte-stable JSON line (no trailing newline). */
std::string toJsonLine(const PerfResult &r);

/** One adversary-under-load cell ("kind":"coattack") as a JSON line. */
std::string toJsonLine(const CoAttackResult &r);

/** One isolated attack cell ("kind":"attack") as a JSON line; its
 *  pattern and mitigator name the cell the way PerfResult lines name
 *  their (workload, mitigator) cell. */
std::string toJsonLine(const attacks::AttackResult &r);

/** Write one line per result. */
void writeJsonLines(std::ostream &os, const std::vector<PerfResult> &rs);

/** Write one line per co-attack result. */
void writeJsonLines(std::ostream &os, const std::vector<CoAttackResult> &rs);

/** Parse a toJsonLine(PerfResult) line back; fatal() on malformed. */
PerfResult perfResultOfJsonLine(const std::string &line);

/** Parse a toJsonLine(CoAttackResult) line back; fatal() on malformed. */
CoAttackResult coAttackResultOfJsonLine(const std::string &line);

/** Parse a toJsonLine(AttackResult) line back; fatal() on malformed. */
attacks::AttackResult attackResultOfJsonLine(const std::string &line);

} // namespace moatsim::sim

#endif // MOATSIM_SIM_RESULT_IO_HH
