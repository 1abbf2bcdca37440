#include "moatlint/lint.hh"

#include "moatlint/cxx_scan.hh"
#include "moatlint/keylint.hh"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <tuple>

namespace moatlint
{

namespace
{

// ------------------------------------------------------------ masking

// The comment/string state machine and line arithmetic moved to
// cxx_scan (shared with the keylint semantic pass); the textual rules
// keep their historical two-variant view of a file.
using cxx::identRefs;
using cxx::lineOf;
using cxx::lineStartsOf;
using cxx::Spans;

std::string
maskSource(const std::string &src, bool mask_strings,
           Spans *string_spans = nullptr)
{
    const unsigned flags =
        mask_strings ? cxx::kMaskComments | cxx::kMaskStrings
                     : cxx::kMaskComments;
    return cxx::maskSource(src, flags, string_spans);
}

// ------------------------------------------------------- suppressions

struct Suppression
{
    int line = 0;        // line the comment sits on
    int target = 0;      // line it suppresses
    std::string rule;
    std::string justification;
    bool valid = false;
};

const std::regex &
allowRe()
{
    static const std::regex re(
        R"(//\s*moatlint:\s*allow\(([A-Za-z0-9_-]+)\)\s*:?[ \t]*(.*))");
    return re;
}

/** A moatlint directive of any kind (allow, key-source, ...). */
const std::regex &
directiveRe()
{
    static const std::regex re(R"(//\s*moatlint:)");
    return re;
}

/**
 * Parse suppressions from @p text, which must be the raw source with
 * block comments and string bodies masked (line comments kept): an
 * allow() example inside a doc block or a fixture string literal is
 * not a suppression. Lines carrying a moatlint: directive that is
 * neither an allow() nor a key annotation (keylint validates those)
 * are reported through @p bad_directives.
 */
std::vector<Suppression>
parseSuppressions(const std::string &text,
                  std::vector<int> *bad_directives)
{
    std::vector<Suppression> sups;
    std::istringstream is(text);
    std::string line;
    std::vector<bool> comment_lines; // whole-line comments, 1-based
    int n = 0;
    while (std::getline(is, line)) {
        ++n;
        const size_t first = line.find_first_not_of(" \t");
        comment_lines.push_back(first != std::string::npos &&
                                line.compare(first, 2, "//") == 0);
        if (line.find("moatlint:") == std::string::npos)
            continue;
        std::smatch m;
        if (!std::regex_search(line, m, allowRe())) {
            if (bad_directives &&
                std::regex_search(line, directiveRe()) &&
                !keyDirectiveLine(line))
                bad_directives->push_back(n);
            continue;
        }
        Suppression s;
        s.line = n;
        s.rule = m[1];
        s.justification = m[2];
        while (!s.justification.empty() &&
               std::isspace(
                   static_cast<unsigned char>(s.justification.back())))
            s.justification.pop_back();
        const std::string before = m.prefix();
        const bool standalone =
            before.find_first_not_of(" \t") == std::string::npos;
        s.target = standalone ? n + 1 : n;
        s.valid = ruleKnown(s.rule) && !s.justification.empty();
        sups.push_back(s);
    }
    // A standalone allow() covers the first following non-comment
    // line, so stacked suppressions and multi-line justification
    // comments all reach past each other to the code below them.
    for (auto &s : sups) {
        if (s.target == s.line)
            continue;
        int t = s.target;
        while (t <= static_cast<int>(comment_lines.size()) &&
               comment_lines[t - 1])
            ++t;
        s.target = t;
    }
    return sups;
}

// ------------------------------------------------------------ helpers

/** Whether @p path contains directory segment @p dir (e.g. "sim"). */
bool
inDir(const std::string &path, const std::string &dir)
{
    const std::string mid = "/" + dir + "/";
    if (path.find(mid) != std::string::npos)
        return true;
    const std::string prefix = dir + "/";
    return path.compare(0, prefix.size(), prefix) == 0;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) ==
               0;
}

bool
identChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/** First non-space offset at or after @p at. */
size_t
skipSpace(const std::string &text, size_t at)
{
    while (at < text.size() &&
           std::isspace(static_cast<unsigned char>(text[at])))
        ++at;
    return at;
}

/** Whether a '(' follows (spaces allowed) -- i.e. the token is called. */
bool
calledAt(const std::string &text, size_t end_of_token)
{
    const size_t p = skipSpace(text, end_of_token);
    return p < text.size() && text[p] == '(';
}

/**
 * Offset just past the '>' matching the '<' at @p open (which must
 * point at '<'), or npos. '>' preceded by '-' (the arrow operator)
 * does not close.
 */
size_t
matchAngle(const std::string &text, size_t open)
{
    int depth = 0;
    for (size_t i = open; i < text.size(); ++i) {
        if (text[i] == '<') {
            ++depth;
        } else if (text[i] == '>' && (i == 0 || text[i - 1] != '-')) {
            if (--depth == 0)
                return i + 1;
        } else if (text[i] == ';' || text[i] == '{') {
            break; // a declaration never spans these
        }
    }
    return std::string::npos;
}

/** Offset just past the matching close of the bracket at @p open. */
size_t
matchBracket(const std::string &text, size_t open, char o, char c)
{
    int depth = 0;
    for (size_t i = open; i < text.size(); ++i) {
        if (text[i] == o) {
            ++depth;
        } else if (text[i] == c) {
            if (--depth == 0)
                return i + 1;
        }
    }
    return std::string::npos;
}

struct ParsedFile
{
    std::string path; // display path (used in findings and scoping)
    std::string raw;
    std::string code;      // comments and literal bodies masked
    std::string with_strings; // comments masked, literals kept
    Spans string_spans;    // literal extents within raw/with_strings
    std::vector<size_t> lines;
    std::vector<Suppression> sups;
    std::vector<int> bad_directives; // unknown moatlint: lines
};

ParsedFile
parseFile(const std::string &path, const std::string &content)
{
    ParsedFile f;
    f.path = path;
    f.raw = content;
    f.code = maskSource(content, true, &f.string_spans);
    f.with_strings = maskSource(content, false);
    f.lines = lineStartsOf(content);
    const std::string sup_view = cxx::maskSource(
        content, cxx::kMaskBlockComments | cxx::kMaskStrings);
    f.sups = parseSuppressions(sup_view, &f.bad_directives);
    return f;
}

void
add(std::vector<Finding> &out, const ParsedFile &f, size_t offset,
    const std::string &rule, const std::string &message)
{
    out.push_back({f.path, lineOf(f.lines, offset), rule, message,
                   false, ""});
}

// -------------------------------------------------------------- rules

void
ruleStdHash(const ParsedFile &f, std::vector<Finding> &out)
{
    for (size_t at : identRefs(f.code, "std::hash")) {
        const size_t p = skipSpace(f.code, at + 9);
        if (p < f.code.size() && f.code[p] == '<')
            add(out, f, at, "std-hash",
                "std::hash is implementation-defined and varies across "
                "stdlibs; derive seeds from FNV-1a cell keys "
                "(common/hash.hh stableHash64/hashCombine)");
    }
}

void
ruleLibcRand(const ParsedFile &f, std::vector<Finding> &out)
{
    static const char *const kCalls[] = {"rand",    "srand",  "rand_r",
                                         "drand48", "lrand48", "mrand48",
                                         "random",  "srandom"};
    for (const char *name : kCalls) {
        for (size_t at : identRefs(f.code, name)) {
            if (calledAt(f.code, at + std::string(name).size()))
                add(out, f, at, "libc-rand",
                    std::string(name) +
                        "() draws from global libc state; use "
                        "common/rng.hh seeded from a stable cell key");
        }
    }
    static const char *const kTypes[] = {"std::random_device",
                                         "random_shuffle"};
    for (const char *name : kTypes) {
        for (size_t at : identRefs(f.code, name))
            add(out, f, at, "libc-rand",
                std::string(name) +
                    " is non-reproducible; use common/rng.hh seeded "
                    "from a stable cell key");
    }
}

void
ruleWallClock(const ParsedFile &f, std::vector<Finding> &out)
{
    static const char *const kClocks[] = {
        "system_clock", "steady_clock", "high_resolution_clock",
        "utc_clock",    "file_clock",   "tai_clock",
        "gps_clock"};
    for (const char *name : kClocks) {
        for (size_t at : identRefs(f.code, name))
            add(out, f, at, "wall-clock",
                std::string(name) +
                    " reads host time; simulation time is "
                    "common/time.hh picoseconds (results must not "
                    "depend on when or how fast they ran)");
    }
    static const char *const kCalls[] = {
        "time",         "gettimeofday", "clock_gettime", "clock",
        "timespec_get", "localtime",    "gmtime",        "mktime",
        "ctime",        "asctime",      "ftime"};
    for (const char *name : kCalls) {
        for (size_t at : identRefs(f.code, name)) {
            if (calledAt(f.code, at + std::string(name).size()))
                add(out, f, at, "wall-clock",
                    std::string(name) +
                        "() reads host wall-clock state; simulation "
                        "time is common/time.hh picoseconds");
        }
    }
}

/** Identifiers declared as std::unordered_{map,set} in @p code. */
std::vector<std::string>
unorderedDecls(const std::string &code)
{
    std::vector<std::string> names;
    for (const char *token :
         {"std::unordered_map", "std::unordered_set"}) {
        for (size_t at : identRefs(code, token)) {
            size_t p = skipSpace(code, at + std::string(token).size());
            if (p >= code.size() || code[p] != '<')
                continue;
            p = matchAngle(code, p);
            if (p == std::string::npos)
                continue;
            // Skip declarator decorations: &, *, const, whitespace.
            for (;;) {
                p = skipSpace(code, p);
                if (p < code.size() &&
                    (code[p] == '&' || code[p] == '*')) {
                    ++p;
                } else if (code.compare(p, 6, "const ") == 0) {
                    p += 6;
                } else {
                    break;
                }
            }
            size_t e = p;
            while (e < code.size() && identChar(code[e]))
                ++e;
            if (e > p)
                names.push_back(code.substr(p, e - p));
        }
    }
    std::sort(names.begin(), names.end());
    names.erase(std::unique(names.begin(), names.end()), names.end());
    return names;
}

void
ruleUnorderedIter(const ParsedFile &f,
                  const std::vector<std::string> &extra,
                  std::vector<Finding> &out)
{
    std::vector<std::string> names = unorderedDecls(f.code);
    names.insert(names.end(), extra.begin(), extra.end());
    std::sort(names.begin(), names.end());
    names.erase(std::unique(names.begin(), names.end()), names.end());
    if (names.empty())
        return;

    std::set<std::pair<int, std::string>> seen; // (line, name) dedupe
    auto flag = [&](size_t offset, const std::string &name) {
        const int line = lineOf(f.lines, offset);
        if (!seen.insert({line, name}).second)
            return;
        add(out, f, offset, "unordered-iter",
            "iteration over std::unordered container '" + name +
                "' is in unspecified order; iterate a sorted copy, or "
                "suppress with a justification if the loop is "
                "order-invariant (commutative accumulation only)");
    };

    // Range-for over a tracked name: for (... : name)
    size_t at = 0;
    while ((at = f.code.find("for", at)) != std::string::npos) {
        const size_t kw = at;
        at += 3;
        if ((kw > 0 && identChar(f.code[kw - 1])) ||
            identChar(f.code[kw + 3]))
            continue;
        const size_t open = skipSpace(f.code, kw + 3);
        if (open >= f.code.size() || f.code[open] != '(')
            continue;
        const size_t close = matchBracket(f.code, open, '(', ')');
        if (close == std::string::npos)
            continue;
        const std::string head =
            f.code.substr(open + 1, close - open - 2);
        if (head.find(';') != std::string::npos)
            continue; // classic for, not range-for
        const size_t colon = head.rfind(':');
        if (colon == std::string::npos ||
            (colon > 0 && head[colon - 1] == ':'))
            continue;
        std::string range = head.substr(colon + 1);
        const size_t b = range.find_first_not_of(" \t\n");
        const size_t e = range.find_last_not_of(" \t\n");
        if (b == std::string::npos)
            continue;
        range = range.substr(b, e - b + 1);
        if (std::find(names.begin(), names.end(), range) != names.end())
            flag(kw, range);
    }

    // Iterator-style: name.begin() / name.cbegin() / name.rbegin()
    for (const auto &name : names) {
        for (size_t ref : identRefs(f.code, name)) {
            size_t p = skipSpace(f.code, ref + name.size());
            if (p >= f.code.size() || f.code[p] != '.')
                continue;
            p = skipSpace(f.code, p + 1);
            for (const char *b : {"begin", "cbegin", "rbegin"}) {
                const size_t n = std::string(b).size();
                if (f.code.compare(p, n, b) == 0 &&
                    calledAt(f.code, p + n)) {
                    flag(ref, name);
                    break;
                }
            }
        }
    }
}

void
rulePointerOrder(const ParsedFile &f, std::vector<Finding> &out)
{
    if (!inDir(f.path, "sim") && !inDir(f.path, "subchannel") &&
        !inDir(f.path, "workload"))
        return;

    for (size_t at : identRefs(f.code, "reinterpret_cast")) {
        size_t p = skipSpace(f.code, at + 16);
        if (p >= f.code.size() || f.code[p] != '<')
            continue;
        p = skipSpace(f.code, p + 1);
        if (f.code.compare(p, 5, "std::") == 0)
            p += 5;
        if (f.code.compare(p, 9, "uintptr_t") == 0 ||
            f.code.compare(p, 8, "intptr_t") == 0)
            add(out, f, at, "pointer-order",
                "casting a pointer to an integer exposes its runtime "
                "address (ASLR-dependent) to arithmetic or ordering; "
                "key replay/sweep state by stable ids instead");
    }

    static const std::regex less_ptr(R"(std::less\s*<[^<>]*\*\s*>)");
    for (auto it = std::sregex_iterator(f.code.begin(), f.code.end(),
                                        less_ptr);
         it != std::sregex_iterator(); ++it) {
        add(out, f, static_cast<size_t>(it->position()), "pointer-order",
            "std::less over pointers orders by runtime address; order "
            "replay/sweep collections by stable ids");
    }

    // Comparator lambda over two pointer parameters whose body orders
    // them: [..](const T *a, const T *b) { ... a < b ... }
    static const std::regex lambda_ptr(
        R"(\[[^\[\]]*\]\s*\(\s*(?:const\s+)?[A-Za-z_][\w:]*\s*\*\s*)"
        R"((\w+)\s*,\s*(?:const\s+)?[A-Za-z_][\w:]*\s*\*\s*(\w+)\s*\))");
    for (auto it = std::sregex_iterator(f.code.begin(), f.code.end(),
                                        lambda_ptr);
         it != std::sregex_iterator(); ++it) {
        const std::string a = (*it)[1], b = (*it)[2];
        const size_t after =
            static_cast<size_t>(it->position() + it->length());
        const size_t open = f.code.find('{', after);
        if (open == std::string::npos)
            continue;
        const size_t close = matchBracket(f.code, open, '{', '}');
        if (close == std::string::npos)
            continue;
        const std::string body = f.code.substr(open, close - open);
        const std::regex cmp("(^|[^\\w<>])(" + a + "\\s*[<>]=?\\s*" + b +
                             "|" + b + "\\s*[<>]=?\\s*" + a +
                             ")($|[^\\w<>=])");
        if (std::regex_search(body, cmp))
            add(out, f, static_cast<size_t>(it->position()),
                "pointer-order",
                "comparator orders raw pointers '" + a + "'/'" + b +
                    "' by address; sort replay/sweep data by a stable "
                    "key");
    }
}

void
ruleJsonlStability(const ParsedFile &f, std::vector<Finding> &out)
{
    // A file is an emitter when it *formats* JSON itself (the
    // toJsonLine/jsonField helpers, the line writer and its double
    // formatter, or the explicit MOATSIM_JSONL marker) -- merely
    // calling writeJsonLines() delegates the formatting to result_io,
    // which is checked on its own.
    const bool emitter =
        f.raw.find("toJsonLine") != std::string::npos ||
        f.raw.find("jsonField") != std::string::npos ||
        f.raw.find("JsonLineWriter") != std::string::npos ||
        f.raw.find("jsonDouble") != std::string::npos ||
        f.raw.find("MOATSIM_JSONL") != std::string::npos;
    if (!emitter)
        return;

    // Float conversions inside real string literals must be %.17g.
    static const std::regex conv(R"(%[-+ #0-9.*]*[a-zA-Z])");
    for (const auto &[b, e] : f.string_spans) {
        const std::string lit = f.raw.substr(b, e - b);
        for (auto it =
                 std::sregex_iterator(lit.begin(), lit.end(), conv);
             it != std::sregex_iterator(); ++it) {
            const std::string spec = it->str();
            const char kind = spec.back();
            if (kind != 'e' && kind != 'E' && kind != 'f' &&
                kind != 'F' && kind != 'g' && kind != 'G')
                continue;
            if (spec == "%.17g")
                continue;
            add(out, f, b + static_cast<size_t>(it->position()),
                "jsonl-stability",
                "float format \"" + spec +
                    "\" in a JSONL-emitting file; use \"%.17g\" (the "
                    "shortest round-trip-exact form result_io "
                    "standardized) so golden files stay byte-stable");
        }
    }

    for (size_t at : identRefs(f.code, "setprecision"))
        add(out, f, at, "jsonl-stability",
            "std::setprecision in a JSONL-emitting file; format "
            "doubles with snprintf \"%.17g\" (see sim/result_io.cc "
            "jsonDouble) so output stays byte-stable");
}

void
ruleMagicGeometry(const ParsedFile &f, std::vector<Finding> &out)
{
    // The device tables themselves -- and the named Table-3 constants
    // they share with TimingParams -- are where the numbers live.
    if (endsWith(f.path, "dram/device.cc") ||
        endsWith(f.path, "dram/device.hh") ||
        endsWith(f.path, "dram/timing.hh"))
        return;

    // Raw Table-3 row count: 64 * 1024 in any spacing, or spelled out.
    static const std::regex rows(R"(\b(64\s*\*\s*1024|65536|0x10000)\b)");
    for (auto it =
             std::sregex_iterator(f.code.begin(), f.code.end(), rows);
         it != std::sregex_iterator(); ++it) {
        add(out, f, static_cast<size_t>(it->position()), "magic-geometry",
            "raw row-count literal '" + it->str() +
                "'; use dram::kTable3RowsPerBank or derive from the "
                "DeviceModel geometry so every device grade stays "
                "consistent");
    }

    // Raw bank-count literal bound to a banks-ish identifier
    // (banks_per_chip = 32, numBanks = 32, ...).
    static const std::regex banks(R"(\b(\w*[Bb]anks\w*)\s*=\s*32\b)");
    for (auto it =
             std::sregex_iterator(f.code.begin(), f.code.end(), banks);
         it != std::sregex_iterator(); ++it) {
        add(out, f, static_cast<size_t>(it->position()), "magic-geometry",
            "bank count '" + (*it)[1].str() +
                " = 32' duplicates the Table-3 geometry; take it from "
                "dram::kTable3BanksPerSubchannel or a DeviceModel "
                "instead of a parallel constant");
    }
}

void
ruleSingleFlight(const ParsedFile &f, std::vector<Finding> &out)
{
    // The primitive itself is the one sanctioned home of the idiom.
    if (!inDir(f.path, "src") || endsWith(f.path, "common/single_flight.hh"))
        return;
    for (const char *name : {"std::promise", "std::shared_future"}) {
        for (size_t at : identRefs(f.code, name))
            add(out, f, at, "single-flight",
                std::string(name) +
                    " outside common/single_flight.hh; compute-once "
                    "caches are SingleFlight fronts (one place for "
                    "blocking waiters, exception propagation, and "
                    "never-cached failures)");
    }
}

void
ruleFanOut(const ParsedFile &f, std::vector<Finding> &out)
{
    if (!inDir(f.path, "src"))
        return;
    const auto in = [&f](std::initializer_list<const char *> homes) {
        return std::any_of(homes.begin(), homes.end(), [&f](const char *h) {
            return endsWith(f.path, h);
        });
    };
    // The pool is the one fan-out; serve's per-connection threads are
    // blocking socket readers, not cell work.
    const bool pool = in({"common/thread_pool.hh", "common/thread_pool.cc"});
    if (!pool && !in({"sim/serve.hh", "sim/serve.cc"})) {
        for (const char *name :
             {"std::thread", "std::jthread", "std::async"}) {
            const size_t len = std::string(name).size();
            for (size_t at : identRefs(f.code, name)) {
                // std::thread::hardware_concurrency() and
                // std::thread::id name a member; they start no thread.
                if (f.code.compare(at + len, 2, "::") == 0)
                    continue;
                add(out, f, at, "fan-out",
                    std::string(name) +
                        " in src/ outside common/thread_pool and "
                        "sim/serve; fan cells out through parallelFor "
                        "(one pool, one place that captures per-index "
                        "exceptions)");
            }
        }
    }
    // ...and the sweep engine is its one caller.
    if (!pool && !in({"sim/sweep.cc"})) {
        for (size_t at : identRefs(f.code, "parallelFor"))
            add(out, f, at, "fan-out",
                "parallelFor in src/ outside common/thread_pool and "
                "sim/sweep.cc; run cells through sim::SweepEngine (one "
                "fan-out, store-first, one sweep.compute fault site)");
    }
}

void
rulePartialOrderSort(const ParsedFile &f, std::vector<Finding> &out)
{
    // The directories whose code shapes results (the determinism
    // scope); elsewhere a sort's tie order reaches no result byte.
    const auto scope = {"sim",        "subchannel", "workload",
                        "mitigation", "dram",       "attacks"};
    if (!inDir(f.path, "src") ||
        std::none_of(scope.begin(), scope.end(), [&f](const char *dir) {
            return inDir(f.path, dir);
        }))
        return;
    for (const char *name :
         {"std::sort", "std::partial_sort", "std::nth_element",
          "std::ranges::sort", "std::ranges::partial_sort",
          "std::ranges::nth_element"}) {
        const size_t len = std::string(name).size();
        for (size_t at : identRefs(f.code, name)) {
            if (calledAt(f.code, at + len))
                add(out, f, at, "partial-order-sort",
                    std::string(name) +
                        " leaves the order of equal elements to the "
                        "standard library; order trace events with "
                        "workload::sortEventsInto, or suppress with a "
                        "justification that the comparator is a total "
                        "order (equal elements are identical)");
        }
    }
}

/** Per-file rule driver (everything except the cross-file checks). */
std::vector<Finding>
lintParsed(const ParsedFile &f, const std::vector<std::string> &extra)
{
    std::vector<Finding> out;
    ruleStdHash(f, out);
    ruleLibcRand(f, out);
    ruleWallClock(f, out);
    ruleUnorderedIter(f, extra, out);
    rulePointerOrder(f, out);
    ruleJsonlStability(f, out);
    ruleMagicGeometry(f, out);
    ruleSingleFlight(f, out);
    ruleFanOut(f, out);
    rulePartialOrderSort(f, out);
    return out;
}

/**
 * One suppression pass over the complete finding set (textual +
 * keylint), in three phases: (1) valid allow() comments
 * cover matching findings; (2) malformed allow() comments, unknown
 * directives, and -- the stale-suppression audit -- valid allow()
 * comments whose target line no longer triggers their rule all become
 * bad-suppression findings; (3) allow(bad-suppression) covers the
 * phase-2 findings on its target line (so a deliberately kept
 * suppression can document itself). allow(bad-suppression) is never
 * itself reported stale: its target legitimately stops firing when
 * the underlying comment gets fixed.
 */
void
applySuppressionsAll(const std::vector<ParsedFile> &files,
                     std::vector<Finding> &findings)
{
    std::map<std::string, const ParsedFile *> by_path;
    for (const auto &f : files)
        by_path[f.path] = &f;
    std::set<const Suppression *> used;

    for (auto &fi : findings) {
        const auto it = by_path.find(fi.file);
        if (it == by_path.end())
            continue;
        for (const auto &s : it->second->sups) {
            if (!s.valid || s.rule != fi.rule || s.target != fi.line)
                continue;
            fi.suppressed = true;
            fi.justification = s.justification;
            used.insert(&s);
            break;
        }
    }

    std::vector<Finding> extra;
    for (const auto &f : files) {
        for (const auto &s : f.sups) {
            if (!s.valid) {
                const std::string why =
                    !ruleKnown(s.rule)
                        ? "names unknown rule '" + s.rule + "'"
                        : "is missing its justification (write \"// "
                          "moatlint: allow(" +
                              s.rule + "): <why this is safe>\")";
                extra.push_back({f.path, s.line, "bad-suppression",
                                 "suppression comment " + why, false,
                                 ""});
                continue;
            }
            if (s.rule == "bad-suppression")
                continue;
            if (!used.count(&s))
                extra.push_back(
                    {f.path, s.line, "bad-suppression",
                     "stale suppression: allow(" + s.rule +
                         ") covers line " + std::to_string(s.target) +
                         ", which no longer triggers " + s.rule +
                         "; delete the comment (left in place it "
                         "would mask a future regression)",
                     false, ""});
        }
        for (const int line : f.bad_directives)
            extra.push_back(
                {f.path, line, "bad-suppression",
                 "unknown moatlint directive (known: allow(<rule>): "
                 "<why>, key-source(<keyFn>), key-exempt(<keyFn>): "
                 "<why>)",
                 false, ""});
    }

    for (auto &fi : extra) {
        const auto it = by_path.find(fi.file);
        if (it == by_path.end())
            continue;
        for (const auto &s : it->second->sups) {
            if (!s.valid || s.rule != "bad-suppression" ||
                s.target != fi.line)
                continue;
            fi.suppressed = true;
            fi.justification = s.justification;
            break;
        }
    }
    findings.insert(findings.end(), extra.begin(), extra.end());
}

} // namespace

// ------------------------------------------------------------- public

const std::vector<RuleInfo> &
rules()
{
    static const std::vector<RuleInfo> kRules = {
        {"std-hash", "std::hash is stdlib-dependent; seeds derive from "
                     "FNV-1a cell keys (common/hash.hh)"},
        {"libc-rand", "rand()/std::random_device/...: non-reproducible "
                      "randomness; use common/rng.hh"},
        {"wall-clock", "wall-clock reads in src/ make results "
                       "time-dependent; use simulation time"},
        {"unordered-iter", "iteration over std::unordered_{map,set} is "
                           "unspecified order"},
        {"pointer-order", "pointer-value comparison/ordering in "
                          "replay/sweep code is ASLR-dependent"},
        {"jsonl-stability", "JSONL emitters format doubles with %.17g "
                            "only (byte-stable goldens)"},
        {"magic-geometry", "raw Table-3 geometry literals outside the "
                           "device tables; derive from DeviceModel"},
        {"single-flight", "std::promise/std::shared_future in src/ "
                          "outside common/single_flight.hh"},
        {"fan-out", "std::thread/std::jthread/std::async in src/ "
                    "outside common/thread_pool and sim/serve, and "
                    "parallelFor outside the pool and sim/sweep.cc"},
        {"partial-order-sort", "std::sort/partial_sort/nth_element in "
                               "src/{sim,subchannel,workload,mitigation,"
                               "dram,attacks} outside the total-order "
                               "helper"},
        {"key-coverage", "every field of a key-source struct must be "
                         "reachable in its key function's fold"},
        {"key-exempt-leak", "key-exempt fields must be absent from the "
                            "fold (over-keying kills cache hits)"},
        {"key-source-drift", "key annotations out of sync with the "
                             "code (missing key fn, bypassed nested "
                             "key-source, misplaced annotation)"},
        {"bad-suppression", "moatlint comment naming an unknown rule "
                            "or directive, missing its justification, "
                            "or stale (target no longer fires)"},
    };
    return kRules;
}

bool
ruleKnown(const std::string &name)
{
    for (const auto &r : rules()) {
        if (r.name == name)
            return true;
    }
    return false;
}

const char *
passOf(const std::string &rule)
{
    return (rule == "key-coverage" || rule == "key-exempt-leak" ||
            rule == "key-source-drift")
               ? "semantic"
               : "textual";
}

std::vector<Finding>
lintSource(const std::string &path, const std::string &content,
           const std::vector<std::string> &extra_unordered)
{
    const ParsedFile f = parseFile(path, content);
    std::vector<Finding> findings = lintParsed(f, extra_unordered);
    // Single-snippet keylint: a key fn declared here but defined in
    // the unseen .cc is not drift (tree_mode=false).
    const std::vector<SourceFile> one{{path, content}};
    const std::vector<Finding> key = keylintFiles(one, false);
    findings.insert(findings.end(), key.begin(), key.end());
    applySuppressionsAll({f}, findings);
    sortFindings(findings);
    return findings;
}

std::vector<SourceFile>
readSourceTree(const std::string &root)
{
    namespace fs = std::filesystem;
    const fs::path root_path(root);
    const fs::path base = root_path.parent_path();

    std::vector<fs::path> paths;
    if (fs::exists(root_path)) {
        for (const auto &entry :
             fs::recursive_directory_iterator(root_path)) {
            if (!entry.is_regular_file())
                continue;
            const std::string ext = entry.path().extension().string();
            if (ext == ".cc" || ext == ".hh" || ext == ".cpp" ||
                ext == ".hpp" || ext == ".h")
                paths.push_back(entry.path());
        }
    }
    // Directory iteration order is filesystem-dependent; the linter
    // holds itself to the determinism bar it enforces.
    std::sort(paths.begin(), paths.end());

    std::vector<SourceFile> files;
    files.reserve(paths.size());
    for (const auto &p : paths) {
        std::ifstream is(p, std::ios::binary);
        std::ostringstream buf;
        buf << is.rdbuf();
        fs::path rel = p.lexically_relative(base.empty() ? "." : base);
        std::string display = rel.generic_string();
        if (display.empty() || display.compare(0, 2, "..") == 0)
            display = p.generic_string();
        files.push_back({display, buf.str()});
    }
    return files;
}

std::vector<Finding>
lintFiles(const std::vector<SourceFile> &srcs)
{
    std::vector<ParsedFile> files;
    files.reserve(srcs.size());
    for (const auto &s : srcs)
        files.push_back(parseFile(s.path, s.content));

    // Unordered-container members declared in a header are often
    // iterated in the paired .cc; feed each .cc its header's decls.
    std::map<std::string, std::vector<std::string>> header_decls;
    for (const auto &f : files) {
        if (endsWith(f.path, ".hh") || endsWith(f.path, ".hpp") ||
            endsWith(f.path, ".h")) {
            const size_t dot = f.path.rfind('.');
            header_decls[f.path.substr(0, dot)] =
                unorderedDecls(f.code);
        }
    }

    std::vector<Finding> findings;
    for (const auto &f : files) {
        std::vector<std::string> extra;
        if (endsWith(f.path, ".cc") || endsWith(f.path, ".cpp")) {
            const size_t dot = f.path.rfind('.');
            const auto it = header_decls.find(f.path.substr(0, dot));
            if (it != header_decls.end())
                extra = it->second;
        }
        const std::vector<Finding> fs_ = lintParsed(f, extra);
        findings.insert(findings.end(), fs_.begin(), fs_.end());
    }

    const std::vector<Finding> key = keylintFiles(srcs, true);
    findings.insert(findings.end(), key.begin(), key.end());

    applySuppressionsAll(files, findings);
    sortFindings(findings);
    return findings;
}

std::vector<Finding>
lintTree(const std::string &root)
{
    return lintFiles(readSourceTree(root));
}

void
sortFindings(std::vector<Finding> &findings)
{
    std::sort(findings.begin(), findings.end(),
              [](const Finding &a, const Finding &b) {
                  return std::tie(a.file, a.line, a.rule, a.message) <
                         std::tie(b.file, b.line, b.rule, b.message);
              });
}

std::size_t
unsuppressedCount(const std::vector<Finding> &findings)
{
    std::size_t n = 0;
    for (const auto &f : findings) {
        if (!f.suppressed)
            ++n;
    }
    return n;
}

namespace
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
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
    return out;
}

} // namespace

std::string
reportJson(const std::vector<Finding> &findings)
{
    std::vector<Finding> sorted = findings;
    sortFindings(sorted);
    std::string out = "{\"rules\":[";
    bool first = true;
    for (const auto &r : rules()) {
        if (!first)
            out += ",";
        first = false;
        out += "\"" + jsonEscape(r.name) + "\"";
    }
    out += "],\"findings\":[";
    first = true;
    for (const auto &f : sorted) {
        if (!first)
            out += ",";
        first = false;
        out += "{\"file\":\"" + jsonEscape(f.file) + "\"";
        out += ",\"line\":" + std::to_string(f.line);
        out += ",\"rule\":\"" + jsonEscape(f.rule) + "\"";
        out += ",\"pass\":\"" + std::string(passOf(f.rule)) + "\"";
        out += ",\"message\":\"" + jsonEscape(f.message) + "\"";
        out += std::string(",\"suppressed\":") +
               (f.suppressed ? "true" : "false");
        out += ",\"justification\":\"" + jsonEscape(f.justification) +
               "\"}";
    }
    out += "],\"total\":" + std::to_string(sorted.size());
    out += ",\"unsuppressed\":" +
           std::to_string(unsuppressedCount(sorted));
    out += "}";
    return out;
}

std::string
reportSarif(const std::vector<Finding> &findings)
{
    std::vector<Finding> sorted = findings;
    sortFindings(sorted);
    std::string out =
        "{\"$schema\":"
        "\"https://json.schemastore.org/sarif-2.1.0.json\","
        "\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{"
        "\"name\":\"moatlint\",\"rules\":[";
    bool first = true;
    for (const auto &r : rules()) {
        if (!first)
            out += ",";
        first = false;
        out += "{\"id\":\"" + jsonEscape(r.name) + "\"";
        out += ",\"shortDescription\":{\"text\":\"" +
               jsonEscape(r.summary) + "\"}";
        out += ",\"properties\":{\"pass\":\"" +
               std::string(passOf(r.name)) + "\"}}";
    }
    out += "]}},\"results\":[";
    first = true;
    for (const auto &f : sorted) {
        if (!first)
            out += ",";
        first = false;
        out += "{\"ruleId\":\"" + jsonEscape(f.rule) + "\"";
        out += std::string(",\"level\":\"") +
               (f.suppressed ? "note" : "error") + "\"";
        out += ",\"message\":{\"text\":\"" + jsonEscape(f.message) +
               "\"}";
        out += ",\"locations\":[{\"physicalLocation\":{"
               "\"artifactLocation\":{\"uri\":\"" +
               jsonEscape(f.file) +
               "\"},\"region\":{\"startLine\":" +
               std::to_string(f.line) + "}}}]";
        if (f.suppressed)
            out += ",\"suppressions\":[{\"kind\":\"inSource\","
                   "\"justification\":\"" +
                   jsonEscape(f.justification) + "\"}]";
        out += "}";
    }
    out += "]}]}";
    return out;
}

} // namespace moatlint
