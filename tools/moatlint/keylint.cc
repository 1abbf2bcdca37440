#include "moatlint/keylint.hh"

#include "moatlint/cxx_scan.hh"

#include <algorithm>
#include <cctype>
#include <deque>
#include <map>
#include <regex>
#include <set>
#include <sstream>

namespace moatlint
{

namespace
{

// ------------------------------------------------------------- utils

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.compare(0, prefix.size(), prefix) == 0;
}

/** Last "::" component of a (possibly qualified) function name. */
std::string
lastComp(const std::string &name)
{
    const size_t at = name.rfind("::");
    return at == std::string::npos ? name : name.substr(at + 2);
}

std::string
join(const std::vector<std::string> &parts, const char *sep)
{
    std::string out;
    for (const auto &p : parts) {
        if (!out.empty())
            out += sep;
        out += p;
    }
    return out;
}

bool
validFnName(const std::string &s)
{
    if (s.empty())
        return false;
    if (!std::isalpha(static_cast<unsigned char>(s[0])) && s[0] != '_')
        return false;
    for (const char c : s) {
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
            c != ':')
            return false;
    }
    return true;
}

/** Comma-split, trimmed; empty or malformed entries fail the parse. */
std::vector<std::string>
splitFns(const std::string &list, bool *ok)
{
    std::vector<std::string> fns;
    *ok = false;
    std::istringstream is(list);
    std::string item;
    while (std::getline(is, item, ',')) {
        const size_t b = item.find_first_not_of(" \t");
        if (b == std::string::npos)
            return fns;
        const size_t e = item.find_last_not_of(" \t");
        item = item.substr(b, e - b + 1);
        if (!validFnName(item))
            return fns;
        fns.push_back(item);
    }
    *ok = !fns.empty();
    return fns;
}

// --------------------------------------------------------- structure

/** One input file, pre-masked and declaration-scanned. */
struct KeyFile
{
    std::string code; // comments and string bodies masked
    std::vector<size_t> lines;
    cxx::FileDecls decls;
};

/** A function-body span within the file set. */
struct Body
{
    int file = -1;
    size_t begin = 0;
    size_t end = 0;
};

/** One key-source struct with its resolved fold machinery. */
struct Contract
{
    int file = -1;
    int struct_idx = -1;
    /** Key function names as annotated (bare or qualified). */
    std::vector<std::string> fns;
    /** Defined bodies of the annotated functions. */
    std::vector<Body> direct;
    /** direct + transitively called defined functions. */
    std::vector<Body> closure;
    /** Every name called anywhere in the closure, plus the key
     *  functions themselves (nested delegation checks against it). */
    std::set<std::string> called;
    /** True when a key fn is a member of the struct, so bare field
     *  mentions (org_) count as fold reach, not just .field ones. */
    bool member_fold = false;
    bool resolved = false;
    std::map<std::string, std::string> exempt; // field -> justification
};

struct Analysis
{
    std::vector<KeyFile> files;
    const std::vector<SourceFile> *srcs = nullptr;
    std::vector<Contract> contracts;
    std::vector<Finding> findings;
};

const cxx::StructDecl &
structOf(const Analysis &a, const Contract &c)
{
    return a.files[c.file].decls.structs[c.struct_idx];
}

// -------------------------------------------------------- annotations

struct Annotation
{
    int file = -1;
    int line = 0;   // line the comment sits on
    int target = 0; // line it annotates
    bool exempt = false;
    std::vector<std::string> fns;
    std::string justification;
};

const std::regex &
keySourceRe()
{
    static const std::regex re(
        R"(//\s*moatlint:\s*key-source\(([^()]*)\)\s*$)");
    return re;
}

const std::regex &
keyExemptRe()
{
    static const std::regex re(
        R"(//\s*moatlint:\s*key-exempt\(([^()]*)\)\s*:?[ \t]*(.*))");
    return re;
}

void
parseAnnotations(int fi, const std::string &raw,
                 const std::string &path,
                 std::vector<Annotation> &annos,
                 std::vector<Finding> &out)
{
    // Block comments and strings masked, line comments kept: the
    // directives live in line comments, and a directive-shaped string
    // in a fixture (or an example in a /** */ doc block) must not
    // register.
    const std::string sup = cxx::maskSource(
        raw, cxx::kMaskBlockComments | cxx::kMaskStrings);
    std::istringstream is(sup);
    std::string line;
    std::vector<bool> comment_lines;
    std::vector<Annotation> local;
    int n = 0;
    while (std::getline(is, line)) {
        ++n;
        const size_t first = line.find_first_not_of(" \t");
        comment_lines.push_back(first != std::string::npos &&
                                line.compare(first, 2, "//") == 0);
        if (line.find("moatlint:") == std::string::npos)
            continue;
        if (!keyDirectiveLine(line))
            continue; // allow() and unknown directives: lint.cc's job
        std::smatch m;
        Annotation an;
        an.file = fi;
        an.line = n;
        bool fns_ok = false;
        if (std::regex_search(line, m, keySourceRe())) {
            an.exempt = false;
            an.fns = splitFns(m[1], &fns_ok);
        } else if (std::regex_search(line, m, keyExemptRe())) {
            an.exempt = true;
            an.fns = splitFns(m[1], &fns_ok);
            an.justification = m[2];
            while (!an.justification.empty() &&
                   std::isspace(static_cast<unsigned char>(
                       an.justification.back())))
                an.justification.pop_back();
            if (fns_ok && an.justification.empty()) {
                out.push_back(
                    {path, n, "bad-suppression",
                     "key-exempt annotation is missing its "
                     "justification (write \"// moatlint: key-exempt(" +
                         join(an.fns, ",") +
                         "): <why this field must not perturb the "
                         "key>\")",
                     false, ""});
                continue;
            }
        } else {
            out.push_back(
                {path, n, "bad-suppression",
                 "malformed key annotation (write \"// moatlint: "
                 "key-source(<keyFn>)\" on the line above a struct, or "
                 "\"// moatlint: key-exempt(<keyFn>): <why>\" above a "
                 "field)",
                 false, ""});
            continue;
        }
        if (!fns_ok) {
            out.push_back(
                {path, n, "bad-suppression",
                 "malformed key annotation: the function list must be "
                 "one or more comma-separated identifiers (optionally "
                 "qualified, e.g. ResultStore::foldKey)",
                 false, ""});
            continue;
        }
        const std::string before = m.prefix();
        const bool standalone =
            before.find_first_not_of(" \t") == std::string::npos;
        an.target = standalone ? n + 1 : n;
        local.push_back(std::move(an));
    }
    // Like allow(): a standalone annotation reaches past whole-line
    // comments (justification continuations) to the code below.
    for (auto &an : local) {
        if (an.target == an.line)
            continue;
        int t = an.target;
        while (t <= static_cast<int>(comment_lines.size()) &&
               comment_lines[t - 1])
            ++t;
        an.target = t;
    }
    annos.insert(annos.end(), local.begin(), local.end());
}

// --------------------------------------------------------- resolution

void
attachAnnotations(Analysis &a, const std::vector<Annotation> &annos)
{
    const auto &srcs = *a.srcs;
    // key-source first: exempts attach to the contracts they create.
    for (const auto &an : annos) {
        if (an.exempt)
            continue;
        const KeyFile &kf = a.files[an.file];
        bool attached = false;
        for (size_t si = 0; si < kf.decls.structs.size(); ++si) {
            if (cxx::lineOf(kf.lines, kf.decls.structs[si].head) !=
                an.target)
                continue;
            Contract c;
            c.file = an.file;
            c.struct_idx = static_cast<int>(si);
            c.fns = an.fns;
            a.contracts.push_back(std::move(c));
            attached = true;
            break;
        }
        if (!attached)
            a.findings.push_back(
                {srcs[an.file].path, an.line, "key-source-drift",
                 "key-source annotation does not precede a struct or "
                 "class definition (nothing to hold to the contract)",
                 false, ""});
    }
    for (const auto &an : annos) {
        if (!an.exempt)
            continue;
        const KeyFile &kf = a.files[an.file];
        bool on_field = false;
        bool attached = false;
        for (auto &c : a.contracts) {
            if (c.file != an.file)
                continue;
            const cxx::StructDecl &s = structOf(a, c);
            for (const auto &field : s.fields) {
                if (cxx::lineOf(kf.lines, field.offset) != an.target)
                    continue;
                on_field = true;
                bool fns_match = true;
                for (const auto &fn : an.fns) {
                    bool found = false;
                    for (const auto &cfn : c.fns) {
                        if (fn == cfn ||
                            lastComp(fn) == lastComp(cfn))
                            found = true;
                    }
                    fns_match = fns_match && found;
                }
                if (!fns_match) {
                    a.findings.push_back(
                        {srcs[an.file].path, an.line,
                         "key-source-drift",
                         "key-exempt names '" + join(an.fns, ",") +
                             "', which is not a key-source function "
                             "of struct '" +
                             s.qualified + "' (declared: " +
                             join(c.fns, ", ") + ")",
                         false, ""});
                    continue;
                }
                c.exempt[field.name] = an.justification;
                attached = true;
            }
        }
        if (!attached && !on_field)
            a.findings.push_back(
                {srcs[an.file].path, an.line, "key-source-drift",
                 "key-exempt annotation is not attached to a field of "
                 "a key-source struct",
                 false, ""});
    }
}

void
resolveContracts(Analysis &a, bool tree_mode)
{
    const auto &srcs = *a.srcs;
    for (auto &c : a.contracts) {
        const cxx::StructDecl &s = structOf(a, c);
        const int head_line =
            cxx::lineOf(a.files[c.file].lines, s.head);
        for (const auto &fn : c.fns) {
            const bool qualified =
                fn.find("::") != std::string::npos;
            bool declared = false;
            bool defined = false;
            for (size_t fi = 0; fi < a.files.size(); ++fi) {
                for (const auto &fd : a.files[fi].decls.functions) {
                    const bool match = qualified
                                           ? fd.qualified == fn
                                           : fd.name == fn;
                    if (!match)
                        continue;
                    declared = true;
                    if (!fd.defined)
                        continue;
                    defined = true;
                    c.direct.push_back({static_cast<int>(fi),
                                        fd.body_begin, fd.body_end});
                    if (startsWith(fd.qualified, s.name + "::") ||
                        startsWith(fd.qualified,
                                   s.qualified + "::"))
                        c.member_fold = true;
                }
            }
            // A declared-but-not-defined key fn is fine when linting
            // a lone header (the impl lives in the unseen .cc); on a
            // full tree it means the contract checks nothing.
            if (!defined && (tree_mode || !declared))
                a.findings.push_back(
                    {srcs[c.file].path, head_line, "key-source-drift",
                     "key-source function '" + fn + "' of struct '" +
                         s.qualified +
                         "' has no definition in the linted tree; "
                         "the key contract is unverifiable",
                     false, ""});
        }
        c.resolved = !c.direct.empty();
        if (!c.resolved)
            continue;

        // Transitive closure over called names: a fold that routes
        // through helpers (hashCombine chains, subchannelsOf) still
        // covers the fields those helpers touch.
        constexpr size_t kMaxBodies = 64;
        constexpr int kMaxDepth = 6;
        std::set<std::string> visited;
        for (const auto &fn : c.fns) {
            c.called.insert(lastComp(fn));
            visited.insert(lastComp(fn));
        }
        c.closure = c.direct;
        std::deque<std::pair<Body, int>> queue;
        for (const auto &b : c.direct)
            queue.push_back({b, 0});
        while (!queue.empty() && c.closure.size() < kMaxBodies) {
            const auto [b, depth] = queue.front();
            queue.pop_front();
            const std::string body = a.files[b.file].code.substr(
                b.begin, b.end - b.begin);
            for (const auto &name : cxx::calledNames(body)) {
                c.called.insert(name);
                if (depth >= kMaxDepth)
                    continue;
                if (!visited.insert(name).second)
                    continue;
                for (size_t fi = 0; fi < a.files.size(); ++fi) {
                    for (const auto &fd :
                         a.files[fi].decls.functions) {
                        if (!fd.defined || fd.name != name)
                            continue;
                        if (c.closure.size() >= kMaxBodies)
                            break;
                        const Body nb{static_cast<int>(fi),
                                      fd.body_begin, fd.body_end};
                        c.closure.push_back(nb);
                        queue.push_back({nb, depth + 1});
                    }
                }
            }
        }
    }
}

// ------------------------------------------------------- field checks

bool
mentionsField(const std::string &body, const std::string &name,
              bool bare_ok)
{
    if (!cxx::memberRefs(body, name).empty())
        return true;
    return bare_ok && !cxx::identRefs(body, name).empty();
}

std::string
bodyText(const Analysis &a, const Body &b)
{
    return a.files[b.file].code.substr(b.begin, b.end - b.begin);
}

bool
fieldCovered(const Analysis &a, const Contract &c,
             const std::string &name)
{
    for (const auto &b : c.closure) {
        if (mentionsField(bodyText(a, b), name, c.member_fold))
            return true;
    }
    return false;
}

/** Whether any body of @p c's fold closure references `.name`. */
bool
closureRefsMember(const Analysis &a, const Contract &c,
                  const std::string &name)
{
    for (const auto &b : c.closure) {
        if (!cxx::memberRefs(bodyText(a, b), name).empty())
            return true;
    }
    return false;
}

bool
fieldInDirectFold(const Analysis &a, const Contract &c,
                  const std::string &name)
{
    for (const auto &b : c.direct) {
        if (mentionsField(bodyText(a, b), name, c.member_fold))
            return true;
    }
    return false;
}

void
checkContracts(Analysis &a)
{
    const auto &srcs = *a.srcs;
    for (const auto &c : a.contracts) {
        if (!c.resolved)
            continue;
        const cxx::StructDecl &s = structOf(a, c);
        const KeyFile &kf = a.files[c.file];
        const std::string fn_label = join(c.fns, "/");
        for (const auto &field : s.fields) {
            const int line = cxx::lineOf(kf.lines, field.offset);
            const std::string label = s.qualified + "::" + field.name;
            if (c.exempt.count(field.name)) {
                if (fieldInDirectFold(a, c, field.name))
                    a.findings.push_back(
                        {srcs[c.file].path, line, "key-exempt-leak",
                         "field '" + label +
                             "' is key-exempt but appears in the fold "
                             "body of '" +
                             fn_label +
                             "'; exempt fields must not perturb the "
                             "key (over-keying silently destroys "
                             "cache hits)",
                         false, ""});
                continue;
            }
            if (!fieldCovered(a, c, field.name)) {
                a.findings.push_back(
                    {srcs[c.file].path, line, "key-coverage",
                     "field '" + label +
                         "' is not reachable in key function '" +
                         fn_label +
                         "'; fold it (hashCombine) or annotate \"// "
                         "moatlint: key-exempt(" +
                         fn_label +
                         "): <why>\" if it must not perturb the key",
                     false, ""});
                continue;
            }
            // Nested delegation: a field whose type is itself a
            // key-source struct must route through that struct's key
            // functions, not restate (a subset of) its fields.
            for (const auto &c2 : a.contracts) {
                if (&c2 == &c)
                    continue;
                const cxx::StructDecl &t = structOf(a, c2);
                if (t.name != field.type && t.qualified != field.type)
                    continue;
                bool delegated = false;
                for (const auto &fn : c2.fns) {
                    // A member key function is called as x.fn(), which
                    // calledNames() skips: its member reference counts.
                    if (c.called.count(lastComp(fn)) ||
                        (fn.find("::") != std::string::npos &&
                         closureRefsMember(a, c, lastComp(fn))))
                        delegated = true;
                }
                if (!delegated)
                    a.findings.push_back(
                        {srcs[c.file].path, line, "key-source-drift",
                         "field '" + label +
                             "' has key-source type '" + t.qualified +
                             "' but '" + fn_label +
                             "' never calls its key function(s) '" +
                             join(c2.fns, ", ") +
                             "'; the nested key is bypassed",
                         false, ""});
                break;
            }
        }
    }
}

Analysis
analyze(const std::vector<SourceFile> &files, bool tree_mode)
{
    Analysis a;
    a.srcs = &files;
    a.files.reserve(files.size());
    std::vector<Annotation> annos;
    for (size_t i = 0; i < files.size(); ++i) {
        KeyFile kf;
        kf.code = cxx::maskSource(
            files[i].content, cxx::kMaskComments | cxx::kMaskStrings);
        kf.lines = cxx::lineStartsOf(files[i].content);
        kf.decls = cxx::scanDecls(kf.code);
        a.files.push_back(std::move(kf));
        parseAnnotations(static_cast<int>(i), files[i].content,
                         files[i].path, annos, a.findings);
    }
    attachAnnotations(a, annos);
    resolveContracts(a, tree_mode);
    checkContracts(a);
    return a;
}

void
finishFindings(std::vector<Finding> &findings)
{
    sortFindings(findings);
    findings.erase(
        std::unique(findings.begin(), findings.end(),
                    [](const Finding &x, const Finding &y) {
                        return x.file == y.file && x.line == y.line &&
                               x.rule == y.rule &&
                               x.message == y.message;
                    }),
        findings.end());
}

} // namespace

// ------------------------------------------------------------- public

bool
keyDirectiveLine(const std::string &line)
{
    static const std::regex re(
        R"(//\s*moatlint:\s*key-(source|exempt)\b)");
    return std::regex_search(line, re);
}

std::vector<Finding>
keylintFiles(const std::vector<SourceFile> &files, bool tree_mode)
{
    Analysis a = analyze(files, tree_mode);
    std::vector<Finding> findings = std::move(a.findings);
    finishFindings(findings);
    return findings;
}

MutateReport
mutateCheck(const std::vector<SourceFile> &files)
{
    MutateReport rep;
    for (const auto &f : keylintFiles(files, true)) {
        if (f.rule == "key-coverage" || f.rule == "key-exempt-leak" ||
            f.rule == "key-source-drift")
            rep.baseline.push_back(f);
    }
    if (!rep.baseline.empty())
        return rep;

    const Analysis a = analyze(files, true);
    for (const auto &c : a.contracts) {
        if (!c.resolved)
            continue;
        const cxx::StructDecl &s = structOf(a, c);
        const std::string fn_label = join(c.fns, "/");
        for (const auto &field : s.fields) {
            const std::string label = s.qualified + "::" + field.name;
            const std::string quoted = "'" + label + "'";
            MutantOutcome mo;
            mo.structName = s.qualified;
            mo.field = field.name;
            mo.keyFn = fn_label;
            if (c.exempt.count(field.name)) {
                // Re-insert the exempt field into the fold body and
                // expect key-exempt-leak.
                mo.exempt = true;
                std::vector<SourceFile> mut(files);
                const Body &b = c.direct.front();
                const std::string use =
                    c.member_fold
                        ? " (void) " + field.name + ";"
                        : " (void) qz__." + field.name + ";";
                mut[b.file].content.insert(b.begin + 1, use);
                for (const auto &fi : keylintFiles(mut, true)) {
                    if (fi.rule == "key-exempt-leak" &&
                        fi.message.find(quoted) != std::string::npos)
                        mo.caught = true;
                }
            } else {
                if (!fieldCovered(a, c, field.name))
                    continue; // baseline already reported it
                // Blank every fold mention inside the closure and
                // expect key-coverage. Masking preserves offsets, so
                // positions found in the masked code are valid in the
                // raw text.
                mo.exempt = false;
                std::vector<SourceFile> mut(files);
                const std::string filler(field.name.size(), 'q');
                for (const auto &b : c.closure) {
                    const std::string body = bodyText(a, b);
                    for (size_t off :
                         cxx::memberRefs(body, field.name))
                        mut[b.file].content.replace(
                            b.begin + off, field.name.size(), filler);
                    if (c.member_fold) {
                        for (size_t off :
                             cxx::identRefs(body, field.name))
                            mut[b.file].content.replace(
                                b.begin + off, field.name.size(),
                                filler);
                    }
                }
                for (const auto &fi : keylintFiles(mut, true)) {
                    if (fi.rule == "key-coverage" &&
                        fi.message.find(quoted) != std::string::npos)
                        mo.caught = true;
                }
            }
            rep.mutants.push_back(std::move(mo));
        }
    }
    return rep;
}

} // namespace moatlint
