/**
 * @file
 * moatlint CLI.
 *
 *     moatlint [--root DIR] [--json FILE] [--sarif FILE]
 *              [--pass textual|semantic] [--mutate-check]
 *              [--list-rules] [--verbose] [dir...]
 *
 * Lints the union of the given dirs (default: src tools tests)
 * relative to --root (default: cwd) as ONE tree -- key functions and
 * suppressions resolve across directory boundaries -- prints findings
 * as "file:line: [rule] message", and exits 1 when any finding lacks
 * a valid suppression. --json/--sarif write the machine-readable
 * reports ("-" for stdout); --pass restricts the printed findings and
 * the exit code to one engine layer; --mutate-check runs the keylint
 * self-test (mutate every key-source field in an in-memory copy of
 * the tree and assert the pass fires) instead of a normal lint;
 * --verbose also prints suppressed findings with justifications.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "moatlint/keylint.hh"
#include "moatlint/lint.hh"

namespace
{

int
usage(const char *argv0, int code)
{
    std::fprintf(
        code == 0 ? stdout : stderr,
        "usage: %s [--root DIR] [--json FILE] [--sarif FILE]\n"
        "          [--pass textual|semantic] [--mutate-check]\n"
        "          [--list-rules] [--verbose] [dir...]\n"
        "Lints the union of the dirs (default: src tools tests) under\n"
        "--root (default: .) as one tree.\n"
        "Exits 1 if any finding lacks a valid suppression (or, with\n"
        "--mutate-check, if the keylint self-test fails).\n",
        argv0);
    return code;
}

int
runMutateCheck(const std::vector<moatlint::SourceFile> &files)
{
    const moatlint::MutateReport rep = moatlint::mutateCheck(files);
    if (!rep.baseline.empty()) {
        for (const auto &f : rep.baseline)
            std::printf("%s:%d: [%s] %s\n", f.file.c_str(), f.line,
                        f.rule.c_str(), f.message.c_str());
        std::fprintf(stderr,
                     "moatlint: mutate-check needs a clean baseline; "
                     "%zu key finding(s) present\n",
                     rep.baseline.size());
        return 1;
    }
    std::size_t caught = 0;
    for (const auto &m : rep.mutants) {
        if (m.caught) {
            ++caught;
            continue;
        }
        std::fprintf(stderr,
                     "moatlint: mutant NOT caught: %s::%s (%s, "
                     "expected %s)\n",
                     m.structName.c_str(), m.field.c_str(),
                     m.keyFn.c_str(),
                     m.exempt ? "key-exempt-leak" : "key-coverage");
    }
    std::fprintf(stderr,
                 "moatlint: mutate-check: %zu/%zu mutants caught "
                 "across the key-source contracts\n",
                 caught, rep.mutants.size());
    if (rep.mutants.empty()) {
        std::fprintf(stderr,
                     "moatlint: mutate-check found no key-source "
                     "contracts to mutate\n");
        return 1;
    }
    return caught == rep.mutants.size() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string root = ".";
    std::string json_path;
    std::string sarif_path;
    std::string pass_filter;
    bool list_rules = false;
    bool verbose = false;
    bool mutate_check = false;
    std::vector<std::string> dirs;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--root" && i + 1 < argc) {
            root = argv[++i];
        } else if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else if (arg == "--sarif" && i + 1 < argc) {
            sarif_path = argv[++i];
        } else if (arg == "--pass" && i + 1 < argc) {
            pass_filter = argv[++i];
            if (pass_filter != "textual" && pass_filter != "semantic") {
                std::fprintf(stderr,
                             "moatlint: --pass must be textual or "
                             "semantic, got %s\n",
                             pass_filter.c_str());
                return 2;
            }
        } else if (arg == "--mutate-check") {
            mutate_check = true;
        } else if (arg == "--list-rules") {
            list_rules = true;
        } else if (arg == "--verbose" || arg == "-v") {
            verbose = true;
        } else if (arg == "--help" || arg == "-h") {
            return usage(argv[0], 0);
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "moatlint: unknown option %s\n",
                         arg.c_str());
            return usage(argv[0], 2);
        } else {
            dirs.push_back(arg);
        }
    }

    if (list_rules) {
        for (const auto &r : moatlint::rules())
            std::printf("%-16s [%s] %s\n", r.name.c_str(),
                        moatlint::passOf(r.name), r.summary.c_str());
        return 0;
    }

    if (dirs.empty())
        dirs = {"src", "tools", "tests"};

    // One combined file set: keylint's cross-file fold-closure reach
    // sees every directory at once.
    std::vector<moatlint::SourceFile> files;
    for (const auto &dir : dirs) {
        const std::filesystem::path tree =
            std::filesystem::path(root) / dir;
        if (!std::filesystem::exists(tree)) {
            std::fprintf(stderr, "moatlint: no such directory: %s\n",
                         tree.string().c_str());
            return 2;
        }
        auto part = moatlint::readSourceTree(tree.string());
        files.insert(files.end(), part.begin(), part.end());
    }

    if (mutate_check)
        return runMutateCheck(files);

    std::vector<moatlint::Finding> findings =
        moatlint::lintFiles(files);
    if (!pass_filter.empty()) {
        std::erase_if(findings, [&](const moatlint::Finding &f) {
            return pass_filter != moatlint::passOf(f.rule);
        });
    }
    moatlint::sortFindings(findings);

    std::size_t suppressed = 0;
    for (const auto &f : findings) {
        if (f.suppressed) {
            ++suppressed;
            if (verbose)
                std::printf(
                    "%s:%d: [%s] suppressed: %s (justification: %s)\n",
                    f.file.c_str(), f.line, f.rule.c_str(),
                    f.message.c_str(), f.justification.c_str());
            continue;
        }
        std::printf("%s:%d: [%s] %s\n", f.file.c_str(), f.line,
                    f.rule.c_str(), f.message.c_str());
    }

    const auto write_report = [&](const std::string &path,
                                  const std::string &report) {
        if (path == "-") {
            std::printf("%s\n", report.c_str());
            return true;
        }
        std::ofstream os(path, std::ios::binary);
        if (!os) {
            std::fprintf(stderr, "moatlint: cannot write %s\n",
                         path.c_str());
            return false;
        }
        os << report << "\n";
        return true;
    };
    if (!json_path.empty() &&
        !write_report(json_path, moatlint::reportJson(findings)))
        return 2;
    if (!sarif_path.empty() &&
        !write_report(sarif_path, moatlint::reportSarif(findings)))
        return 2;

    const std::size_t bad = moatlint::unsuppressedCount(findings);
    std::fprintf(stderr,
                 "moatlint: %zu finding(s), %zu unsuppressed, "
                 "%zu suppressed\n",
                 findings.size(), bad, suppressed);
    return bad == 0 ? 0 : 1;
}
