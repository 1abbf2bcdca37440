/**
 * @file
 * moatlint: repo-specific determinism and cache-key linter.
 *
 * moatsim's headline guarantee -- bit-identical sweep results at any
 * --jobs count, on any host, with any stdlib -- rests on source-level
 * invariants no off-the-shelf tool knows:
 *
 *   std-hash         std::hash is implementation-defined; every seed
 *                    must derive from the FNV-1a cell keys in
 *                    common/hash.hh.
 *   libc-rand        rand()/std::random_device/... draw from global or
 *                    hardware state; all randomness goes through
 *                    common/rng.hh seeded from stable keys.
 *   wall-clock       wall-clock reads make results time-dependent;
 *                    simulation time is common/time.hh picoseconds.
 *   unordered-iter   iteration order of std::unordered_{map,set} is
 *                    unspecified; iterating one can leak that order
 *                    into results, JSONL, or eviction decisions.
 *   pointer-order    pointer values differ run to run (ASLR); ordering
 *                    or comparing them in replay/sweep code
 *                    (src/{sim,subchannel,workload}) breaks replay
 *                    determinism.
 *   jsonl-stability  JSONL emitters format doubles with "%.17g"
 *                    (byte-stable, round-trip exact); other float
 *                    conversions and std::setprecision are banned in
 *                    emitting files (files that format JSON themselves
 *                    via toJsonLine/jsonField, JsonLineWriter or
 *                    jsonDouble, or that opt in with a MOATSIM_JSONL
 *                    marker comment).
 *   magic-geometry   raw Table-3 geometry literals (64 * 1024 row
 *                    counts, `banks... = 32`) outside the device
 *                    tables (dram/device.*, dram/timing.hh); geometry
 *                    derives from the DeviceModel single source of
 *                    truth.
 *   single-flight    std::promise / std::shared_future in src/
 *                    outside common/single_flight.hh; compute-once
 *                    caches are SingleFlight fronts.
 *   fan-out          std::thread / std::jthread / std::async in src/
 *                    outside common/thread_pool.{hh,cc} and
 *                    sim/serve.{hh,cc}, and parallelFor outside
 *                    common/thread_pool.{hh,cc} and sim/sweep.cc;
 *                    cells fan out through SweepEngine's parallelFor,
 *                    and serve's per-connection threads are blocking
 *                    readers, not cell work.
 *   key-coverage     a field of a `// moatlint: key-source(fn)` struct
 *                    is not reachable in fn's fold closure (keylint.hh
 *                    -- the semantic layer on tools/moatlint/cxx_scan).
 *   key-exempt-leak  a `// moatlint: key-exempt(fn)` field appears in
 *                    fn's fold body (over-keying kills cache hits).
 *   key-source-drift a key annotation and the code disagree (missing
 *                    key-fn definition, annotation not on a
 *                    struct/field, nested key-source bypassed).
 *   bad-suppression  a moatlint comment naming an unknown rule or
 *                    directive, missing its justification, or -- the
 *                    stale-suppression audit -- a well-formed allow()
 *                    whose target line no longer triggers the rule.
 *
 * Findings carry file/line diagnostics. A finding is suppressed -- but
 * still reported, with its justification -- by an inline comment on
 * the same line, or on its own line above (further whole-line comments
 * may continue the justification between it and the code):
 *
 *     // moatlint: allow(unordered-iter): commutative counting only
 *
 * The justification is mandatory; suppressions without one (or naming
 * an unknown rule) surface as bad-suppression findings and do not
 * suppress anything.
 *
 * The engine has two layers, both toolchain-free and running in
 * milliseconds: the determinism rules above are textual
 * (comment/string-aware token scanning), while the key-* rules are
 * semantic -- they ride on the cxx_scan.hh tokenizer/declaration
 * scanner and reason about struct fields and function-body reach
 * across header/impl pairs (see keylint.hh). reportJson() labels each
 * finding with its `pass` ("textual" or "semantic");
 * tests/test_moatlint.cc pins each rule's behaviour with fixture
 * snippets and asserts the real tree is clean.
 */

#ifndef MOATLINT_LINT_HH
#define MOATLINT_LINT_HH

#include <cstddef>
#include <string>
#include <vector>

namespace moatlint
{

/** One diagnostic of one rule at one source line. */
struct Finding
{
    /** Path as reported (relative to the linted tree's parent). */
    std::string file;
    /** 1-based line. */
    int line = 0;
    /** Rule name (see rules()). */
    std::string rule;
    std::string message;
    /** True when an allow() comment with a justification covers it. */
    bool suppressed = false;
    /** The suppression's justification text (when suppressed). */
    std::string justification;
};

/** Name and one-line summary of one rule. */
struct RuleInfo
{
    std::string name;
    std::string summary;
};

/** Every rule the engine knows, in stable order. */
const std::vector<RuleInfo> &rules();

/** Whether @p name names a known rule. */
bool ruleKnown(const std::string &name);

/** Which engine layer emits @p rule: "semantic" for the key-* rules
 *  (cxx_scan-based), "textual" for everything else. Stable -- the
 *  --json report's `pass` field and the SARIF rule properties use it
 *  verbatim. */
const char *passOf(const std::string &rule);

/** One file of a linted tree, by display path and contents. */
struct SourceFile
{
    /** Path as reported in findings (e.g. "src/sim/perf.cc"). */
    std::string path;
    std::string content;
};

/**
 * The .cc/.hh/.cpp/.hpp/.h files under @p root (recursively), sorted
 * by path, with display paths relative to @p root's parent directory
 * (linting <repo>/src yields "src/..." paths).
 */
std::vector<SourceFile> readSourceTree(const std::string &root);

/**
 * Lint a whole tree given in memory: per-file textual rules, the
 * keylint pass, then one suppression application across everything
 * -- which is also where the stale-suppression audit runs (a valid
 * allow() that matched no finding becomes a bad-suppression).
 * lintTree() is lintFiles(readSourceTree(root)); mutateCheck() feeds
 * it mutated copies.
 */
std::vector<Finding> lintFiles(const std::vector<SourceFile> &files);

/**
 * Lint one file's contents. @p path scopes path-dependent rules
 * (pointer-order, jsonl-stability) and labels the findings.
 * @p extra_unordered names identifiers to treat as unordered
 * containers in addition to those declared in @p content (lintTree
 * passes the paired header's declarations so a .cc iterating a
 * member declared in its .hh is still caught).
 */
std::vector<Finding>
lintSource(const std::string &path, const std::string &content,
           const std::vector<std::string> &extra_unordered = {});

/**
 * Lint every .cc/.hh/.cpp/.hpp/.h under @p root (recursively), in
 * sorted path order, then run the keylint pass across the whole set.
 * Findings report paths relative to @p root's parent directory, so
 * linting <repo>/src yields "src/..." paths.
 */
std::vector<Finding> lintTree(const std::string &root);

/** Findings sorted by (file, line, rule, message). */
void sortFindings(std::vector<Finding> &findings);

/** Number of findings not covered by a valid suppression. */
std::size_t unsuppressedCount(const std::vector<Finding> &findings);

/**
 * Machine-readable report: one JSON object with the rule list, every
 * finding (sorted; suppressed ones included with their justification
 * and each labelled with its `pass`), and summary counts. Byte-stable
 * for identical findings.
 */
std::string reportJson(const std::vector<Finding> &findings);

/**
 * SARIF 2.1.0 report (one run, driver "moatlint") for code-scanning
 * upload: every rule in the driver's rule list, every finding as a
 * result with physical location; suppressed findings carry an
 * inSource suppression so they do not open alerts. Byte-stable for
 * identical findings.
 */
std::string reportSarif(const std::vector<Finding> &findings);

} // namespace moatlint

#endif // MOATLINT_LINT_HH
