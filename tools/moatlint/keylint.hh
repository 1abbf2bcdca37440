/**
 * @file
 * keylint: the semantic key-soundness pass of moatlint.
 *
 * moatsim serves answers from content-addressed caches (TraceStore,
 * ResultStore): a config field that shapes results but is not folded
 * into its key silently returns stale data on warm runs, and a field
 * that must NOT perturb the key (jobs counts, output paths, store
 * toggles) destroys cache hits if it leaks into the fold. Both bugs
 * are invisible to tests until someone varies the exact field, so --
 * in the spirit of clang's Thread Safety Analysis, as already adopted
 * for locks in common/thread_annotations.hh -- the invariant is
 * annotated at the struct and machine-checked on every build:
 *
 *     // moatlint: key-source(configKey)
 *     struct TraceGenConfig { ... };
 *
 * declares that every field of TraceGenConfig must be reachable in the
 * fold body of configKey (direct `.field` mention, a hashCombine chain
 * through helper functions, or a nested struct's own key-source), and
 *
 *     // moatlint: key-exempt(configKey): scheduling knob, results
 *     // are bit-identical at any value
 *     unsigned jobs = 0;
 *
 * declares the opposite contract for one field: it must be ABSENT
 * from the fold. Key functions may be named bare (configKey) or
 * qualified (ResultStore::foldKey, DeviceSpec::describe); a
 * key-source may list several functions separated by commas, and a
 * field is covered when the union of their fold closures reaches it.
 *
 * Rules emitted (suppressable with the usual allow() grammar):
 *
 *   key-coverage     a non-exempt field of a key-source struct is not
 *                    reachable in the key function's fold closure.
 *   key-exempt-leak  a key-exempt field appears in the fold body
 *                    (over-keying: cache hits silently vanish).
 *   key-source-drift the annotation and the code disagree: the key
 *                    function has no definition in the linted tree,
 *                    the annotation is not attached to a struct or
 *                    field, a key-exempt names a function that is not
 *                    a key-source of its struct, or a field of a
 *                    key-source type never calls that type's key
 *                    functions (nested key bypassed; a member key
 *                    function such as MitigatorSpec::describe is
 *                    called as x.describe()).
 *
 * The pass ships its own regression oracle: mutateCheck() deletes one
 * field's fold mentions (or re-inserts an exempt field) in an
 * in-memory copy of the tree and asserts the pass fires -- proving
 * the analyzer detects the bug class it exists for, not just that the
 * current tree is clean.
 */

#ifndef MOATLINT_KEYLINT_HH
#define MOATLINT_KEYLINT_HH

#include "moatlint/lint.hh"

#include <string>
#include <vector>

namespace moatlint
{

/**
 * Run the key-soundness pass over @p files (every file of the linted
 * tree, so cross-file key functions resolve). Returns raw findings;
 * the caller (lintFiles) applies suppressions. When @p tree_mode is
 * false (lintSource on one snippet), a key function that is declared
 * but not defined in the snippet is not reported as drift -- fixture
 * and header-only views stay quiet.
 */
std::vector<Finding> keylintFiles(const std::vector<SourceFile> &files,
                                  bool tree_mode);

/**
 * Whether @p line contains a key-source/key-exempt directive in any
 * spelling. lint.cc's unknown-directive check uses it to leave key
 * annotations to this pass (which validates them properly and reports
 * malformed ones as bad-suppression).
 */
bool keyDirectiveLine(const std::string &line);

/** One seeded mutation of the tree and whether keylint caught it. */
struct MutantOutcome
{
    /** Qualified struct name ("ResultStore::Config"). */
    std::string structName;
    std::string field;
    /** Key function(s) of the contract, comma-joined. */
    std::string keyFn;
    /** True: re-inserted a key-exempt field (expects key-exempt-leak);
     *  false: deleted a covered field's fold (expects key-coverage). */
    bool exempt = false;
    bool caught = false;
};

/** mutateCheck() result: the oracle passes when baseline is empty and
 *  every mutant was caught. */
struct MutateReport
{
    /** Key-rule findings already present before mutating (the tree
     *  must be clean for the oracle to be meaningful). */
    std::vector<Finding> baseline;
    std::vector<MutantOutcome> mutants;

    bool ok() const
    {
        if (!baseline.empty() || mutants.empty())
            return false;
        for (const auto &m : mutants) {
            if (!m.caught)
                return false;
        }
        return true;
    }
};

/**
 * The analyzer's self-test: for every key-source contract in @p files,
 * (a) for each covered field, blank its fold mentions inside the key
 * closure and assert key-coverage fires for exactly that field, and
 * (b) for each key-exempt field, insert a use into the fold body and
 * assert key-exempt-leak fires. Mutations are applied to in-memory
 * copies; nothing on disk changes. Collateral findings on other
 * contracts sharing a fold helper are expected and ignored.
 */
MutateReport mutateCheck(const std::vector<SourceFile> &files);

} // namespace moatlint

#endif // MOATLINT_KEYLINT_HH
