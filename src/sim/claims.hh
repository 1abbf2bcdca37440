/**
 * @file
 * The paper's numbers as a checked claims table (`moatsim reproduce`).
 *
 * A claims table holds one claim per JSON line: the fields of a serve
 * RunRequest line (the request that produces the number) plus the
 * claim's own fields --
 *
 *   id       row id, e.g. "fig11.slowdown.ath64";
 *   source   where the paper's number was quoted from;
 *   paper    the paper's number, in the metric's units;
 *   metric   the result-line field measured ("norm_perf",
 *            "max_hammer", "attacker_max_hammer", ...);
 *   reduce   "mean", "max" or "min" over the request's cells;
 *   over     optional: the id of an earlier row, not itself divided,
 *            whose measured value this row's value is divided by
 *            (relative columns, ratios);
 *   lo, hi   the band, inclusive; an absent end is open;
 *   expect   "holds" or "deviates": the outcome the table records.
 *
 * Blank lines and lines starting with '#' are comments. The measured
 * value is read back from each result line with the JSONL codec, so a
 * new metric is a new row, not new code. A run passes when every row's
 * outcome is its expect: a "holds" row outside its band fails, and so
 * does a "deviates" row that has come inside it, so the table is
 * updated when fidelity improves. The band rule lives in
 * CONTRIBUTING.md.
 */

#ifndef MOATSIM_SIM_CLAIMS_HH
#define MOATSIM_SIM_CLAIMS_HH

#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

#include "sim/run_request.hh"

namespace moatsim::sim
{

/** One row of a claims table. */
struct Claim
{
    std::string id;
    std::string source;
    double paper = std::numeric_limits<double>::quiet_NaN();
    std::string metric;
    std::string reduce = "mean";
    /** Id of the row divided by; empty = none. */
    std::string over;
    double lo = -std::numeric_limits<double>::infinity();
    double hi = std::numeric_limits<double>::infinity();
    std::string expect = "holds";
    /** The request whose cells are measured. */
    RunRequest request;
    /** 1-based line of the row in its table. */
    size_t line = 0;
};

/** What running one row found. */
struct ClaimOutcome
{
    /** The reduced (and divided) measured value; NaN on error. */
    double measured = std::numeric_limits<double>::quiet_NaN();
    /** "holds", "deviates", or "error". */
    std::string outcome;
    /** Why the row could not be measured (outcome "error"). */
    std::string error;
};

/**
 * Decode and check a claims table: every row's claim fields, its
 * request (tryRunRequestOfJsonLine + validateRunRequest), unique ids,
 * and `over` references. Returns false with "line N: why" in @p err
 * (when non-null) for the first bad row; never fatal()s.
 */
bool tryParseClaims(std::istream &in, std::vector<Claim> *claims,
                    std::string *err = nullptr);

/**
 * Run every row: each distinct request once, in table order, through
 * runRequest() on @p stores with @p jobs workers, so rows sharing a
 * request share its cells and the stores dedupe cells across
 * requests. Each distinct request's result lines go to @p jsonl (when
 * non-null) in cell order. A metric that is not a numeric field of the
 * request's result lines, a failed cell compute, or a zero divisor
 * makes that row an "error"; nothing fatal()s.
 */
std::vector<ClaimOutcome> runClaims(const std::vector<Claim> &claims,
                                    const ExperimentStores &stores,
                                    unsigned jobs,
                                    std::ostream *jsonl = nullptr);

} // namespace moatsim::sim

#endif // MOATSIM_SIM_CLAIMS_HH
