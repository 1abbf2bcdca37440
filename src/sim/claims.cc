#include "sim/claims.hh"

#include <algorithm>
#include <cmath>
#include <istream>
#include <map>
#include <ostream>

#include "common/mutex.hh"
#include "common/number_text.hh"
#include "common/stats.hh"
#include "sim/result_io.hh"

namespace moatsim::sim
{

namespace
{

/** The claim's own fields; every other field of the line belongs to
 *  its request. */
void
fields(JsonLineReader &v, Claim &c)
{
    v.field("id", c.id);
    v.field("source", c.source);
    v.field("paper", c.paper);
    v.field("metric", c.metric);
    v.field("reduce", c.reduce);
    v.field("over", c.over);
    v.field("lo", c.lo);
    v.field("hi", c.hi);
    v.field("expect", c.expect);
}

/** Why @p c is not a well-formed claim, or empty. */
std::string
claimError(const Claim &c)
{
    for (const auto &[name, value] :
         {std::pair{"id", &c.id}, std::pair{"source", &c.source},
          std::pair{"metric", &c.metric}}) {
        if (value->empty())
            return std::string("missing field '") + name + "'";
    }
    if (std::isnan(c.paper))
        return "missing field 'paper'";
    if (c.reduce != "mean" && c.reduce != "max" && c.reduce != "min")
        return "reduce must be \"mean\", \"max\" or \"min\", got \"" +
               c.reduce + "\"";
    if (c.expect != "holds" && c.expect != "deviates")
        return "expect must be \"holds\" or \"deviates\", got \"" +
               c.expect + "\"";
    if (std::isinf(c.lo) && std::isinf(c.hi))
        return "a band needs 'lo', 'hi' or both";
    if (c.lo > c.hi)
        return "lo is above hi";
    return "";
}

/** One request's result lines in cell order, or why it failed. */
struct RequestRun
{
    std::vector<std::string> lines;
    std::string error;
};

/** @p claim's metric over the lines of @p run, reduced into @p out;
 *  returns why it cannot be measured, or empty. */
std::string
measure(const Claim &claim, const RequestRun &run, double *out)
{
    if (!run.error.empty())
        return run.error;
    std::vector<double> xs;
    for (const std::string &line : run.lines) {
        std::string text;
        double x = 0.0;
        if (!tryJsonField(line, claim.metric, &text) ||
            !parseDouble(text, &x))
            return "metric '" + claim.metric +
                   "' is not a numeric field of " + claim.request.kind +
                   " result lines";
        xs.push_back(x);
    }
    if (xs.empty())
        return "the request produced no cells";
    if (claim.reduce == "max")
        *out = *std::max_element(xs.begin(), xs.end());
    else if (claim.reduce == "min")
        *out = *std::min_element(xs.begin(), xs.end());
    else
        *out = mean(xs);
    return "";
}

} // namespace

bool
tryParseClaims(std::istream &in, std::vector<Claim> *claims,
               std::string *err)
{
    const auto fail = [err](size_t line, const std::string &why) {
        if (err != nullptr)
            *err = "line " + std::to_string(line) + ": " + why;
        return false;
    };
    std::vector<Claim> out;
    std::map<std::string, size_t> rowOf;
    std::string text;
    for (size_t line = 1; std::getline(in, text); ++line) {
        if (text.empty() || text.front() == '#')
            continue;
        Claim c;
        c.line = line;
        JsonLineReader reader(text, JsonLineReader::Absent::Keep);
        fields(reader, c);
        if (!reader.ok())
            return fail(line, reader.error());
        std::string why = claimError(c);
        if (!why.empty())
            return fail(line, why);
        if (!tryRunRequestOfJsonLine(text, &c.request, &why) ||
            !validateRunRequest(c.request, &why))
            return fail(line, why);
        if (!rowOf.emplace(c.id, out.size()).second)
            return fail(line, "duplicate id \"" + c.id + "\"");
        out.push_back(std::move(c));
    }
    // A divisor is an earlier, undivided row: no chains, no cycles,
    // and runClaims() has measured it by the time it divides.
    for (const Claim &c : out) {
        if (c.over.empty())
            continue;
        const auto it = rowOf.find(c.over);
        if (it == rowOf.end() || out[it->second].line > c.line)
            return fail(c.line, "over names no earlier row \"" + c.over +
                                    "\"");
        if (!out[it->second].over.empty())
            return fail(c.line, "over names row \"" + c.over +
                                    "\", which is itself divided");
    }
    *claims = std::move(out);
    return true;
}

std::vector<ClaimOutcome>
runClaims(const std::vector<Claim> &claims, const ExperimentStores &stores,
          unsigned jobs, std::ostream *jsonl)
{
    std::vector<ClaimOutcome> out(claims.size());
    std::map<uint64_t, RequestRun> runs;
    std::map<std::string, size_t> rowOf;
    for (size_t i = 0; i < claims.size(); ++i) {
        const Claim &c = claims[i];
        ClaimOutcome &o = out[i];
        rowOf.emplace(c.id, i);
        const auto [it, fresh] = runs.try_emplace(requestKey(c.request));
        RequestRun &run = it->second;
        if (fresh) {
            RunRequest req = c.request;
            req.jobs = jobs;
            Mutex mu;
            const auto sink = [&run, &mu](size_t index,
                                          const std::string &line) {
                MutexLock lock(mu);
                run.lines.resize(std::max(run.lines.size(), index + 1));
                run.lines[index] = line;
            };
            try {
                runRequest(req, stores, sink);
            } catch (const std::exception &e) {
                run.error = std::string("cell compute failed: ") + e.what();
            }
            if (jsonl != nullptr && run.error.empty()) {
                for (const std::string &line : run.lines)
                    *jsonl << line << '\n';
            }
        }
        std::string err = measure(c, run, &o.measured);
        if (err.empty() && !c.over.empty()) {
            const auto d = rowOf.find(c.over);
            if (d == rowOf.end() || out[d->second].outcome == "error" ||
                out[d->second].measured == 0.0)
                err = "cannot divide by row \"" + c.over + "\"";
            else
                o.measured /= out[d->second].measured;
        }
        if (!err.empty()) {
            o = {std::numeric_limits<double>::quiet_NaN(), "error", err};
            continue;
        }
        o.outcome = o.measured >= c.lo && o.measured <= c.hi ? "holds"
                                                              : "deviates";
    }
    return out;
}

} // namespace moatsim::sim
