#include "common/fault.hh"

#include <atomic>
#include <cstdlib>
#include <string_view>

#include "common/hash.hh"
#include "common/logging.hh"
#include "common/mutex.hh"
#include "common/number_text.hh"
#include "common/spec_text.hh"

namespace moatsim::fault
{

namespace
{

/**
 * The registered sites, one per I/O boundary in the serving stack.
 * Plans are validated against this list at arm time; a new I/O path
 * registers its site here (CONTRIBUTING.md makes this a review rule).
 */
const std::vector<std::string> kKnownSites = {
    "result-store.append", // shard append after a compute
    "result-store.read",   // per-record shard parse at load
    "trace-store.generate", // trace generation inside the store
    "serve.accept",        // the daemon's accept() call
    "serve.send",          // a server->client protocol line
    "serve.recv",          // a server-side request read
    "sweep.compute",       // one perf / co-attack cell computation
};

/** Probability denominator: rates are quantized to 1/2^20. */
constexpr uint64_t kScale = 1ULL << 20;

/** One armed spec plus its decision counter. */
struct ArmedSpec
{
    SiteSpec spec;
    /** Site name (and seed) diffused once at arm time. */
    uint64_t seed_mix = 0;
    /** rate quantized to [0, kScale]. */
    uint64_t scaled_rate = 0;
    uint64_t evaluations = 0;
    uint64_t fired = 0;

    bool matches(const char *site) const
    {
        const std::string &pattern = spec.site;
        if (!pattern.empty() && pattern.back() == '*')
            return std::string_view(site).starts_with(
                std::string_view(pattern).substr(0, pattern.size() - 1));
        return pattern == site;
    }
};

/** The process-wide armed plan. armed_flag is the hot-path gate;
 *  everything else changes only under mu. */
struct State
{
    std::atomic<bool> armed_flag{false};
    Mutex mu;
    std::vector<ArmedSpec> specs GUARDED_BY(mu);
};

State &
state()
{
    static State s;
    return s;
}

/** Whether @p site names a known site or a prefix wildcard that
 *  covers at least one. */
bool
validSite(const std::string &site)
{
    if (!site.empty() && site.back() == '*') {
        const std::string_view prefix =
            std::string_view(site).substr(0, site.size() - 1);
        for (const auto &known : kKnownSites) {
            if (std::string_view(known).starts_with(prefix))
                return true;
        }
        return false;
    }
    for (const auto &known : kKnownSites) {
        if (known == site)
            return true;
    }
    return false;
}

/** Parse one site@rate[:seed] token into @p spec. */
bool
tryParseSpec(const std::string &token, SiteSpec *spec, std::string *err)
{
    const size_t at = token.find('@');
    if (at == std::string::npos || at == 0) {
        *err = "fault spec '" + token + "' is not site@rate[:seed]";
        return false;
    }
    spec->site = token.substr(0, at);
    if (!validSite(spec->site)) {
        *err = "unknown fault site '" + spec->site + "'";
        return false;
    }
    std::string rate_text = token.substr(at + 1);
    spec->seed = 1;
    if (const size_t colon = rate_text.find(':');
        colon != std::string::npos) {
        const std::string seed_text = rate_text.substr(colon + 1);
        rate_text.resize(colon);
        if (!parseDecimal(seed_text, &spec->seed)) {
            *err = "fault spec '" + token + "' has a malformed seed '" +
                   seed_text + "'";
            return false;
        }
    }
    if (!parseDouble(rate_text, &spec->rate) || !(spec->rate >= 0.0) ||
        spec->rate > 1.0) {
        *err = "fault spec '" + token + "' needs a rate in [0, 1], got '" +
               rate_text + "'";
        return false;
    }
    return true;
}

} // namespace

InjectedFault::InjectedFault(const std::string &site)
    : std::runtime_error("injected fault at site " + site), site_(site)
{
}

bool
tryParsePlan(const std::string &text, Plan *plan, std::string *err)
{
    plan->specs.clear();
    for (const std::string &token : splitList(text, ',')) {
        if (token.empty()) {
            *err = "fault plan has an empty spec";
            return false;
        }
        SiteSpec spec;
        if (!tryParseSpec(token, &spec, err))
            return false;
        plan->specs.push_back(spec);
    }
    if (plan->specs.empty()) {
        *err = "fault plan is empty";
        return false;
    }
    return true;
}

void
arm(const Plan &plan)
{
    State &s = state();
    MutexLock lock(s.mu);
    s.specs.clear();
    for (const auto &spec : plan.specs) {
        ArmedSpec armed_spec;
        armed_spec.spec = spec;
        armed_spec.seed_mix =
            hashCombine(hashMix(spec.seed), stableHash64(spec.site));
        // llround-free quantization keeps this constexpr-friendly and
        // exact at the endpoints (0 never fires, 1 always fires).
        armed_spec.scaled_rate =
            static_cast<uint64_t>(spec.rate * static_cast<double>(kScale));
        if (spec.rate >= 1.0)
            armed_spec.scaled_rate = kScale;
        s.specs.push_back(armed_spec);
    }
    s.armed_flag.store(!s.specs.empty(), std::memory_order_relaxed);
}

void
arm(const std::string &text)
{
    Plan plan;
    std::string err;
    if (!tryParsePlan(text, &plan, &err))
        fatal("faults: " + err +
              " (see README.md \"Failure model\" for the site catalog)");
    arm(plan);
}

void
armFromEnv()
{
    // getenv is read at startup before any worker threads exist, and
    // nothing in the process mutates the environment.
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    if (const char *s = std::getenv("MOATSIM_FAULTS")) {
        if (*s != '\0')
            arm(std::string(s));
    }
}

void
disarm()
{
    State &s = state();
    MutexLock lock(s.mu);
    s.specs.clear();
    s.armed_flag.store(false, std::memory_order_relaxed);
}

bool
armed()
{
    return state().armed_flag.load(std::memory_order_relaxed);
}

bool
shouldFail(const char *site)
{
    if (!armed())
        return false;
    State &s = state();
    MutexLock lock(s.mu);
    bool fire = false;
    for (auto &spec : s.specs) {
        if (!spec.matches(site))
            continue;
        // The n-th evaluation of a spec fires as a pure function of
        // (site, seed, n) -- reproducible, clock-free, RNG-free.
        const uint64_t draw =
            hashCombine(spec.seed_mix, spec.evaluations) % kScale;
        ++spec.evaluations;
        if (draw < spec.scaled_rate) {
            ++spec.fired;
            fire = true;
        }
    }
    return fire;
}

void
failPoint(const char *site)
{
    if (shouldFail(site))
        throw InjectedFault(site);
}

std::vector<SiteStats>
stats()
{
    State &s = state();
    MutexLock lock(s.mu);
    std::vector<SiteStats> out;
    out.reserve(s.specs.size());
    for (const auto &spec : s.specs) {
        SiteStats st;
        st.site = spec.spec.site;
        st.evaluations = spec.evaluations;
        st.fired = spec.fired;
        out.push_back(st);
    }
    return out;
}

const std::vector<std::string> &
knownSites()
{
    return kKnownSites;
}

} // namespace moatsim::fault
