/**
 * @file
 * The one parsed request type every sweep entry point shares.
 *
 * The CLI subcommands (`perf`, `coattack`, `attack`), the in-process
 * API (sim::Experiment, sim::SweepEngine), and the `moatsim serve`
 * socket protocol all denote a run the same way: the spec strings the
 * registry and the device model already parse, plus the handful of
 * scalar knobs of an ExperimentConfig. RunRequest is that denotation
 * as one struct with two codecs -- CLI flags (runRequestOfArgs) and a
 * byte-stable JSON line (toJsonLine / tryRunRequestOfJsonLine) -- so
 * the socket API and the in-process API are literally the same parsed
 * object and serve.cc contains no third parsing path.
 *
 * Validation is split from parsing: tryRunRequestOfJsonLine() only
 * decodes, validateRunRequest() checks every field against the
 * registries without fatal()ing, so a daemon can reject a bad request
 * with an error line instead of dying.
 */

#ifndef MOATSIM_SIM_RUN_REQUEST_HH
#define MOATSIM_SIM_RUN_REQUEST_HH

#include <cstdint>
#include <functional>
#include <string>

#include "abo/abo.hh"
#include "common/args.hh"
#include "mitigation/registry.hh"
#include "sim/experiment.hh"

namespace moatsim::sim
{

/** One sweep request: everything a perf, co-attack or attack run
 *  needs. Every result-shaping field must be folded into requestKey()
 *  (the serve protocol's dedupe identity); scheduling knobs that must
 *  NOT perturb results are key-exempt. keylint proves both directions on
 *  every build (see tools/moatlint/keylint.hh). */
// moatlint: key-source(requestKey)
struct RunRequest
{
    /** "perf", "coattack" or "attack" (one isolated attack cell;
     *  reads mitigator, device, level and the attack fields below). */
    std::string kind = "perf";
    /** Mitigator spec text (mitigation::Registry grammar). */
    std::string mitigator = "moat";
    /** Device spec text; empty = the hand-assembled Table-3 default. */
    std::string device;
    /** Table-4 workload name, or "all" for the whole suite. */
    std::string workload = "all";
    /** ABO level (1, 2, or 4). */
    int level = 1;
    /** Fraction of a tREFW to simulate (tracegen.windowFraction). */
    double fraction = 0.0625;
    /** Sub-channels simulated per (channel, rank). */
    uint32_t subchannels = 2;
    /** Trace-generator seed. */
    uint64_t seed = 7;
    /** Worker threads; 0 = hardware concurrency. */
    // moatlint: key-exempt(requestKey): results are bit-identical at
    // any jobs count (the determinism headline), so two requests
    // differing only here must dedupe to one computation
    unsigned jobs = 0;

    // ----- coattack and attack --------------------------------------
    /** Attack pattern: one of attacks::attackPatterns() for an
     *  attack, of workload::attackTracePatterns() (which has "none")
     *  for a coattack. */
    std::string pattern = "hammer";
    /** Rows in the attack pool (0 = pattern default). */
    uint32_t poolRows = 0;
    /** Attacker activation budget (0 = the pattern's default; a
     *  co-attack spans the window). */
    uint64_t budget = 0;

    // ----- attack only ---------------------------------------------
    /** Phase trials of a phase-sweeping pattern (0 = its default). */
    uint32_t trials = 0;
    /** Banks a throughput pattern drives at once (0 = one). */
    uint32_t banks = 0;

    // ----- coattack only -------------------------------------------
    /** Sub-channel replay slot the attacker pins. */
    uint32_t attackSubchannel = 0;
    /** Bank (within that slot) the attacker pins. */
    uint32_t attackBank = 0;
    /** Attack-trace seed. */
    uint64_t attackSeed = 1;
};

/** The ABO level @p level names; fatal()s unless it is 1, 2, or 4
 *  (CLI codec). */
abo::Level levelOf(uint64_t level);

/**
 * MOAT-L couples the tracker size to the ABO level (Appendix D). When
 * a moat spec leaves "entries" unset, bind it to @p level so that
 * `--mitigator moat --level 4` means MOAT-L4. Specs that pin entries,
 * and other designs, pass through unchanged.
 */
mitigation::MitigatorSpec
withMoatLevelEntries(const mitigation::MitigatorSpec &spec,
                     abo::Level level);

/**
 * The mitigator of a request being assembled from CLI flags: the
 * --mitigator spec when present (legacy --ath/--eth then conflict),
 * otherwise a fully explicit MOAT spec built from --ath/--eth and
 * their paper defaults; either way MOAT-L entries bind to @p level.
 * fatal()s on malformed input (CLI codec).
 */
mitigation::MitigatorSpec mitigatorOfArgs(const Args &args,
                                          abo::Level level);

/**
 * Decode @p kind ("perf"/"coattack"/"attack") plus the shared CLI
 * flags into a request; each kind reads only the flags it uses. An
 * attack request without --mitigator (or --ath/--eth) runs against
 * its pattern's own design. The --device flag is left to the caller
 * (the perf CLI sweeps a semicolon-separated device list, one request
 * per grade). fatal()s on malformed input (CLI codec).
 */
RunRequest runRequestOfArgs(const std::string &kind, const Args &args);

/** One RunRequest as a byte-stable JSON line (the serve protocol's
 *  request form; no trailing newline). */
std::string toJsonLine(const RunRequest &req);

/**
 * Content-address of a request: a stable 64-bit fold (FNV-1a,
 * common/hash.hh) of every result-shaping field. Two requests with
 * equal keys produce byte-identical result lines; the scheduling knob
 * (jobs) is deliberately absent so requests differing only there
 * dedupe. The attack fields fold only for the kinds that read them,
 * mirroring toJsonLine(). The serve daemon reports it in the done line and
 * clients can use it to correlate sweeps across sessions.
 */
uint64_t requestKey(const RunRequest &req);

/**
 * Decode a toJsonLine(RunRequest) line. Absent fields keep their
 * defaults (forward compatibility); a malformed present field fails.
 * Returns false -- with a diagnostic in @p err when non-null -- and
 * never fatal()s: the serve loop treats bad requests as data.
 */
bool tryRunRequestOfJsonLine(const std::string &line, RunRequest *req,
                             std::string *err = nullptr);

/**
 * Check every field against the registries (mitigator and device
 * specs, workload name, attack pattern, level, fraction, attack slot
 * and bank bounds), an attack request against its pattern's plan
 * (attacks::checkAttack), and the traces
 * a perf or co-attack request generates (workload::checkTraceGen,
 * workload::checkAttackTrace) without fatal()ing. Returns false with
 * a diagnostic in @p err when non-null.
 */
bool validateRunRequest(const RunRequest &req, std::string *err = nullptr);

/** Sub-channel replay slots of the request's device topology:
 *  channels x ranks x subchannels (1 x 1 for the default device). */
uint32_t slotCountOf(const RunRequest &req);

/**
 * Admission-control cost proxy of a validated request: the summed
 * ACT-PKI of the selected workloads scaled by the simulated window
 * fraction and slot count (co-attack runs count double for the
 * attack-free baseline). Proportional to replayed events, cheap to
 * compute, and deliberately unitless -- `moatsim serve --max-cost`
 * budgets against it. An attack request is priced on the same scale
 * by the activations its pattern's plan issues (attacks::AttackPlan),
 * one unit per 2^21, about what one perf unit replays.
 */
double estimatedCost(const RunRequest &req);

/** The ExperimentConfig a validated request denotes. fatal()s on
 *  malformed spec text -- validate first when input is untrusted. */
ExperimentConfig experimentConfigOf(const RunRequest &req);

/** The attack side of a "coattack" request. */
CoAttackScenario coAttackScenarioOf(const RunRequest &req);

/** The one cell of an "attack" request, on its device grade's timing.
 *  fatal()s on malformed spec text -- validate first. */
AttackCell attackCellOf(const RunRequest &req);

/** Per-cell callback of runRequest(): (cell index, result line). */
using PayloadSink = std::function<void(size_t, const std::string &)>;

/**
 * Run a validated request of any kind on @p stores (null members =
 * the experiment's own), streaming each finished cell's result line
 * to @p sink from worker threads, in completion order; the sink must
 * be thread-safe. The one dispatch over request kinds: the serve
 * daemon and the claims runner (sim/claims.hh) both call it. Throws
 * what a cell compute throws.
 */
void runRequest(const RunRequest &req, const ExperimentStores &stores,
                const PayloadSink &sink);

} // namespace moatsim::sim

#endif // MOATSIM_SIM_RUN_REQUEST_HH
