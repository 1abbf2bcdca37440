/**
 * @file
 * Workload characterizations from Table 4 of the paper.
 *
 * The paper evaluates 15 SPEC-2017 and 6 GAP benchmarks on a
 * proprietary trace-driven simulator. Those traces are not available,
 * so moatsim regenerates each workload synthetically from the paper's
 * own published characterization: activations per kilo-instruction
 * (ACT-PKI) and the number of rows per bank per tREFW that receive at
 * least 32 / 64 / 128 activations. Those marginals are exactly what
 * determines MOAT's mitigation and ALERT behaviour, so reproducing
 * them reproduces the shape of the performance results.
 * TraceGenTest.CensusMatchesTable4Tiers checks the tier counts of
 * every workload against this table.
 */

#ifndef MOATSIM_WORKLOAD_SPEC_HH
#define MOATSIM_WORKLOAD_SPEC_HH

#include <cstdint>
#include <span>
#include <string>

namespace moatsim::workload
{

/** One row of Table 4. */
struct WorkloadSpec
{
    /** Benchmark name (SPEC-2017 or GAP). */
    std::string name;
    /** Activations per kilo-instruction. */
    double actPki = 0.0;
    /** Rows per bank per tREFW with >= 32 activations. */
    uint32_t act32 = 0;
    /** Rows per bank per tREFW with >= 64 activations. */
    uint32_t act64 = 0;
    /** Rows per bank per tREFW with >= 128 activations. */
    uint32_t act128 = 0;
    /** Whether the benchmark belongs to the GAP suite. */
    bool isGap = false;
};

/** All 21 workloads of Table 4, in the paper's order. */
std::span<const WorkloadSpec> table4Workloads();

/** Look up a workload by name; fatal() if unknown. */
const WorkloadSpec &findWorkload(const std::string &name);

/** Look up a workload by name; null if unknown. Callers validating
 *  untrusted input (the serve protocol) use this instead of the
 *  fatal() path. */
const WorkloadSpec *tryFindWorkload(const std::string &name);

} // namespace moatsim::workload

#endif // MOATSIM_WORKLOAD_SPEC_HH
