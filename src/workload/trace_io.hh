/**
 * @file
 * Plain-text trace serialization.
 *
 * moatsim's performance experiments run on synthetic traces, but the
 * memory-system model accepts any workload::CoreTrace, so users with
 * real activation traces (e.g. extracted from DRAMsim3/Ramulator runs)
 * can replay them. The format is one event per line:
 *
 *   # comment
 *   window <picoseconds>          (once per core section)
 *   core <index>
 *   <time_ps> <bank> <row> [subchannel]
 *
 * Events must be sorted by time within a core. The fourth column is
 * the v2 extension for multi-sub-channel systems; files whose events
 * all target sub-channel 0 are written in the 3-column v1 format and
 * both are accepted on read.
 */

#ifndef MOATSIM_WORKLOAD_TRACE_IO_HH
#define MOATSIM_WORKLOAD_TRACE_IO_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "workload/tracegen.hh"

namespace moatsim::workload
{

/** Write traces to a stream in the text format above. */
void writeTraces(std::ostream &os, const std::vector<CoreTrace> &traces);

/**
 * Parse traces from a stream.
 * Calls fatal() on malformed input (bad numbers, unsorted times).
 */
std::vector<CoreTrace> readTraces(std::istream &is);

/**
 * fatal() unless every event of @p traces addresses a bank below
 * @p banks and a row below @p rowsPerBank. The replay indexes banks
 * and per-row counters with these values unchecked, so a trace read
 * from a file must pass this before it replays. The message names the
 * core, the event and the bound it breaks.
 */
void checkTraceFits(const std::vector<CoreTrace> &traces, uint32_t banks,
                    uint32_t rowsPerBank);

/** Convenience wrappers over files. */
void saveTraces(const std::string &path,
                const std::vector<CoreTrace> &traces);
std::vector<CoreTrace> loadTraces(const std::string &path);

} // namespace moatsim::workload

#endif // MOATSIM_WORKLOAD_TRACE_IO_HH
