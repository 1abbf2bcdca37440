#include "workload/trace_io.hh"

#include <fstream>
#include <limits>
#include <sstream>

#include "common/logging.hh"

namespace moatsim::workload
{

void
writeTraces(std::ostream &os, const std::vector<CoreTrace> &traces)
{
    // Single-sub-channel traces keep the v1 3-column format so older
    // tooling can read them; any event on a sub-channel other than 0
    // switches the whole file to the v2 4-column format.
    bool multi = false;
    for (const auto &t : traces) {
        for (const auto &e : t.events)
            multi = multi || e.subchannel != 0;
    }
    if (multi)
        os << "# moatsim trace v2: time_ps bank row subchannel\n";
    else
        os << "# moatsim trace v1: time_ps bank row\n";
    for (size_t c = 0; c < traces.size(); ++c) {
        os << "core " << c << "\n";
        // The reader rejects "window 0" as malformed; an unset window
        // is simply omitted and re-derived from the last event.
        if (traces[c].window > 0)
            os << "window " << traces[c].window << "\n";
        for (const auto &e : traces[c].events) {
            os << e.at << ' ' << e.bank << ' ' << e.row;
            if (multi)
                os << ' ' << e.subchannel;
            os << "\n";
        }
    }
}

std::vector<CoreTrace>
readTraces(std::istream &is)
{
    std::vector<CoreTrace> traces;
    CoreTrace *current = nullptr;
    std::string line;
    size_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string first;
        ls >> first;
        if (first == "core") {
            size_t index = 0;
            if (!(ls >> index))
                fatal("trace line " + std::to_string(lineno) +
                      ": bad core header");
            if (index != traces.size())
                fatal("trace line " + std::to_string(lineno) +
                      ": core sections must be in order");
            traces.emplace_back();
            current = &traces.back();
        } else if (first == "window") {
            if (current == nullptr)
                fatal("trace line " + std::to_string(lineno) +
                      ": window before any core");
            if (!(ls >> current->window) || current->window <= 0)
                fatal("trace line " + std::to_string(lineno) +
                      ": bad window");
        } else {
            if (current == nullptr)
                fatal("trace line " + std::to_string(lineno) +
                      ": event before any core");
            // Every column must fit its TraceEvent field: a bank or
            // slot beyond 16 bits, or a row beyond 32, would wrap.
            const auto bad_event = [&lineno](const std::string &why) {
                fatal("trace line " + std::to_string(lineno) +
                      ": bad event (" + why + ")");
            };
            std::istringstream es(line);
            Time at = 0;
            int64_t bank = 0;
            int64_t row = 0;
            if (!(es >> at >> bank >> row) || at < 0 || bank < 0 ||
                row < 0)
                bad_event("expected <time_ps> <bank> <row> [subchannel], "
                          "non-negative");
            // Optional v2 fourth column: the target sub-channel.
            int64_t subchannel = 0;
            if (es >> subchannel && subchannel < 0)
                bad_event("negative subchannel");
            if (bank > std::numeric_limits<BankId>::max())
                bad_event("bank " + std::to_string(bank) + " above " +
                          std::to_string(std::numeric_limits<BankId>::max()));
            if (subchannel > kMaxTraceSlot)
                bad_event("subchannel " + std::to_string(subchannel) +
                          " above " + std::to_string(kMaxTraceSlot));
            if (row > std::numeric_limits<RowId>::max())
                bad_event("row " + std::to_string(row) + " above " +
                          std::to_string(std::numeric_limits<RowId>::max()));
            const TraceEvent e{.at = at,
                               .row = static_cast<RowId>(row),
                               .bank = static_cast<BankId>(bank),
                               .subchannel =
                                   static_cast<uint16_t>(subchannel)};
            if (!current->events.empty() &&
                e.at < current->events.back().at)
                fatal("trace line " + std::to_string(lineno) +
                      ": events out of order");
            current->events.push_back(e);
        }
    }
    for (auto &t : traces) {
        if (t.window == 0 && !t.events.empty())
            t.window = t.events.back().at + 1;
    }
    return traces;
}

void
checkTraceFits(const std::vector<CoreTrace> &traces, uint32_t banks,
               uint32_t rowsPerBank)
{
    for (size_t c = 0; c < traces.size(); ++c) {
        const auto &events = traces[c].events;
        for (size_t i = 0; i < events.size(); ++i) {
            const TraceEvent &e = events[i];
            if (e.bank < banks && e.row < rowsPerBank)
                continue;
            const std::string where = "trace core " + std::to_string(c) +
                                      " event " + std::to_string(i) +
                                      " (at " + std::to_string(e.at) +
                                      " ps): ";
            if (e.bank >= banks)
                fatal(where + "bank " + std::to_string(e.bank) +
                      " is not below the system's " +
                      std::to_string(banks) + " banks");
            fatal(where + "row " + std::to_string(e.row) +
                  " is not below the " + std::to_string(rowsPerBank) +
                  " rows per bank");
        }
    }
}

void
saveTraces(const std::string &path, const std::vector<CoreTrace> &traces)
{
    std::ofstream os(path);
    if (!os)
        fatal("saveTraces: cannot open " + path);
    writeTraces(os, traces);
}

std::vector<CoreTrace>
loadTraces(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        fatal("loadTraces: cannot open " + path);
    return readTraces(is);
}

} // namespace moatsim::workload
