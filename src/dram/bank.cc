#include "dram/bank.hh"

#include "common/logging.hh"

namespace moatsim::dram
{

Bank::Bank(const TimingParams &params)
    : owned_(params.rowsPerBank, 0),
      owned_dirty_(dirtyWordsFor(params.rowsPerBank), 0), counters_(owned_),
      dirty_(owned_dirty_)
{
}

Bank::Bank(const TimingParams &params, std::span<ActCount> storage,
           std::span<uint64_t> dirty_lines)
    : counters_(storage), dirty_(dirty_lines)
{
    if (storage.size() != params.rowsPerBank)
        fatal("Bank: counter storage size does not match rowsPerBank");
    if (dirty_lines.size() != dirtyWordsFor(params.rowsPerBank))
        fatal("Bank: dirty bitmap size does not match rowsPerBank");
}

} // namespace moatsim::dram
