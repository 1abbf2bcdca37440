#include "dram/bank.hh"

#include "common/logging.hh"

namespace moatsim::dram
{

Bank::Bank(const TimingParams &params)
    : owned_(params.rowsPerBank, 0), counters_(owned_)
{
}

Bank::Bank(const TimingParams &params, std::span<ActCount> storage)
    : counters_(storage)
{
    if (storage.size() != params.rowsPerBank)
        fatal("Bank: counter storage size does not match rowsPerBank");
}

} // namespace moatsim::dram
