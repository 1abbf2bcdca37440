#include "dram/bank.hh"

#include <cassert>

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

ActCount
Bank::activate(RowId row)
{
    assert(row < counters_.size());
    open_row_ = row;
    ++total_acts_;
    return ++counters_[row];
}

ActCount
Bank::counter(RowId row) const
{
    assert(row < counters_.size());
    return counters_[row];
}

void
Bank::resetCounter(RowId row)
{
    assert(row < counters_.size());
    counters_[row] = 0;
}

} // namespace moatsim::dram
