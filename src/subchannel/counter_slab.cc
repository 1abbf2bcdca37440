#include "subchannel/counter_slab.hh"

#include <algorithm>
#include <bit>
#include <deque>
#include <vector>

#include "common/mutex.hh"
#include "common/thread_pool.hh"
#include "dram/bank.hh"

namespace moatsim::subchannel
{

struct CounterSlab::Storage
{
    Storage(uint32_t banks_, uint32_t rows_)
        : banks(banks_), rows(rows_), wordsPerBank(dram::dirtyWordsFor(rows_)),
          counters(static_cast<size_t>(banks_) * rows_, 0),
          dirty(static_cast<size_t>(banks_) * wordsPerBank, 0)
    {
    }

    size_t bytes() const
    {
        return counters.size() * sizeof(ActCount) +
               dirty.size() * sizeof(uint64_t);
    }

    /**
     * Zero every counter a dirty bit may cover and clear the bitmap.
     * Once 2/5 of a bank's lines are dirty, one memset of the bank
     * beats zeroing line by line: on a 32 x 65,536-row slab with
     * uniformly scattered dirty lines the two cost the same between
     * 30% and 50% dirty (4-vCPU Xeon, cold cache), per-line zeroing
     * wins 20x at 1% and memset 1.3x when every line is dirty.
     */
    void rezeroDirty()
    {
        const size_t lines =
            (static_cast<size_t>(rows) + dram::kCountersPerLine - 1) /
            dram::kCountersPerLine;
        for (uint32_t b = 0; b < banks; ++b) {
            ActCount *bank = counters.data() + static_cast<size_t>(b) * rows;
            uint64_t *words = dirty.data() + b * wordsPerBank;
            size_t marked = 0;
            for (size_t w = 0; w < wordsPerBank; ++w)
                marked += static_cast<size_t>(std::popcount(words[w]));
            if (marked * kWholeBankDirtyShareDen >=
                lines * kWholeBankDirtyShareNum) {
                std::fill_n(bank, rows, ActCount{0});
            } else {
                for (size_t w = 0; w < wordsPerBank; ++w) {
                    for (uint64_t m = words[w]; m != 0; m &= m - 1) {
                        const size_t first =
                            (w * 64 + static_cast<size_t>(
                                          std::countr_zero(m))) *
                            dram::kCountersPerLine;
                        std::fill_n(bank + first,
                                    std::min<size_t>(dram::kCountersPerLine,
                                                     rows - first),
                                    ActCount{0});
                    }
                }
            }
            std::fill_n(words, wordsPerBank, uint64_t{0});
        }
    }

    /** memset the whole bank once Num/Den of its lines are dirty. */
    static constexpr size_t kWholeBankDirtyShareNum = 2;
    static constexpr size_t kWholeBankDirtyShareDen = 5;

    uint32_t banks;
    uint32_t rows;
    size_t wordsPerBank;
    std::vector<ActCount> counters;
    std::vector<uint64_t> dirty;
};

struct CounterSlab::Pool
{
    Mutex mu;
    /** Released slabs, oldest first. */
    std::deque<std::unique_ptr<Storage>> free GUARDED_BY(mu);
    uint64_t pooledBytes GUARDED_BY(mu) = 0;
    uint64_t reuses GUARDED_BY(mu) = 0;
    uint64_t allocs GUARDED_BY(mu) = 0;

    /** The process's pool. Never destroyed, so a SubChannel that dies
     *  during static destruction (or on a thread still running at
     *  exit) still finds it; the slabs on it stay reachable. */
    static Pool &instance()
    {
        static Pool *const pool = new Pool;
        return *pool;
    }
};

CounterSlab::CounterSlab(uint32_t banks, uint32_t rows_per_bank)
{
    Pool &pool = Pool::instance();
    {
        MutexLock lock(pool.mu);
        // Newest first: its lines are the likeliest still cached.
        for (auto it = pool.free.rbegin(); it != pool.free.rend(); ++it) {
            if ((*it)->banks == banks && (*it)->rows == rows_per_bank) {
                storage_ = std::move(*it);
                pool.free.erase(std::next(it).base());
                pool.pooledBytes -= storage_->bytes();
                ++pool.reuses;
                return;
            }
        }
        ++pool.allocs;
    }
    storage_ = std::make_unique<Storage>(banks, rows_per_bank);
}

CounterSlab::CounterSlab(CounterSlab &&other) noexcept = default;

CounterSlab::~CounterSlab()
{
    if (storage_)
        release(std::move(storage_));
}

std::span<ActCount>
CounterSlab::counters(BankId b)
{
    return {storage_->counters.data() + static_cast<size_t>(b) * storage_->rows,
            storage_->rows};
}

std::span<uint64_t>
CounterSlab::dirtyLines(BankId b)
{
    return {storage_->dirty.data() + b * storage_->wordsPerBank,
            storage_->wordsPerBank};
}

size_t
CounterSlab::bytes() const
{
    return storage_ ? storage_->bytes() : 0;
}

void
CounterSlab::release(std::unique_ptr<Storage> s)
{
    s->rezeroDirty();
    // Declared before the lock so an evicted slab is freed after the
    // lock is dropped.
    std::unique_ptr<Storage> evicted;
    Pool &pool = Pool::instance();
    MutexLock lock(pool.mu);
    pool.pooledBytes += s->bytes();
    pool.free.push_back(std::move(s));
    if (pool.free.size() > poolCapacity()) {
        evicted = std::move(pool.free.front());
        pool.free.pop_front();
        pool.pooledBytes -= evicted->bytes();
    }
}

CounterSlab::PoolStats
CounterSlab::poolStats()
{
    Pool &pool = Pool::instance();
    MutexLock lock(pool.mu);
    return {pool.pooledBytes, pool.reuses, pool.allocs};
}

size_t
CounterSlab::poolCapacity()
{
    static const size_t capacity = 2 * size_t{ThreadPool::hardwareThreads()};
    return capacity;
}

} // namespace moatsim::subchannel
