#include "common/thread_pool.hh"

#include <algorithm>
#include <exception>

namespace moatsim
{

unsigned
ThreadPool::hardwareThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n > 0 ? n : 1;
}

ThreadPool::ThreadPool(unsigned threads)
{
    const unsigned n = threads > 0 ? threads : hardwareThreads();
    workers_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    wait();
    {
        MutexLock lock(mu_);
        stop_ = true;
    }
    work_cv_.notifyAll();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::submit(std::function<void()> job)
{
    {
        MutexLock lock(mu_);
        jobs_.push_back(std::move(job));
        ++pending_;
    }
    work_cv_.notifyOne();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> job;
        {
            MutexLock lock(mu_);
            while (!stop_ && jobs_.empty())
                work_cv_.wait(lock);
            if (jobs_.empty())
                return; // stop_ set and nothing left to run
            job = std::move(jobs_.front());
            jobs_.pop_front();
        }
        job();
        {
            MutexLock lock(mu_);
            if (--pending_ == 0)
                idle_cv_.notifyAll();
        }
    }
}

void
ThreadPool::wait()
{
    MutexLock lock(mu_);
    while (pending_ != 0)
        idle_cv_.wait(lock);
}

void
parallelFor(unsigned jobs, std::size_t n,
            const std::function<void(std::size_t)> &fn)
{
    if (jobs == 0)
        jobs = ThreadPool::hardwareThreads();
    std::vector<std::exception_ptr> errors(n);
    const auto runOne = [&](std::size_t i) noexcept {
        try {
            fn(i);
        } catch (...) {
            errors[i] = std::current_exception();
        }
    };
    if (jobs <= 1 || n <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            runOne(i);
    } else {
        // No point spinning up more workers than there are indices.
        ThreadPool pool(static_cast<unsigned>(
            std::min<std::size_t>(jobs, n)));
        // Highest index first. The FIFO queue starts jobs in this
        // order however the workers wake, so a sweep's first cells
        // are fixed: on the Table-4 matrix, its last rows (the graph
        // kernels, ACT-PKI 7.0-22.8) rather than its first
        // (19.8-29.3).
        for (std::size_t i = n; i-- > 0;)
            pool.submit([&runOne, i] { runOne(i); });
        pool.wait();
    }
    for (const auto &error : errors) {
        if (error)
            std::rethrow_exception(error);
    }
}

} // namespace moatsim
