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
    queues_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        queues_.push_back(std::make_unique<Queue>());
    workers_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
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
    std::size_t target;
    {
        MutexLock lock(mu_);
        target = next_queue_++ % queues_.size();
        ++queued_;
        ++pending_;
    }
    {
        Queue &q = *queues_[target];
        MutexLock lock(q.mu);
        q.jobs.push_back(std::move(job));
    }
    work_cv_.notifyOne();
}

void
ThreadPool::submitAll(std::vector<std::function<void()>> jobs)
{
    {
        MutexLock lock(mu_);
        for (auto &job : jobs) {
            Queue &q = *queues_[next_queue_++ % queues_.size()];
            MutexLock qlock(q.mu);
            q.jobs.push_back(std::move(job));
        }
        // Claims open only now, with the whole batch in the deques.
        queued_ += jobs.size();
        pending_ += jobs.size();
    }
    work_cv_.notifyAll();
}

std::function<void()>
ThreadPool::take(unsigned self)
{
    // A claim (queued_ decrement) is only made when a job exists, so
    // scanning until a pop succeeds always terminates: jobs in deques
    // always >= outstanding claims.
    const std::size_t n = queues_.size();
    for (;;) {
        {
            // Own deque: LIFO for locality.
            Queue &own = *queues_[self];
            MutexLock lock(own.mu);
            if (!own.jobs.empty()) {
                auto job = std::move(own.jobs.back());
                own.jobs.pop_back();
                return job;
            }
        }
        for (std::size_t k = 1; k < n; ++k) {
            Queue &victim = *queues_[(self + k) % n];
            MutexLock lock(victim.mu);
            if (!victim.jobs.empty()) {
                // Steal the oldest job (FIFO end).
                auto job = std::move(victim.jobs.front());
                victim.jobs.pop_front();
                return job;
            }
        }
    }
}

void
ThreadPool::workerLoop(unsigned self)
{
    for (;;) {
        {
            MutexLock lock(mu_);
            while (!stop_ && queued_ == 0)
                work_cv_.wait(lock);
            if (queued_ == 0)
                return; // stop_ set and nothing left to run
            --queued_;
        }
        auto job = take(self);
        job();
        {
            MutexLock lock(mu_);
            --pending_;
            if (pending_ == 0)
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
        std::vector<std::function<void()>> batch;
        batch.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            batch.emplace_back([&runOne, i] { runOne(i); });
        pool.submitAll(std::move(batch));
        pool.wait();
    }
    for (const auto &error : errors) {
        if (error)
            std::rethrow_exception(error);
    }
}

} // namespace moatsim
