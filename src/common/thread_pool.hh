/**
 * @file
 * Fixed-size thread pool for independent simulation jobs.
 *
 * Sweep matrices fan out as one batch of independent cells, each
 * lasting milliseconds or more, so the pool is one mutex-guarded FIFO
 * queue: a free worker takes the oldest job, so uneven cells balance
 * across the workers and jobs start in submission order however the
 * workers wake. submit() is safe from any thread, including from
 * inside a running job.
 *
 * Jobs must not throw. Index fan-outs go through parallelFor(), the
 * one place that captures per-index exceptions and rethrows them.
 */

#ifndef MOATSIM_COMMON_THREAD_POOL_HH
#define MOATSIM_COMMON_THREAD_POOL_HH

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.hh"

namespace moatsim
{

/** Fixed-size pool over one FIFO job queue; see the file header. */
class ThreadPool
{
  public:
    /** @param threads Worker count; 0 means hardwareThreads(). */
    explicit ThreadPool(unsigned threads = 0);

    /** Joins the workers; pending jobs are completed first. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue one job at the back of the queue. */
    void submit(std::function<void()> job) EXCLUDES(mu_);

    /**
     * Block until every job submitted so far (including jobs submitted
     * by running jobs) has finished. The pool is reusable afterwards.
     */
    void wait() EXCLUDES(mu_);

    /** Number of worker threads. */
    unsigned threadCount() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /** std::thread::hardware_concurrency() with a floor of 1. */
    static unsigned hardwareThreads();

  private:
    void workerLoop() EXCLUDES(mu_);

    /** Immutable after construction. */
    std::vector<std::thread> workers_;

    Mutex mu_;
    /** Signals workers that jobs_ grew or stop_ was set. */
    CondVar work_cv_;
    /** Signals wait() that pending_ hit zero. */
    CondVar idle_cv_;
    /** Jobs not yet taken by a worker, oldest first. */
    std::deque<std::function<void()>> jobs_ GUARDED_BY(mu_);
    /** Jobs submitted but not yet finished. */
    std::size_t pending_ GUARDED_BY(mu_) = 0;
    bool stop_ GUARDED_BY(mu_) = false;
};

/**
 * Run fn(i) for every i in [0, n) and return once all have finished:
 * on a ThreadPool of min(@p jobs, n) workers (@p jobs 0 means
 * ThreadPool::hardwareThreads()), or inline in index order when jobs
 * <= 1 or n <= 1. On the pool the indices are submitted highest first,
 * so the first cells to start are always the same ones, whatever the
 * timing of the workers' wake-ups. Each index captures its own
 * exception, so every index runs even when some throw; afterwards the
 * exception of the lowest failed index is rethrown -- which error
 * surfaces does not depend on the schedule.
 */
void parallelFor(unsigned jobs, std::size_t n,
                 const std::function<void(std::size_t)> &fn);

} // namespace moatsim

#endif // MOATSIM_COMMON_THREAD_POOL_HH
