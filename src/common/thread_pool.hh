/**
 * @file
 * Work-stealing thread pool for independent simulation jobs.
 *
 * Sweep matrices fan out as many independent cells; the pool keeps one
 * job deque per worker. A worker pops from the back of its own deque
 * (LIFO, cache-warm) and steals from the front of a sibling's deque
 * when its own runs dry, so a handful of long cells submitted early
 * cannot serialize the tail of a sweep. Submission round-robins across
 * the deques; submit() and submitAll() are safe from any thread,
 * including from inside a running job.
 *
 * Jobs must not throw. Index fan-outs go through parallelFor(), the
 * one place that captures per-index exceptions and rethrows them.
 */

#ifndef MOATSIM_COMMON_THREAD_POOL_HH
#define MOATSIM_COMMON_THREAD_POOL_HH

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.hh"

namespace moatsim
{

/** Fixed-size work-stealing pool; see the file header. */
class ThreadPool
{
  public:
    /** @param threads Worker count; 0 means hardwareThreads(). */
    explicit ThreadPool(unsigned threads = 0);

    /** Joins the workers; pending jobs are completed first. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue one job. */
    void submit(std::function<void()> job) EXCLUDES(mu_);

    /**
     * Enqueue every job of @p jobs before any worker may claim one of
     * them. On an idle pool each worker then starts on the last job
     * dealt to its deque, whatever the timing of the workers' wake-ups;
     * submitting one by one lets an early-waking worker take whatever
     * its deque holds so far.
     */
    void submitAll(std::vector<std::function<void()>> jobs) EXCLUDES(mu_);

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
    /** One worker's deque; owner pops the back, thieves take the front. */
    struct Queue
    {
        Mutex mu;
        std::deque<std::function<void()>> jobs GUARDED_BY(mu);
    };

    /** Claim-and-take one job; @p self biases toward the own deque.
     *  A claim (queued_ decrement) must precede the call. */
    std::function<void()> take(unsigned self) EXCLUDES(mu_);

    void workerLoop(unsigned self) EXCLUDES(mu_);

    /** Immutable after construction (workers read them unlocked). */
    std::vector<std::unique_ptr<Queue>> queues_;
    std::vector<std::thread> workers_;

    Mutex mu_;
    /** Signals workers that queued_ grew or stop_ was set. */
    CondVar work_cv_;
    /** Signals wait() that pending_ hit zero. */
    CondVar idle_cv_;
    /** Jobs submitted but not yet claimed by a worker. */
    std::size_t queued_ GUARDED_BY(mu_) = 0;
    /** Jobs submitted but not yet finished. */
    std::size_t pending_ GUARDED_BY(mu_) = 0;
    std::size_t next_queue_ GUARDED_BY(mu_) = 0;
    bool stop_ GUARDED_BY(mu_) = false;
};

/**
 * Run fn(i) for every i in [0, n) and return once all have finished:
 * on a ThreadPool of min(@p jobs, n) workers (@p jobs 0 means
 * ThreadPool::hardwareThreads()), or inline in index order when jobs
 * <= 1 or n <= 1. The indices go in as one ThreadPool::submitAll()
 * batch, so which indices start first does not depend on how quickly
 * the workers start. Each index captures its own exception, so every
 * index runs even when some throw; afterwards the exception of the
 * lowest failed index is rethrown -- which error surfaces does not
 * depend on the schedule.
 */
void parallelFor(unsigned jobs, std::size_t n,
                 const std::function<void(std::size_t)> &fn);

} // namespace moatsim

#endif // MOATSIM_COMMON_THREAD_POOL_HH
