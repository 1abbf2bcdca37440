/**
 * @file
 * Annotated mutex, scoped lock, and condition variable.
 *
 * Thin wrappers over std::mutex / std::condition_variable that carry
 * the Clang Thread Safety Analysis attributes
 * (common/thread_annotations.hh). libstdc++'s std::mutex is not an
 * annotated capability, so locking it through std::lock_guard is
 * invisible to the analysis; locking a moatsim::Mutex through a
 * MutexLock is not. All mutex-protected state in the concurrency core
 * is declared GUARDED_BY one of these, which is what lets the
 * static-analysis CI leg prove the lock discipline instead of sampling
 * it under TSan. That core is SingleFlight (common/single_flight.hh),
 * the one compute-once map every cache fronts, and ThreadPool with its
 * parallelFor fan-out (common/thread_pool.hh), the one place per-cell
 * exceptions are captured.
 *
 * CondVar deliberately has no predicate-taking wait: the predicate
 * lambda would be analyzed as a separate unannotated function and
 * spuriously warn on every guarded member it reads. Callers write the
 * standard `while (!cond) cv.wait(lock);` loop in the function that
 * holds the capability, which the analysis checks exactly.
 */

#ifndef MOATSIM_COMMON_MUTEX_HH
#define MOATSIM_COMMON_MUTEX_HH

#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.hh"

namespace moatsim
{

/** std::mutex as an annotated capability. */
class CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() ACQUIRE() { mu_.lock(); }
    void unlock() RELEASE() { mu_.unlock(); }
    bool tryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

  private:
    friend class CondVar;
    std::mutex mu_;
};

/** RAII lock of a Mutex (std::lock_guard, visibly to the analysis). */
class SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
    ~MutexLock() RELEASE() { mu_.unlock(); }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    friend class CondVar;
    Mutex &mu_;
};

/** Condition variable usable with a held MutexLock. */
class CondVar
{
  public:
    CondVar() = default;
    CondVar(const CondVar &) = delete;
    CondVar &operator=(const CondVar &) = delete;

    /**
     * Atomically release @p lock's mutex, sleep, reacquire. As far as
     * the analysis is concerned the capability is held throughout,
     * which matches what the caller may assume before and after.
     */
    void wait(MutexLock &lock)
    {
        std::unique_lock<std::mutex> native(lock.mu_.mu_,
                                            std::adopt_lock);
        cv_.wait(native);
        // The mutex stays locked; ownership returns to the MutexLock.
        native.release();
    }

    void notifyOne() { cv_.notify_one(); }
    void notifyAll() { cv_.notify_all(); }

  private:
    std::condition_variable cv_;
};

} // namespace moatsim

#endif // MOATSIM_COMMON_MUTEX_HH
