/**
 * @file
 * Clang Thread Safety Analysis annotation macros.
 *
 * The sweep engine promises bit-identical results at any --jobs count,
 * and that promise rests on a small set of lock-discipline invariants
 * (every shared member has one owning mutex; helpers that assume a
 * held lock say so). These macros let the compiler check those
 * invariants statically: under clang the CI static-analysis leg builds
 * with -Wthread-safety -Wthread-safety-beta promoted to errors, so a
 * member read without its GUARDED_BY mutex, or a REQUIRES helper
 * called unlocked, fails the build instead of waiting for a lucky TSan
 * interleaving. Under every other compiler the macros expand to
 * nothing.
 *
 * The analysis only understands capabilities it can see, and
 * libstdc++'s std::mutex carries no annotations -- which is why the
 * concurrency core locks through moatsim::Mutex / MutexLock
 * (common/mutex.hh) instead of std::mutex / std::lock_guard.
 *
 * Macro names follow the clang documentation
 * (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html).
 */

#ifndef MOATSIM_COMMON_THREAD_ANNOTATIONS_HH
#define MOATSIM_COMMON_THREAD_ANNOTATIONS_HH

#if defined(__clang__)
#define MOATSIM_THREAD_ATTRIBUTE(x) __attribute__((x))
#else
#define MOATSIM_THREAD_ATTRIBUTE(x) // no-op off clang
#endif

/** Marks a class as a lockable capability (e.g. a mutex wrapper). */
#define CAPABILITY(x) MOATSIM_THREAD_ATTRIBUTE(capability(x))

/** Marks an RAII class that acquires in its ctor, releases in dtor. */
#define SCOPED_CAPABILITY MOATSIM_THREAD_ATTRIBUTE(scoped_lockable)

/** The member may only be touched while @p x is held. */
#define GUARDED_BY(x) MOATSIM_THREAD_ATTRIBUTE(guarded_by(x))

/** The pointee may only be touched while @p x is held. */
#define PT_GUARDED_BY(x) MOATSIM_THREAD_ATTRIBUTE(pt_guarded_by(x))

/** The function must be called with the capabilities already held. */
#define REQUIRES(...)                                                   \
    MOATSIM_THREAD_ATTRIBUTE(requires_capability(__VA_ARGS__))

/** Shared (reader) variant of REQUIRES. */
#define REQUIRES_SHARED(...)                                            \
    MOATSIM_THREAD_ATTRIBUTE(requires_shared_capability(__VA_ARGS__))

/** The function acquires the capability and holds it on return. */
#define ACQUIRE(...)                                                    \
    MOATSIM_THREAD_ATTRIBUTE(acquire_capability(__VA_ARGS__))

/** The function releases a capability the caller held. */
#define RELEASE(...)                                                    \
    MOATSIM_THREAD_ATTRIBUTE(release_capability(__VA_ARGS__))

/** Acquires on a @p ret return value (e.g. try_lock returning true). */
#define TRY_ACQUIRE(...)                                                \
    MOATSIM_THREAD_ATTRIBUTE(try_acquire_capability(__VA_ARGS__))

/** The function must NOT be called with the capabilities held. */
#define EXCLUDES(...) MOATSIM_THREAD_ATTRIBUTE(locks_excluded(__VA_ARGS__))

/** Declares that the capability is held (a dynamic assertion). */
#define ASSERT_CAPABILITY(x)                                            \
    MOATSIM_THREAD_ATTRIBUTE(assert_capability(x))

/** The function returns a reference to the named capability. */
#define RETURN_CAPABILITY(x) MOATSIM_THREAD_ATTRIBUTE(lock_returned(x))

/** Opts a function out of the analysis (use sparingly, say why). */
#define NO_THREAD_SAFETY_ANALYSIS                                       \
    MOATSIM_THREAD_ATTRIBUTE(no_thread_safety_analysis)

#endif // MOATSIM_COMMON_THREAD_ANNOTATIONS_HH
