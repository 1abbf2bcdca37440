/**
 * @file
 * Deterministic pseudo-random number generator.
 *
 * moatsim uses an explicit xoshiro256** generator rather than
 * std::mt19937 so that experiments are reproducible bit-for-bit across
 * standard-library implementations. Workload trace generation owns
 * one Rng per trace; nothing in the library touches global random
 * state.
 */

#ifndef MOATSIM_COMMON_RNG_HH
#define MOATSIM_COMMON_RNG_HH

#include <cstdint>

namespace moatsim
{

/**
 * xoshiro256** 1.0 pseudo-random generator (public-domain algorithm by
 * Blackman and Vigna), seeded via splitmix64.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed; equal seeds give equal streams. */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    uint64_t next();

    /** Uniform integer in [0, bound). @pre bound > 0. */
    uint64_t below(uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. @pre lo <= hi. */
    uint64_t inRange(uint64_t lo, uint64_t hi);

    /** Uniform double in [0, 1). */
    double uniform();

    /** Bernoulli trial with probability p of returning true. */
    bool chance(double p);

  private:
    uint64_t state_[4];
};

} // namespace moatsim

#endif // MOATSIM_COMMON_RNG_HH
