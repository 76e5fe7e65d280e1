/**
 * @file
 * xoshiro256++ pseudo-random number generator.
 *
 * The library's default source of entropy for all software samplers
 * and for the emulated RET devices. xoshiro256++ (Blackman & Vigna)
 * is fast, has a 2^256-1 period, and passes all known statistical
 * test batteries. It satisfies the C++ UniformRandomBitGenerator
 * concept so it can also drive the standard-library distributions
 * used by the Table 1 baseline measurements.
 */

#ifndef RSU_RNG_XOSHIRO256_H
#define RSU_RNG_XOSHIRO256_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace rsu::rng {

/** xoshiro256++ engine. Satisfies UniformRandomBitGenerator. */
class Xoshiro256
{
  public:
    using result_type = uint64_t;

    /** Construct from a single 64-bit seed (expanded via SplitMix64). */
    explicit Xoshiro256(uint64_t seed = 0x9c2ae15f0971cf1bULL);

    static constexpr result_type min() { return 0; }
    static constexpr result_type
    max()
    {
        return std::numeric_limits<result_type>::max();
    }

    /** Next raw 64-bit output. */
    result_type operator()();

    /** The next @p n raw outputs into @p out, in order: the same
     * values as @p n calls of operator(), generated with the state
     * held in registers. */
    void fill(result_type *out, std::size_t n);

    /**
     * Uniform double in [0, 1) with 53 bits of precision.
     *
     * Uses the upper 53 bits of the raw output, the standard
     * conversion recommended by the generator's authors.
     */
    double uniform();

    /** Uniform double in (0, 1] — never zero, safe for log(). */
    double uniformPositive();

    /** Uniform integer in [0, bound) without modulo bias. */
    uint64_t below(uint64_t bound);

    /**
     * Advance the state by 2^128 steps.
     *
     * Generates non-overlapping subsequences for parallel chains
     * (e.g., one stream per replicated RET circuit).
     */
    void jump();

  private:
    std::array<uint64_t, 4> s_;
};

} // namespace rsu::rng

#endif // RSU_RNG_XOSHIRO256_H
