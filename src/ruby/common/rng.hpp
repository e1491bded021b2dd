/**
 * @file
 * Deterministic pseudo-random number generation for mapspace sampling.
 *
 * Random search keys one stream per draw (keyed()), so a draw is a
 * function of (seed, index) alone, whichever thread makes it. We use
 * xoshiro256** — small, fast, and self-contained (no dependence on
 * libstdc++ distribution implementations, whose outputs can differ
 * across library versions).
 */

#ifndef RUBY_COMMON_RNG_HPP
#define RUBY_COMMON_RNG_HPP

#include <cstdint>

#include "ruby/common/error.hpp"

namespace ruby
{

/**
 * xoshiro256** PRNG with splitmix64 seeding. The per-draw calls
 * (next, below, between) are defined inline: a mapspace sample makes
 * ~80 of them, so a call each would be a visible share of sampling.
 */
class Rng
{
  public:
    /** Seed the generator; identical seeds give identical streams. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    std::uint64_t next()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound) via Lemire rejection; bound >= 1. */
    std::uint64_t below(std::uint64_t bound)
    {
        RUBY_ASSERT(bound >= 1);
        // Lemire's multiply-shift with rejection for exact uniformity.
        std::uint64_t x = next();
        __uint128_t m = static_cast<__uint128_t>(x) * bound;
        std::uint64_t l = static_cast<std::uint64_t>(m);
        if (l < bound) {
            std::uint64_t t = -bound % bound;
            while (l < t) {
                x = next();
                m = static_cast<__uint128_t>(x) * bound;
                l = static_cast<std::uint64_t>(m);
            }
        }
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t between(std::uint64_t lo, std::uint64_t hi)
    {
        RUBY_ASSERT(lo <= hi);
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double uniform();

    /**
     * Derive an independent child stream (for per-thread use). Child i
     * of a given parent is deterministic.
     */
    Rng split();

    /**
     * The stream of item @p index under @p seed, keyed by a splitmix64
     * mix of both (a counter-based split after Salmon et al., SC'11):
     * any thread opens any item's stream without replaying the rest.
     */
    static Rng keyed(std::uint64_t seed, std::uint64_t index);

  private:
    static std::uint64_t rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
};

} // namespace ruby

#endif // RUBY_COMMON_RNG_HPP
