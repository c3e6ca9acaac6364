/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic components of HetArch draw from an explicitly seeded
 * Rng so that every experiment is reproducible.  The generator is
 * xoshiro256** (Blackman & Vigna), which is fast, has a 2^256-1 period,
 * and passes BigCrush.
 */

#pragma once

#include <cstdint>

namespace hetarch {

/**
 * xoshiro256** pseudo-random generator with convenience distributions.
 *
 * Satisfies the UniformRandomBitGenerator concept so it can also be
 * plugged into <random> distributions if needed.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Seed via SplitMix64 expansion of a single 64-bit seed. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ull; }

    /** Next raw 64-bit draw. */
    result_type operator()() { return next(); }

    /** Uniform in [0, 1). */
    double uniform();

    /** Uniform integer in [0, bound) using Lemire's rejection method. */
    std::uint64_t uniformInt(std::uint64_t bound);

    /** Bernoulli trial with success probability p. */
    bool bernoulli(double p);

    /** Exponentially distributed with given rate (events per unit time). */
    double exponential(double rate);

    /** Standard normal via Box-Muller. */
    double normal();

    /**
     * 64 independent Bernoulli(p) bits packed into one word, generated
     * by bit-serial comparison of p against 64 lane-parallel uniform
     * draws (exact to 2^-48).  This is what makes the batched Pauli
     * frame sampler fast: one call covers 64 Monte-Carlo shots.
     */
    std::uint64_t biasedWord(double p);

    /**
     * Geometric skip for sparse Bernoulli(p) sampling: the number of
     * failures before the next success, floor(log(u) / log1p(-p)) for
     * one u uniform in (0, 1], capped at @p limit (a return of
     * @p limit means no success among the next @p limit trials).
     * Walking a run of n trials as pos += skip, hit, pos += 1 costs
     * one draw per success instead of one per trial.
     *
     * @p log1m_p is std::log1p(-p), precomputed by the caller.  p = 1
     * (log1m_p = -inf) returns 0 and p = 0 (log1m_p = 0) returns
     * @p limit, both without drawing; a tiny p whose skip exceeds
     * every integer type saturates at @p limit.
     */
    std::uint64_t geometricSkip(double log1m_p, std::uint64_t limit);

    /**
     * Split off an independent child generator.  Used to give each
     * Monte-Carlo shard its own stream without correlation.
     */
    Rng split();

    /**
     * Stateless child-stream derivation: the seed of the
     * @p stream-th independent generator of an experiment seeded with
     * @p seed, computed by two SplitMix64 rounds over the (seed,
     * stream) pair.  Unlike split(), this does not advance any
     * generator, so shards of a partitioned computation can derive
     * their streams concurrently and in any order — the foundation of
     * the exec engine's determinism contract (results independent of
     * thread count).
     */
    static std::uint64_t deriveStream(std::uint64_t seed,
                                      std::uint64_t stream);

  private:
    std::uint64_t next();

    std::uint64_t s[4];
    bool haveCachedNormal = false;
    double cachedNormal = 0.0;
};

} // namespace hetarch
