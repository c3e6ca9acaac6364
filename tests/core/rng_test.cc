/**
 * @file
 * Unit tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <set>

#include "core/rng.hh"

namespace hetarch {
namespace {

TEST(Rng, DeterministicForFixedSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        if (a() == b())
            ++equal;
    EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntRespectsBound)
{
    Rng rng(3);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniformInt(10);
        EXPECT_LT(v, 10u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 10u); // all values hit
}

TEST(Rng, BernoulliEdgeCases)
{
    Rng rng(5);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
    }
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(13);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        if (rng.bernoulli(0.3))
            ++hits;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ExponentialMeanMatchesRate)
{
    Rng rng(17);
    const double rate = 0.25;
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(rate);
    EXPECT_NEAR(sum / n, 1.0 / rate, 0.05);
}

TEST(Rng, NormalMoments)
{
    Rng rng(19);
    double sum = 0.0, sum2 = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal();
        sum += x;
        sum2 += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sum2 / n, 1.0, 0.02);
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng parent(23);
    Rng child = parent.split();
    // Child stream should not equal parent's continuation.
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        if (parent() == child())
            ++equal;
    EXPECT_LT(equal, 2);
}

constexpr std::uint64_t kNoLimit = std::numeric_limits<std::uint64_t>::max();

TEST(Rng, GeometricSkipAtCertaintyFlipsEveryTrialWithoutDrawing)
{
    Rng rng(29), twin(29);
    const double log1m_p = std::log1p(-1.0); // -inf
    ASSERT_TRUE(std::isinf(log1m_p));
    for (const std::uint64_t limit : {std::uint64_t{0}, std::uint64_t{7},
                                      kNoLimit})
        EXPECT_EQ(rng.geometricSkip(log1m_p, limit), 0u);
    EXPECT_EQ(rng(), twin()); // no draw consumed
}

TEST(Rng, GeometricSkipAtZeroProbabilitySkipsWholeRunWithoutDrawing)
{
    Rng rng(31), twin(31);
    for (const std::uint64_t limit : {std::uint64_t{0}, std::uint64_t{7},
                                      kNoLimit})
        EXPECT_EQ(rng.geometricSkip(std::log1p(-0.0), limit), limit);
    EXPECT_EQ(rng(), twin());
}

TEST(Rng, GeometricSkipSaturatesForTinyProbability)
{
    // log(u) / log1p(-1e-300) is ~1e284 for almost every u: far beyond
    // 2^64, so the skip must saturate at the limit, not wrap or trap.
    Rng rng(37);
    const double log1m_p = std::log1p(-1e-300);
    ASSERT_LT(log1m_p, 0.0);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(rng.geometricSkip(log1m_p, kNoLimit), kNoLimit);
        EXPECT_EQ(rng.geometricSkip(log1m_p, 640), 640u);
    }
}

TEST(Rng, GeometricSkipStaysFiniteAndWithinLimit)
{
    // u is drawn from (0, 1] with 53-bit resolution, so log(u) is
    // finite: at p = 1/2 no skip exceeds log(2^-53) / log(1/2) = 53.
    Rng rng(41);
    const double half = std::log1p(-0.5);
    for (int i = 0; i < 100000; ++i)
        EXPECT_LE(rng.geometricSkip(half, kNoLimit), 53u);
    const double small = std::log1p(-0.01);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LE(rng.geometricSkip(small, 3), 3u);
}

TEST(Rng, GeometricSkipMeanMatchesGeometricDistribution)
{
    // Failures before the first success: mean (1 - p) / p, variance
    // (1 - p) / p^2.
    Rng rng(43);
    for (const double p : {0.3, 0.01, 1e-4}) {
        const int n = 200000;
        double sum = 0.0;
        for (int i = 0; i < n; ++i)
            sum += static_cast<double>(
                rng.geometricSkip(std::log1p(-p), kNoLimit));
        const double mean = (1.0 - p) / p;
        const double sigma = std::sqrt((1.0 - p) / (p * p) / n);
        EXPECT_NEAR(sum / n, mean, 4.0 * sigma) << "p=" << p;
    }
}

} // namespace
} // namespace hetarch
