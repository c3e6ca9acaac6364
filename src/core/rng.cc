#include "core/rng.hh"

#include <cmath>

#include "core/logging.hh"

namespace hetarch {

namespace {

/** SplitMix64 step, used only for seeding. */
std::uint64_t
splitmix64(std::uint64_t& x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto& word : s)
        word = splitmix64(sm);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return result;
}

double
Rng::uniform()
{
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t
Rng::uniformInt(std::uint64_t bound)
{
    HETARCH_ASSERT(bound > 0, "uniformInt bound must be positive");
    // Lemire's multiply-shift with rejection to remove modulo bias.
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
        const std::uint64_t threshold = -bound % bound;
        while (low < threshold) {
            x = next();
            m = static_cast<__uint128_t>(x) * bound;
            low = static_cast<std::uint64_t>(m);
        }
    }
    return static_cast<std::uint64_t>(m >> 64);
}

bool
Rng::bernoulli(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return uniform() < p;
}

double
Rng::exponential(double rate)
{
    HETARCH_ASSERT(rate > 0.0, "exponential rate must be positive");
    double u = uniform();
    // uniform() can return exactly 0; log(0) is -inf, so nudge.
    if (u <= 0.0)
        u = 0x1.0p-53;
    return -std::log(u) / rate;
}

double
Rng::normal()
{
    if (haveCachedNormal) {
        haveCachedNormal = false;
        return cachedNormal;
    }
    double u1 = uniform();
    if (u1 <= 0.0)
        u1 = 0x1.0p-53;
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cachedNormal = r * std::sin(theta);
    haveCachedNormal = true;
    return r * std::cos(theta);
}

std::uint64_t
Rng::biasedWord(double p)
{
    if (p <= 0.0)
        return 0;
    if (p >= 1.0)
        return ~0ull;
    // Lane-parallel comparison r < p, processing p's binary digits from
    // the most significant.  A lane is decided at the first digit where
    // its uniform bit differs from p's digit.
    std::uint64_t result = 0;
    std::uint64_t undecided = ~0ull;
    double frac = p;
    for (int i = 0; i < 48 && undecided; ++i) {
        frac *= 2.0;
        const bool digit = frac >= 1.0;
        if (digit)
            frac -= 1.0;
        const std::uint64_t u = next();
        if (digit) {
            result |= undecided & ~u; // r-bit 0 < p-bit 1 -> accept
            undecided &= u;
        } else {
            undecided &= ~u; // r-bit 1 > p-bit 0 -> reject
        }
    }
    return result;
}

std::uint64_t
Rng::geometricSkip(double log1m_p, std::uint64_t limit)
{
    if (std::isinf(log1m_p))
        return 0; // p = 1: every trial succeeds
    if (!(log1m_p < 0.0))
        return limit; // p = 0: no trial succeeds
    // 53 high bits + 1 -> u in (0, 1], so log(u) is finite and <= 0.
    const double u = static_cast<double>((next() >> 11) + 1) * 0x1.0p-53;
    const double skip = std::log(u) / log1m_p;
    // Compare as a double first: casting a value beyond 2^64 (tiny p)
    // to an integer is undefined.
    if (skip >= static_cast<double>(limit))
        return limit;
    return static_cast<std::uint64_t>(skip);
}

Rng
Rng::split()
{
    return Rng(next() ^ 0xa0761d6478bd642full);
}

std::uint64_t
Rng::deriveStream(std::uint64_t seed, std::uint64_t stream)
{
    // Feed the pair through SplitMix64 twice so that both nearby seeds
    // and nearby stream indices land in unrelated states.  stream + 1
    // keeps stream 0 from collapsing to a plain re-hash of the seed.
    std::uint64_t x = seed;
    std::uint64_t mixed = splitmix64(x);
    x = mixed ^ ((stream + 1) * 0x9e3779b97f4a7c15ull);
    mixed = splitmix64(x);
    return mixed;
}

} // namespace hetarch
