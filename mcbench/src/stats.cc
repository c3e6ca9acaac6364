#include "stats.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

namespace mcbench {

double
percentileSorted(const std::vector<double>& sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const double rank = std::ceil(q / 100.0 * static_cast<double>(sorted.size()));
    const std::size_t idx =
        rank < 1.0 ? 0 : std::min(sorted.size(), static_cast<std::size_t>(rank)) - 1;
    return sorted[idx];
}

Percentiles
summarize(std::vector<double> samples)
{
    Percentiles p;
    p.n = samples.size();
    if (samples.empty())
        return p;
    std::sort(samples.begin(), samples.end());
    p.median = percentileSorted(samples, 50.0);
    for (double q : {50.0, 90.0, 99.0, 99.9}) {
        // Samples strictly beyond the nearest-rank position of q.
        const auto rank = static_cast<std::size_t>(
            std::ceil(q / 100.0 * static_cast<double>(p.n)));
        if (p.n - rank < 10)
            break;
        p.highPercentile = q;
        p.high = percentileSorted(samples, q);
    }
    return p;
}

double
percentile(std::vector<double> samples, double q)
{
    std::sort(samples.begin(), samples.end());
    return percentileSorted(samples, q);
}

double
median(std::vector<double> samples)
{
    return percentile(std::move(samples), 50.0);
}

std::string
describe(const Percentiles& p, const std::string& unit)
{
    char buf[160];
    if (p.highPercentile > 50.0) {
        std::snprintf(buf, sizeof buf, "median=%.6g %s p%g=%.6g %s (n=%zu)",
                      p.median, unit.c_str(), p.highPercentile, p.high,
                      unit.c_str(), p.n);
    } else {
        std::snprintf(buf, sizeof buf, "median=%.6g %s (n=%zu)", p.median,
                      unit.c_str(), p.n);
    }
    return buf;
}

} // namespace mcbench
