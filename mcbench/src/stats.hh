/**
 * @file
 * Sample summaries for the benchmark's timings: the median plus the
 * highest percentile that still has at least ten samples beyond it,
 * always reported with the sample count.
 */

#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace mcbench {

/** Summary of one timing series. */
struct Percentiles
{
    std::size_t n = 0;   ///< samples summarized
    double median = 0.0;
    /**
     * Highest percentile from {50, 90, 99, 99.9} with at least ten
     * samples strictly above its rank; 0 when even the median lacks
     * ten (fewer than 20 samples), in which case `high` is unset.
     */
    double highPercentile = 0.0;
    double high = 0.0;
};

/** Nearest-rank percentile @p q (0..100] of @p sorted (ascending). */
double percentileSorted(const std::vector<double>& sorted, double q);

/** Summarize @p samples (copied and sorted). */
Percentiles summarize(std::vector<double> samples);

/** Nearest-rank percentile @p q of unsorted @p samples; 0 when empty. */
double percentile(std::vector<double> samples, double q);

/** percentile(samples, 50). */
double median(std::vector<double> samples);

/**
 * "median=1.23 us p99=4.56 us (n=1200)"; the high percentile is left
 * out when it is the median.
 */
std::string describe(const Percentiles& p, const std::string& unit);

} // namespace mcbench
