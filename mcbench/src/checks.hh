/**
 * @file
 * Correctness checks on workload outputs.
 *
 * No check compares bit-exact Monte-Carlo counts across commits: the
 * sampler's RNG contract may change deliberately, so the memory
 * workloads are checked statistically (Wilson intervals against a
 * recorded reference, detector rates against the public DEM) and only
 * the service workload, which compares two paths of the same commit,
 * demands bit identity.  Every check is paired with a negative
 * self-test in the run: the same check applied to a perturbed output
 * must fail, so a check that has lost its teeth fails the run.
 */

#pragma once

#include <cstddef>
#include <string>
#include <utility>

#include "stab/dem.hh"

namespace mcbench {

struct Check
{
    std::string name;
    bool pass = false;
    std::string detail;
};

/** The negative self-test of @p check: passes iff @p check failed. */
Check expectFailure(Check check);

/** Wilson score interval of @p k successes in @p n trials at z. */
std::pair<double, double> wilson(std::size_t k, std::size_t n, double z);

/**
 * Logical error rate @p k / @p n agrees with a recorded reference
 * (@p ref_k / @p ref_n): the two Wilson intervals at z overlap.
 */
Check rateMatchesReference(const std::string& name, std::size_t k,
                           std::size_t n, std::size_t ref_k,
                           std::size_t ref_n, double z);

/**
 * Expected fired detectors per shot under the DEM's independent
 * mechanisms: sum over detectors of (1 - prod(1 - 2 p_m)) / 2.
 */
double expectedFiredPerShot(const hetarch::stab::DetectorErrorModel& dem);

/**
 * Observed mean fired detectors per shot is within @p rel_tol of the
 * DEM prediction (plus z standard errors, variance bounded by twice
 * the mean since a mechanism flips at most two detectors of a graph).
 */
Check detectorRateMatches(const std::string& name, double fired_total,
                          std::size_t shots, double expected_per_shot,
                          double rel_tol, double z);

/**
 * Windowed logical error rate is within @p rel_margin of the
 * whole-buffer rate on the same shots, widened by z binomial standard
 * errors of the whole-buffer estimate.
 */
Check windowedMatchesWhole(const std::string& name,
                           std::size_t windowed_failures,
                           std::size_t whole_failures, std::size_t shots,
                           double rel_margin, double z);

/** Exact equality of a count. */
Check countEquals(const std::string& name, std::size_t got,
                  std::size_t want);

} // namespace mcbench
