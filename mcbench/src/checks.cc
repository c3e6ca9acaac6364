#include "checks.hh"

#include <cmath>
#include <cstdio>

namespace mcbench {

namespace {

std::string
fmt(const char* format, double a, double b, double c, double d)
{
    char buf[200];
    std::snprintf(buf, sizeof buf, format, a, b, c, d);
    return buf;
}

} // namespace

Check
expectFailure(Check check)
{
    check.name = "negative self-test: " + check.name;
    check.pass = !check.pass;
    check.detail = (check.pass ? "perturbed output rejected ("
                               : "perturbed output ACCEPTED (") +
                   check.detail + ")";
    return check;
}

std::pair<double, double>
wilson(std::size_t k, std::size_t n, double z)
{
    if (n == 0)
        return {0.0, 1.0};
    const double nn = static_cast<double>(n);
    const double p = static_cast<double>(k) / nn;
    const double z2 = z * z;
    const double denom = 1.0 + z2 / nn;
    const double centre = (p + z2 / (2.0 * nn)) / denom;
    const double half =
        z * std::sqrt(p * (1.0 - p) / nn + z2 / (4.0 * nn * nn)) / denom;
    return {std::max(0.0, centre - half), std::min(1.0, centre + half)};
}

Check
rateMatchesReference(const std::string& name, std::size_t k, std::size_t n,
                     std::size_t ref_k, std::size_t ref_n, double z)
{
    const auto [lo, hi] = wilson(k, n, z);
    const auto [rlo, rhi] = wilson(ref_k, ref_n, z);
    Check c{name, lo <= rhi && rlo <= hi, ""};
    c.detail = fmt("run [%.4g, %.4g] vs reference [%.4g, %.4g]", lo, hi,
                   rlo, rhi);
    return c;
}

double
expectedFiredPerShot(const hetarch::stab::DetectorErrorModel& dem)
{
    std::vector<double> keep(dem.numDetectors, 1.0);
    for (const auto& m : dem.mechanisms)
        for (std::uint32_t d : m.detectors)
            keep[d] *= 1.0 - 2.0 * m.probability;
    double sum = 0.0;
    for (double k : keep)
        sum += 0.5 * (1.0 - k);
    return sum;
}

Check
detectorRateMatches(const std::string& name, double fired_total,
                    std::size_t shots, double expected_per_shot,
                    double rel_tol, double z)
{
    const double n = static_cast<double>(shots);
    const double observed = shots ? fired_total / n : 0.0;
    const double stderr_ = std::sqrt(2.0 * expected_per_shot / n);
    const double slack = rel_tol * expected_per_shot + z * stderr_;
    Check c{name, shots > 0 && std::fabs(observed - expected_per_shot) <= slack,
            ""};
    c.detail = fmt("observed %.5g vs DEM %.5g per shot (allowed +-%.3g, n=%.0f)",
                   observed, expected_per_shot, slack, n);
    return c;
}

Check
windowedMatchesWhole(const std::string& name, std::size_t windowed_failures,
                     std::size_t whole_failures, std::size_t shots,
                     double rel_margin, double z)
{
    const double n = static_cast<double>(shots);
    const double pw = shots ? windowed_failures / n : 0.0;
    const double pb = shots ? whole_failures / n : 0.0;
    const double se = std::sqrt(std::max(pb * (1.0 - pb), 1.0 / n) / n);
    const double slack = rel_margin * pb + z * se;
    Check c{name, shots > 0 && std::fabs(pw - pb) <= slack, ""};
    c.detail = fmt("windowed %.5g vs whole-buffer %.5g (allowed +-%.3g, n=%.0f)",
                   pw, pb, slack, n);
    return c;
}

Check
countEquals(const std::string& name, std::size_t got, std::size_t want)
{
    Check c{name, got == want, ""};
    c.detail = "got " + std::to_string(got) + ", want " + std::to_string(want);
    return c;
}

} // namespace mcbench
