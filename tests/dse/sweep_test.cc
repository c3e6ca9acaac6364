/**
 * @file
 * Tests for the DSE sweep engine and burden estimator.
 */

#include <gtest/gtest.h>

#include <mutex>

#include "core/units.hh"
#include "distill/module_sim.hh"
#include "dse/burden.hh"
#include "dse/sweep.hh"
#include "teleport/code_teleport.hh"

namespace hetarch {
namespace dse {
namespace {

TEST(Sweep, GridSizeAndOrder)
{
    Sweep s;
    s.parameter("a", {1, 2, 3}).parameter("b", {10, 20});
    EXPECT_EQ(s.size(), 6u);

    // run() evaluates points on pool workers in any order; results come
    // back in grid order.
    std::mutex mu;
    std::size_t visits = 0;
    const auto results = s.run([&](const DesignPoint& p) -> Metrics {
        const std::lock_guard<std::mutex> lock(mu);
        ++visits;
        return {{"sum", p.at("a") + p.at("b")}};
    });
    EXPECT_EQ(visits, 6u);
    ASSERT_EQ(results.size(), 6u);
    const auto at = [&](std::size_t i) {
        return std::pair<double, double>{results[i].first.at("a"),
                                         results[i].first.at("b")};
    };
    EXPECT_EQ(at(0), (std::pair<double, double>{1, 10}));
    EXPECT_EQ(at(5), (std::pair<double, double>{3, 20}));
}

TEST(Sweep, ArgminFindsOptimum)
{
    Sweep s;
    s.parameter("x", {-2, -1, 0, 1, 2});
    const auto results = s.run([](const DesignPoint& p) -> Metrics {
        const double x = p.at("x");
        return {{"cost", (x - 1) * (x - 1)}};
    });
    const auto best = Sweep::argmin(results, "cost");
    EXPECT_DOUBLE_EQ(best.at("x"), 1.0);
}

TEST(Sweep, TabulateShapes)
{
    Sweep s;
    s.parameter("p", {0.1, 0.2});
    const auto results = s.run([](const DesignPoint& p) -> Metrics {
        return {{"twice", 2 * p.at("p")}};
    });
    const auto table = Sweep::tabulate(results);
    EXPECT_EQ(table.rows(), 2u);
}

TEST(Sweep, DuplicateParameterDies)
{
    Sweep s;
    s.parameter("a", {1});
    EXPECT_DEATH(s.parameter("a", {2}), "duplicate");
}

TEST(Sweep, MissingMetricDies)
{
    Sweep s;
    s.parameter("a", {1});
    const auto results = s.run(
        [](const DesignPoint&) -> Metrics { return {{"m", 1.0}}; });
    EXPECT_DEATH(Sweep::argmin(results, "nope"), "not found");
}

TEST(Burden, HierarchicalReductionIsLarge)
{
    const auto mod =
        distill::buildDistillationModule(12.5 * units::ms);
    const auto est = estimateBurden(mod);
    EXPECT_GT(est.totalQubits, est.largestCellQubits);
    // The paper's headline: >= 10^4 reduction in simulation burden.
    EXPECT_GE(est.reductionFactor(), 1e4);
}

TEST(Burden, CtModuleEvenLarger)
{
    const auto distill_mod =
        distill::buildDistillationModule(12.5 * units::ms);
    const auto ct = teleport::buildCodeTeleportModule(50.0 * units::ms);
    EXPECT_GT(estimateBurden(ct).reductionFactor(),
              estimateBurden(distill_mod).reductionFactor());
}

} // namespace
} // namespace dse
} // namespace hetarch
