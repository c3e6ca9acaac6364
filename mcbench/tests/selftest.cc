/**
 * @file
 * The benchmark's own tests: seeded input generation, the percentile
 * reporter, span self times, the Chrome trace writer, and the
 * correctness checks (each must pass on good output and reject a
 * perturbed one).
 *
 * Run with: python3 mcbench/run.py --self-test
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "checks.hh"
#include "stats.hh"
#include "trace.hh"
#include "workloads.hh"

namespace mcbench {
namespace {

TEST(Workloads, GeneratorIsDeterministicInSeed)
{
    EXPECT_EQ(repSeed(7, 3), repSeed(7, 3));
    EXPECT_NE(repSeed(7, 3), repSeed(8, 3));
    EXPECT_NE(repSeed(7, 3), repSeed(7, 4));

    const auto a = sweepRequestLines(42, 0);
    EXPECT_EQ(a, sweepRequestLines(42, 0));
    EXPECT_NE(a, sweepRequestLines(43, 0));
    EXPECT_NE(a, sweepRequestLines(42, 1));
    ASSERT_FALSE(a.empty());
    for (const std::string& line : a)
        EXPECT_NE(line.find("hetarch-job-v1"), std::string::npos) << line;
}

TEST(Workloads, NamesAreUniqueAndFindable)
{
    for (const auto& def : workloadDefs())
        EXPECT_EQ(findWorkload(def.name), &def);
    EXPECT_EQ(findWorkload("no-such-workload"), nullptr);
}

std::vector<double>
ramp(std::size_t n)
{
    std::vector<double> v;
    for (std::size_t i = n; i >= 1; --i) // unsorted on purpose
        v.push_back(static_cast<double>(i));
    return v;
}

TEST(Stats, ReportsMedianAndHighestPercentileWithTenBeyond)
{
    // 1000 samples: p99 leaves 10 beyond, p99.9 only 1.
    Percentiles p = summarize(ramp(1000));
    EXPECT_EQ(p.n, 1000u);
    EXPECT_EQ(p.median, 500.0);
    EXPECT_EQ(p.highPercentile, 99.0);
    EXPECT_EQ(p.high, 990.0);

    // 100 samples: p90 leaves 10 beyond, p99 only 1.
    p = summarize(ramp(100));
    EXPECT_EQ(p.highPercentile, 90.0);
    EXPECT_EQ(p.high, 90.0);

    // 20 samples: only the median has 10 beyond it.
    p = summarize(ramp(20));
    EXPECT_EQ(p.highPercentile, 50.0);

    // 19 samples: not even the median does.
    p = summarize(ramp(19));
    EXPECT_EQ(p.n, 19u);
    EXPECT_EQ(p.median, 10.0);
    EXPECT_EQ(p.highPercentile, 0.0);

    EXPECT_EQ(summarize({}).n, 0u);
    EXPECT_EQ(percentile(ramp(1000), 99.0), 990.0);
    EXPECT_EQ(median(ramp(5)), 3.0);
}

TEST(Stats, DescribeStatesSampleCount)
{
    const std::string s = describe(summarize(ramp(1000)), "us");
    EXPECT_NE(s.find("n=1000"), std::string::npos) << s;
    EXPECT_NE(s.find("p99="), std::string::npos) << s;
    const std::string few = describe(summarize(ramp(3)), "us");
    EXPECT_NE(few.find("n=3"), std::string::npos) << few;
    EXPECT_EQ(few.find("p50="), std::string::npos) << few;
}

Span
span(const char* name, std::uint64_t start, std::uint64_t end, int parent)
{
    Span s;
    s.name = name;
    s.startNs = start;
    s.endNs = end;
    s.parent = parent;
    return s;
}

TEST(Trace, SelfTimeSubtractsUnionOfChildren)
{
    const std::vector<Span> spans = {
        span("bench.op", 0, 100, -1),     // 0
        span("qec.a", 10, 40, 0),         // 1
        span("stab.b", 30, 60, 0),        // 2: overlaps a
        span("stab.c", 15, 20, 1),        // 3: grandchild of op
        span("qec.d", 90, 120, 0),        // 4: runs past its parent
    };
    const auto self = selfTimesNs(spans);
    // Children of op cover [10, 60) and [90, 100): 60 ns.
    EXPECT_EQ(self[0], 40u);
    EXPECT_EQ(self[1], 25u);
    EXPECT_EQ(self[2], 30u);
    EXPECT_EQ(self[3], 5u);
    EXPECT_EQ(self[4], 30u);

    const auto layers = layerSelfNs(spans);
    EXPECT_EQ(layers.at("bench"), 40u);
    EXPECT_EQ(layers.at("qec"), 55u);
    EXPECT_EQ(layers.at("stab"), 35u);

    EXPECT_EQ(durationsNs(spans, "stab.b"), std::vector<double>{30.0});
    EXPECT_EQ(totalNs(spans, "qec.a") + totalNs(spans, "qec.d"), 60.0);
}

TEST(Trace, RecorderNestsSpansAndSharesOpIds)
{
    Tracer tr(true);
    const std::uint64_t op = tr.newOp();
    {
        ScopedSpan outer(tr, "bench.op");
        ScopedSpan inner(tr, "stab.x");
    }
    tr.newOp();
    {
        ScopedSpan again(tr, "qec.y");
    }
    ASSERT_EQ(tr.spans().size(), 3u);
    EXPECT_EQ(tr.spans()[0].parent, -1);
    EXPECT_EQ(tr.spans()[1].parent, 0);
    EXPECT_EQ(tr.spans()[2].parent, -1);
    EXPECT_EQ(tr.spans()[0].op, op);
    EXPECT_EQ(tr.spans()[1].op, op);
    EXPECT_NE(tr.spans()[2].op, op);
    EXPECT_LE(tr.spans()[0].startNs, tr.spans()[1].startNs);
    EXPECT_GE(tr.spans()[0].endNs, tr.spans()[1].endNs);

    Tracer off(false);
    {
        ScopedSpan s(off, "stab.z");
    }
    EXPECT_TRUE(off.spans().empty());
}

TEST(Trace, ChromeTraceHasOneCompleteEventPerSpan)
{
    const std::vector<Span> spans = {span("bench.op", 0, 2000, -1),
                                     span("stab.\"q\"", 500, 900, 0)};
    const std::string path = testing::TempDir() + "mcbench_trace.json";
    ASSERT_TRUE(writeChromeTrace(path, spans, "test"));
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    const std::string s = text.str();
    std::size_t events = 0;
    for (std::size_t at = s.find("\"ph\":\"X\""); at != std::string::npos;
         at = s.find("\"ph\":\"X\"", at + 1))
        ++events;
    EXPECT_EQ(events, 2u);
    EXPECT_NE(s.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(s.find("\"ts\":0.500,\"dur\":0.400"), std::string::npos) << s;
    EXPECT_NE(s.find("stab.\\\"q\\\""), std::string::npos) << s;
    std::remove(path.c_str());
}

TEST(Checks, WilsonIntervalContainsEstimate)
{
    const auto [lo, hi] = wilson(50, 1000, 4.0);
    EXPECT_LT(lo, 0.05);
    EXPECT_GT(hi, 0.05);
    EXPECT_EQ(wilson(0, 1000, 4.0).first, 0.0);
    EXPECT_GT(wilson(0, 1000, 4.0).second, 0.0);
}

TEST(Checks, RateCheckAcceptsAgreementAndRejectsPerturbation)
{
    EXPECT_TRUE(rateMatchesReference("r", 830, 10000, 8400, 100000, 4).pass);
    EXPECT_FALSE(rateMatchesReference("r", 1245, 10000, 8400, 100000, 4).pass);
    EXPECT_TRUE(rateMatchesReference("r", 0, 100000, 0, 1000000, 4).pass);
    EXPECT_FALSE(rateMatchesReference("r", 50, 100000, 0, 1000000, 4).pass);

    const Check ok = rateMatchesReference("r", 830, 10000, 8400, 100000, 4);
    EXPECT_FALSE(expectFailure(ok).pass);
    EXPECT_TRUE(expectFailure(
                    rateMatchesReference("r", 1245, 10000, 8400, 100000, 4))
                    .pass);
}

TEST(Checks, DetectorRateAgainstDem)
{
    hetarch::stab::DetectorErrorModel dem;
    dem.numDetectors = 3;
    dem.mechanisms.push_back({0.1, {0, 1}, 0});
    dem.mechanisms.push_back({0.2, {1, 2}, 0});
    // P(d0) = 0.1, P(d1) = 0.1 * 0.8 + 0.9 * 0.2 = 0.26, P(d2) = 0.2.
    EXPECT_NEAR(expectedFiredPerShot(dem), 0.56, 1e-12);
    EXPECT_TRUE(detectorRateMatches("d", 0.56 * 1e5, 100000, 0.56, 0.02, 4).pass);
    EXPECT_FALSE(
        detectorRateMatches("d", 0.56 * 1.1e5, 100000, 0.56, 0.02, 4).pass);
}

TEST(Checks, WindowedAgainstWholeBuffer)
{
    EXPECT_TRUE(windowedMatchesWhole("w", 1390, 1230, 10000, 0.25, 4).pass);
    EXPECT_FALSE(windowedMatchesWhole("w", 2085, 1230, 10000, 0.25, 4).pass);
    EXPECT_FALSE(windowedMatchesWhole("w", 600, 1230, 10000, 0.25, 4).pass);
}

TEST(Checks, CountEquals)
{
    EXPECT_TRUE(countEquals("c", 7, 7).pass);
    EXPECT_FALSE(countEquals("c", 8, 7).pass);
    EXPECT_EQ(countEquals("c", 8, 7).detail, "got 8, want 7");
}

} // namespace
} // namespace mcbench
