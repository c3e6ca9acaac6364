/**
 * @file
 * Pins the union-find work counters (qec.decode.uf_grow_steps,
 * uf_unions, uf_peeled_edges): they are functions of the sampled
 * syndromes alone, so they must be identical at workers {1, 2, 8} and
 * sampler widths {1, 8}.  The advisory grow/peel timers they travel
 * with must leave the samples and every counter unchanged.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.hh"
#include "exec/thread_pool.hh"
#include "obs/obs.hh"
#include "qec/decoder_cache.hh"
#include "qec/memory_experiment.hh"
#include "qec/surface_circuit.hh"
#include "stab/frame.hh"
#include "stab/frame_program.hh"

namespace hetarch {
namespace qec {
namespace {

struct Settings
{
    std::size_t width;
    unsigned workers;
    bool timing;
};

struct RunState
{
    std::size_t failures = 0;
    std::vector<std::uint64_t> detWords;
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::uint64_t growSamples = 0;
    std::uint64_t peelSamples = 0;
};

std::uint64_t
counterValue(const RunState& state, const std::string& name)
{
    for (const auto& [n, v] : state.counters)
        if (n == name)
            return v;
    ADD_FAILURE() << "counter " << name << " missing";
    return 0;
}

RunState
run(const Settings& s)
{
    const std::size_t saved_width = stab::frameBlockWords();
    const bool saved_timing = obs::timingEnabled();
    exec::setThreadCount(s.workers);
    stab::setFrameBlockWords(s.width);
    obs::setTimingEnabled(s.timing);
    DecoderCache::instance().clear();
    obs::Registry::instance().reset();

    CircuitNoise noise;
    noise.p2 = 6e-3;
    noise.p1 = 6e-4;
    const auto circuit = surfaceMemoryZ(5, 5, noise);
    RunState state;
    Rng rng(4242);
    state.failures =
        runMemoryExperiment(circuit, 1200, 5, DecoderKind::UnionFind, rng)
            .failures;
    const auto snap = obs::Registry::instance().snapshot();
    state.counters = snap.counters;
    for (const auto& h : snap.histograms) {
        if (h.name == "qec.decode.grow_ns")
            state.growSamples = h.count;
        if (h.name == "qec.decode.peel_ns")
            state.peelSamples = h.count;
    }
    // The sampled bits themselves, drawn through the same program.
    const auto setup =
        DecoderCache::instance().get(circuit, DecoderKind::UnionFind);
    Rng sample_rng(77);
    state.detWords = stab::FrameSimulator(setup->program)
                         .sampleDetectors(700, sample_rng)
                         .detWords;

    obs::setTimingEnabled(saved_timing);
    stab::setFrameBlockWords(saved_width);
    exec::setThreadCount(0);
    return state;
}

TEST(UnionFindStats, CountersInvariantAcrossWorkersAndWidths)
{
    const auto reference = run({1, 1, false});
    EXPECT_GT(reference.failures, 0u);
    for (const char* name :
         {"qec.decode.uf_grow_steps", "qec.decode.uf_unions",
          "qec.decode.uf_peeled_edges"})
        EXPECT_GT(counterValue(reference, name), 0u) << name;
    // Every peeled edge is a fully grown edge, and growing one takes at
    // least one step.
    EXPECT_LE(counterValue(reference, "qec.decode.uf_peeled_edges"),
              counterValue(reference, "qec.decode.uf_grow_steps"));

    for (const std::size_t width : {std::size_t{1}, std::size_t{8}}) {
        for (const unsigned workers : {1u, 2u, 8u}) {
            const auto got = run({width, workers, false});
            EXPECT_EQ(got.failures, reference.failures)
                << "width=" << width << " workers=" << workers;
            for (const char* name :
                 {"qec.decode.uf_grow_steps", "qec.decode.uf_unions",
                  "qec.decode.uf_peeled_edges"})
                EXPECT_EQ(counterValue(got, name),
                          counterValue(reference, name))
                    << name << " width=" << width
                    << " workers=" << workers;
        }
    }
}

TEST(UnionFindStats, TimersLeaveSamplesAndCountersUnchanged)
{
    const auto untimed = run({8, 2, false});
    const auto timed = run({8, 2, true});
    EXPECT_EQ(untimed.growSamples, 0u);
    EXPECT_EQ(untimed.peelSamples, 0u);
    EXPECT_GT(timed.growSamples, 0u);
    EXPECT_EQ(timed.growSamples, timed.peelSamples);

    EXPECT_EQ(timed.failures, untimed.failures);
    EXPECT_EQ(timed.detWords, untimed.detWords);
    ASSERT_EQ(timed.counters.size(), untimed.counters.size());
    for (std::size_t i = 0; i < timed.counters.size(); ++i) {
        EXPECT_EQ(timed.counters[i].first, untimed.counters[i].first);
        EXPECT_EQ(timed.counters[i].second, untimed.counters[i].second)
            << timed.counters[i].first;
    }
}

} // namespace
} // namespace qec
} // namespace hetarch
