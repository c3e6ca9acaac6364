/**
 * @file
 * Tests for the single observable-carrier decoding graph.
 *
 * Only the graph whose detector class carries the logical observable
 * is decoded; the other class's graph could only ever contribute a
 * zero mask.  These tests pin that the setup picks the right carrier
 * per memory basis, and that failure counts on every decode path —
 * pre-sampled buffer, chunked batch, whole-buffer and windowed stream —
 * equal the counts recorded when both graphs were still decoded.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "core/rng.hh"
#include "qec/decoder_cache.hh"
#include "qec/memory_experiment.hh"
#include "qec/stream_experiment.hh"
#include "qec/surface_circuit.hh"
#include "stab/frame.hh"

namespace hetarch {
namespace qec {
namespace {

CircuitNoise
pinNoise()
{
    CircuitNoise noise;
    noise.p2 = 8e-3;
    noise.p1 = 8e-4;
    return noise;
}

constexpr std::array<std::uint64_t, 3> kSeeds = {11, 2027, 90001};
constexpr std::size_t kShots = 1500;

/** Failure counts per seed for one decode path and one basis. */
struct Pinned
{
    MemoryBasis basis;
    std::array<std::size_t, 3> buffer;   ///< countLogicalFailures
    std::array<std::size_t, 3> batch;    ///< runMemoryExperiment
    std::array<std::size_t, 3> stream;   ///< whole-buffer stream
    std::array<std::size_t, 3> windowed; ///< window 2, commit 1
};

// Recorded with both tagged graphs decoded and their masks XORed.
const Pinned kPinned[] = {
    {MemoryBasis::Z, {63, 48, 40}, {56, 50, 51}, {56, 50, 51}, {89, 84, 92}},
    {MemoryBasis::X, {57, 43, 53}, {61, 43, 50}, {61, 43, 50}, {102, 87, 89}},
};

TEST(CarrierGraph, SetupPicksTheObservableCarryingClass)
{
    for (const auto basis : {MemoryBasis::Z, MemoryBasis::X}) {
        const auto circuit = surfaceMemory(5, 5, pinNoise(), basis);
        const auto setup =
            DecoderSetup::build(circuit, DecoderKind::UnionFind);
        const auto want = basis == MemoryBasis::Z ? kTagZ : kTagX;
        EXPECT_EQ(setup->carrierTag, want);

        // The graph holds exactly the carrier class's detectors.
        const auto& tags = circuit.detectorTags();
        std::size_t carrier_dets = 0;
        for (std::size_t d = 0; d < tags.size(); ++d) {
            const bool kept = setup->graph.detectorToNode()[d] >= 0;
            EXPECT_EQ(kept, tags[d] == want) << "detector " << d;
            carrier_dets += tags[d] == want;
        }
        EXPECT_EQ(setup->graph.numNodes(), carrier_dets);

        std::size_t observable_edges = 0;
        for (const auto& e : setup->graph.edges())
            observable_edges += e.observables != 0;
        EXPECT_GE(observable_edges, 1u);
    }
}

TEST(CarrierGraph, FailureCountsMatchTwoGraphDecode)
{
    for (const auto& pin : kPinned) {
        const auto circuit = surfaceMemory(5, 5, pinNoise(), pin.basis);
        const auto setup =
            DecoderCache::instance().get(circuit, DecoderKind::UnionFind);
        for (std::size_t i = 0; i < kSeeds.size(); ++i) {
            const auto tag = pin.basis == MemoryBasis::Z ? "Z" : "X";
            {
                Rng rng(kSeeds[i]);
                const stab::FrameSimulator frame(setup->program);
                const auto samples = frame.sampleDetectors(kShots, rng);
                EXPECT_EQ(countLogicalFailures(*setup,
                                               DecoderKind::UnionFind,
                                               samples),
                          pin.buffer[i])
                    << "buffer basis=" << tag << " seed=" << kSeeds[i];
            }
            {
                Rng rng(kSeeds[i]);
                EXPECT_EQ(runMemoryExperiment(circuit, kShots, 5,
                                              DecoderKind::UnionFind, rng)
                              .failures,
                          pin.batch[i])
                    << "batch basis=" << tag << " seed=" << kSeeds[i];
            }
            {
                Rng rng(kSeeds[i]);
                EXPECT_EQ(runStreamingMemoryExperiment(
                              circuit, kShots, 5, DecoderKind::UnionFind,
                              rng)
                              .memory.failures,
                          pin.stream[i])
                    << "stream basis=" << tag << " seed=" << kSeeds[i];
            }
            {
                Rng rng(kSeeds[i]);
                StreamConfig config;
                config.windowRounds = 2;
                config.commitRounds = 1;
                EXPECT_EQ(runStreamingMemoryExperiment(
                              circuit, kShots, 5, DecoderKind::UnionFind,
                              rng, config)
                              .memory.failures,
                          pin.windowed[i])
                    << "windowed basis=" << tag << " seed=" << kSeeds[i];
            }
        }
    }
}

} // namespace
} // namespace qec
} // namespace hetarch
