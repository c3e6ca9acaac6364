/**
 * @file
 * Pins the streaming sampler contract (frame_program.hh slices +
 * DetectorStream): sliced execution must consume the RNG stream
 * identically to the block sampler at every width and reassemble to
 * bit-identical packed samples and flip counts, while the per-stream
 * measurement storage stays bounded by the program's lookback,
 * independent of the round count.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/rng.hh"
#include "obs/obs.hh"
#include "qec/noise_model.hh"
#include "qec/surface_circuit.hh"
#include "stab/frame.hh"
#include "stab/frame_program.hh"

#include "opcode_soup.hh"

namespace hetarch {
namespace stab {
namespace {

qec::CircuitNoise
testNoise()
{
    qec::CircuitNoise noise;
    noise.p2 = 1e-2;
    noise.p1 = 1e-3;
    return noise;
}

TEST(FrameProgramSlices, SurfaceCircuitSlicesOncePerRound)
{
    for (std::size_t rounds : {2u, 5u}) {
        const auto circ = qec::surfaceMemoryZ(3, rounds, testNoise());
        const auto prog = FrameProgram::compile(circ);
        // The slice boundary rule (close before a qubit's second
        // measurement since the last boundary) lands exactly one QEC
        // round per slice; the final data readout joins the last round.
        EXPECT_EQ(prog->numSlices(), rounds) << "rounds " << rounds;

        // Slices tile the detector/measurement/op ranges contiguously.
        std::size_t det_cursor = 0;
        for (std::size_t s = 0; s < prog->numSlices(); ++s) {
            const auto& info = prog->sliceInfo(s);
            EXPECT_EQ(info.detBegin, det_cursor);
            EXPECT_GE(info.detEnd, info.detBegin);
            det_cursor = info.detEnd;
        }
        EXPECT_EQ(det_cursor, prog->numDetectors());
    }
}

TEST(FrameProgramSlices, MeasurementRingIsBoundedByLookbackNotRounds)
{
    const auto short_prog =
        FrameProgram::compile(qec::surfaceMemoryZ(3, 4, testNoise()));
    const auto long_prog =
        FrameProgram::compile(qec::surfaceMemoryZ(3, 32, testNoise()));

    // Detectors compare at most adjacent rounds, so the lookback — and
    // with it the ring — must not grow with the round count.
    EXPECT_EQ(long_prog->measRingCapacity(),
              short_prog->measRingCapacity());
    EXPECT_LT(long_prog->measRingCapacity(), long_prog->numMeasurements());
    EXPECT_GE(long_prog->measRingCapacity(), long_prog->measLookback());
}

std::uint64_t
frameFlips()
{
    for (const auto& [name, value] :
         obs::Registry::instance().snapshot().counters)
        if (name == "stab.sampler.frame_flips")
            return value;
    return 0;
}

TEST(DetectorStream, ReassemblesToBatchSamplerBitsExactly)
{
    const std::vector<std::pair<const char*, Circuit>> circuits = {
        {"surfaceMemoryZ", qec::surfaceMemoryZ(5, 6, testNoise())},
        {"opcodeSoup", opcodeSoup()},
    };
    const std::size_t saved_width = frameBlockWords();
    for (const auto& [name, circ] : circuits) {
        SCOPED_TRACE(name);
        const auto prog = FrameProgram::compile(circ);
        ASSERT_GE(prog->numSlices(), 2u);

        // 600 shots: 9 full 64-lane batches plus a 24-lane partial
        // batch — a partial block at width 8 too.
        const std::size_t shots = 600;
        obs::Registry::instance().reset();
        Rng stream_rng(424242);
        DetectorStream stream(prog, shots);

        DetectorSamples rebuilt;
        rebuilt.resize(shots, prog->numDetectors(),
                       prog->numObservables());
        std::size_t blocks = 0;
        SyndromeBlock block;
        while (stream.next(stream_rng, block)) {
            ++blocks;
            ASSERT_LT(block.batch, rebuilt.numWords);
            const auto& info = prog->sliceInfo(block.slice);
            ASSERT_EQ(block.detBegin, info.detBegin);
            ASSERT_EQ(block.detWords.size(), info.detEnd - info.detBegin);
            for (std::size_t i = 0; i < block.detWords.size(); ++i)
                rebuilt.detWords[(block.detBegin + i) * rebuilt.numWords +
                                 block.batch] = block.detWords[i];
            // Observable words accumulate across a batch's blocks.
            for (std::size_t k = 0; k < block.obsWords.size(); ++k)
                rebuilt.obsWords[k * rebuilt.numWords + block.batch] ^=
                    block.obsWords[k];
            EXPECT_EQ(block.lastSliceOfBatch,
                      block.slice + 1 == prog->numSlices());
        }
        EXPECT_EQ(blocks, stream.numBatches() * prog->numSlices());
        const std::uint64_t stream_flips = frameFlips();
        const std::uint64_t stream_next = stream_rng();

        // The stream must equal 1-word blocks and full 8-word blocks:
        // samples, flip totals and RNG post-state.
        const FrameSimulator sim(prog);
        for (const std::size_t width : {std::size_t{1}, std::size_t{8}}) {
            setFrameBlockWords(width);
            obs::Registry::instance().reset();
            Rng batch_rng(424242);
            const auto samples = sim.sampleDetectors(shots, batch_rng);
            EXPECT_EQ(stream.numBatches(), samples.numWords);
            EXPECT_EQ(rebuilt.detWords, samples.detWords)
                << "width " << width;
            EXPECT_EQ(rebuilt.obsWords, samples.obsWords)
                << "width " << width;
            EXPECT_EQ(frameFlips(), stream_flips) << "width " << width;
            EXPECT_EQ(batch_rng(), stream_next) << "width " << width;
        }
    }
    setFrameBlockWords(saved_width);
}

TEST(DetectorStream, SliceSequenceConsumesRngLikeRunBatch)
{
    const std::vector<std::pair<const char*, Circuit>> circuits = {
        {"surfaceMemoryZ", qec::surfaceMemoryZ(3, 3, testNoise())},
        {"opcodeSoup", opcodeSoup()},
    };
    for (const auto& [name, circ] : circuits) {
        SCOPED_TRACE(name);
        const auto prog = FrameProgram::compile(circ);

        // Three consecutive 64-shot batches through 1-word blocks ...
        FrameBlockScratch block_scratch;
        Rng block_rng(77);
        std::uint64_t block_flips = 0;
        for (int batch = 0; batch < 3; ++batch)
            block_flips += prog->runBatchBlock(block_scratch, 1, block_rng);
        EXPECT_GT(block_flips, 0u);

        // ... and through the slice sequence on the same seed.
        FrameStreamScratch stream_scratch;
        Rng slice_rng(77);
        std::uint64_t slice_flips = 0;
        for (int batch = 0; batch < 3; ++batch) {
            prog->beginStream(stream_scratch);
            for (std::size_t s = 0; s < prog->numSlices(); ++s)
                slice_flips += prog->runSlice(s, stream_scratch, slice_rng);
        }

        EXPECT_EQ(slice_flips, block_flips);
        EXPECT_EQ(block_rng(), slice_rng());
    }
}

} // namespace
} // namespace stab
} // namespace hetarch
