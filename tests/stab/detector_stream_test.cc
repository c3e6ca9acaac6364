/**
 * @file
 * Pins the streaming sampler contract (frame_program.hh slices +
 * DetectorStream): sliced execution must consume the RNG stream
 * identically to the op-list reference interpreter and reassemble to
 * bit-identical packed samples, while the per-stream measurement
 * storage stays bounded by the program's lookback, independent of the
 * round count.
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

TEST(DetectorStream, ReassemblesToBatchSamplerBitsExactly)
{
    // The reference interpreter shares no code with the tape/replay
    // path the stream runs, so it is the independent oracle here.
    const std::vector<std::pair<const char*, Circuit>> circuits = {
        {"surfaceMemoryZ", qec::surfaceMemoryZ(5, 6, testNoise())},
        {"opcodeSoup", opcodeSoup()},
    };
    for (const auto& [name, circ] : circuits) {
        SCOPED_TRACE(name);
        const auto prog = FrameProgram::compile(circ);
        ASSERT_GE(prog->numSlices(), 2u);
        const FrameSimulator sim(circ);

        // 100 shots: one full 64-lane batch plus a 36-lane partial
        // batch.
        const std::size_t shots = 100;
        Rng ref_rng(424242);
        const auto samples = sim.sampleDetectorsReference(shots, ref_rng);

        Rng stream_rng(424242);
        DetectorStream stream(prog, shots);
        EXPECT_EQ(stream.numBatches(), samples.numWords);

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

        EXPECT_EQ(rebuilt.detWords, samples.detWords);
        EXPECT_EQ(rebuilt.obsWords, samples.obsWords);

        // RNG-consumption parity: both generators must sit at the same
        // stream position after sampling the same shots.
        EXPECT_EQ(ref_rng(), stream_rng());
    }
}

TEST(DetectorStream, SliceSequenceConsumesRngLikeRunBatch)
{
    const auto circ = qec::surfaceMemoryZ(3, 3, testNoise());
    const auto prog = FrameProgram::compile(circ);
    const FrameSimulator sim(circ);

    // One 64-shot reference batch: its frame_flips counter delta is
    // the applied error-lane count the slices must reproduce.
    obs::Registry::instance().reset();
    Rng ref_rng(77);
    const auto unused = sim.sampleDetectorsReference(64, ref_rng);
    (void)unused;
    std::uint64_t ref_flips = 0;
    for (const auto& [name, value] :
         obs::Registry::instance().snapshot().counters)
        if (name == "stab.sampler.frame_flips")
            ref_flips = value;
    EXPECT_GT(ref_flips, 0u);

    FrameStreamScratch stream_scratch;
    Rng slice_rng(77);
    prog->beginStream(stream_scratch);
    std::uint64_t slice_flips = 0;
    for (std::size_t s = 0; s < prog->numSlices(); ++s)
        slice_flips += prog->runSlice(s, stream_scratch, slice_rng);

    EXPECT_EQ(slice_flips, ref_flips);
    EXPECT_EQ(ref_rng(), slice_rng());
}

} // namespace
} // namespace stab
} // namespace hetarch
