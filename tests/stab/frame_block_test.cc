/**
 * @file
 * Pins the word-parallel block sampler's contracts:
 *
 *   - samples are bit-identical at every block width (1, 4, 8 words),
 *     including ragged shot counts that end in a partial word and in a
 *     partial block;
 *   - the block path consumes the RNG stream exactly like the
 *     sequential 64-shot path (noise words are resolved in the same
 *     order), so generator state after sampling matches too;
 *   - runBatchBlock over W words reproduces W sequential 1-word
 *     runBatchBlock calls word for word (measurement rows and flip
 *     totals);
 *   - every stab.sampler.* counter delta is invariant under the
 *     configured width.
 *
 * The circuit under test (opcode_soup.hh) covers every opcode the
 * frame pipeline lowers.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/rng.hh"
#include "obs/obs.hh"
#include "stab/circuit.hh"
#include "stab/frame.hh"
#include "stab/frame_program.hh"

#include "opcode_soup.hh"

namespace hetarch {
namespace stab {
namespace {

/** Restore the configured block width on scope exit. */
struct WidthGuard
{
    std::size_t saved = frameBlockWords();
    ~WidthGuard() { setFrameBlockWords(saved); }
};

std::uint64_t
counterValue(const obs::Snapshot& snap, const std::string& name)
{
    for (const auto& [n, v] : snap.counters)
        if (n == name)
            return v;
    return 0;
}

TEST(FrameBlock, SamplesAreBitIdenticalAtEveryWidth)
{
    const auto circuit = opcodeSoup();
    const FrameSimulator frame(circuit);
    WidthGuard guard;

    // 300 shots = 4 full words + a 44-lane partial word; with width 4
    // the last block also holds fewer words than the width.
    for (const std::size_t shots : {std::size_t{300}, std::size_t{64},
                                    std::size_t{1}, std::size_t{513}}) {
        setFrameBlockWords(1);
        Rng rng_ref(777);
        const auto ref = frame.sampleDetectors(shots, rng_ref);
        // RNG-consumption parity: every width must leave the generator
        // exactly where the 1-word path left it.
        const std::uint64_t next_draw = rng_ref();

        for (const std::size_t width : {std::size_t{4}, std::size_t{8}}) {
            setFrameBlockWords(width);
            Rng rng(777);
            const auto got = frame.sampleDetectors(shots, rng);
            EXPECT_EQ(got.detWords, ref.detWords)
                << "width=" << width << " shots=" << shots;
            EXPECT_EQ(got.obsWords, ref.obsWords)
                << "width=" << width << " shots=" << shots;
            EXPECT_EQ(rng(), next_draw)
                << "width=" << width << " shots=" << shots;
        }
    }
}

TEST(FrameBlock, BlockPathMatchesReferenceInterpreter)
{
    const auto circuit = opcodeSoup();
    const FrameSimulator frame(circuit);
    WidthGuard guard;
    setFrameBlockWords(8);

    Rng rng_packed(42);
    Rng rng_ref(42);
    const auto packed = frame.sampleDetectors(500, rng_packed);
    const auto ref = frame.sampleDetectorsReference(500, rng_ref);
    EXPECT_EQ(packed.detWords, ref.detWords);
    EXPECT_EQ(packed.obsWords, ref.obsWords);
    EXPECT_EQ(rng_packed(), rng_ref());
}

TEST(FrameBlock, RunBatchBlockReproducesSequentialBatches)
{
    const auto circuit = opcodeSoup();
    const auto prog = FrameProgram::compile(circuit);
    const std::size_t words = 4;

    Rng rng_seq(9001);
    FrameBlockScratch seq;
    std::vector<std::vector<std::uint64_t>> meas_by_word;
    std::uint64_t flips_seq = 0;
    for (std::size_t j = 0; j < words; ++j) {
        flips_seq += prog->runBatchBlock(seq, 1, rng_seq);
        meas_by_word.push_back(seq.meas);
    }

    Rng rng_blk(9001);
    FrameBlockScratch blk;
    const std::uint64_t flips_blk =
        prog->runBatchBlock(blk, words, rng_blk);

    EXPECT_EQ(flips_blk, flips_seq);
    ASSERT_EQ(blk.meas.size(), prog->numMeasurements() * words);
    for (std::size_t m = 0; m < prog->numMeasurements(); ++m)
        for (std::size_t j = 0; j < words; ++j)
            EXPECT_EQ(blk.meas[m * words + j], meas_by_word[j][m])
                << "measurement " << m << " word " << j;
    EXPECT_EQ(rng_blk(), rng_seq());
}

TEST(FrameBlock, CounterDeltasAreWidthInvariant)
{
    const auto circuit = opcodeSoup();
    const FrameSimulator frame(circuit);
    WidthGuard guard;

    const auto deltas = [&](std::size_t width) {
        setFrameBlockWords(width);
        obs::Registry::instance().reset();
        Rng rng(31337);
        const auto unused = frame.sampleDetectors(777, rng);
        (void)unused;
        return obs::Registry::instance().snapshot();
    };

    const auto ref = deltas(1);
    EXPECT_EQ(counterValue(ref, "stab.sampler.shots"), 777u);
    EXPECT_EQ(counterValue(ref, "stab.sampler.batches"), 13u);
    EXPECT_GT(counterValue(ref, "stab.sampler.noise_words"), 0u);
    for (const std::size_t width : {std::size_t{4}, std::size_t{8}}) {
        const auto got = deltas(width);
        for (const char* name :
             {"stab.sampler.calls", "stab.sampler.shots",
              "stab.sampler.batches", "stab.sampler.frame_flips",
              "stab.sampler.noise_words"}) {
            EXPECT_EQ(counterValue(got, name), counterValue(ref, name))
                << name << " at width " << width;
        }
    }
}

TEST(FrameBlock, ConfiguredWidthIsClampedToSupportedRange)
{
    WidthGuard guard;
    setFrameBlockWords(0);
    EXPECT_EQ(frameBlockWords(), 1u);
    setFrameBlockWords(3);
    EXPECT_EQ(frameBlockWords(), 3u);
    setFrameBlockWords(99);
    EXPECT_EQ(frameBlockWords(), kMaxFrameBlockWords);
}

} // namespace
} // namespace stab
} // namespace hetarch
