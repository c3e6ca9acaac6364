/**
 * @file
 * Pins the word-parallel block sampler's contracts:
 *
 *   - samples are bit-identical at every block width (1, 4, 8 words),
 *     including ragged shot counts that end in a partial word and in a
 *     partial block;
 *   - the block path consumes the RNG stream exactly like the
 *     sequential 64-shot path (noise is resolved in the same word and
 *     slice order), so generator state after sampling matches too;
 *   - a W-word block's slot-major tape holds, in column w, exactly the
 *     slice tapes streaming batch w resolves;
 *   - runBatchBlock over W words reproduces W sequential 1-word
 *     runBatchBlock calls word for word (measurement rows and flip
 *     totals);
 *   - every stab.sampler.* counter delta is invariant under the
 *     configured width, and under the advisory stage timers.
 *
 * The circuit under test (opcode_soup.hh) covers every opcode the
 * frame pipeline lowers.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/rng.hh"
#include "obs/obs.hh"
#include "qec/noise_model.hh"
#include "qec/surface_circuit.hh"
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

TEST(FrameBlock, BlockTapeMatchesStreamingSliceTapes)
{
    qec::CircuitNoise noise;
    noise.p2 = 1e-2;
    noise.p1 = 1e-3;
    const std::vector<std::pair<const char*, Circuit>> circuits = {
        {"opcodeSoup", opcodeSoup()},
        {"surfaceMemoryZ", qec::surfaceMemoryZ(3, 3, noise)},
    };
    for (const auto& [name, circuit] : circuits) {
        SCOPED_TRACE(name);
        const auto prog = FrameProgram::compile(circuit);
        ASSERT_GE(prog->numSlices(), 2u);
        const std::size_t words = kMaxFrameBlockWords;

        Rng rng_blk(42);
        FrameBlockScratch blk;
        const std::uint64_t flips_blk =
            prog->resolveNoiseTape(blk, words, rng_blk);

        // Stream the same words batch by batch: each slice's one-slice
        // tape must equal the block tape's window, column w.
        Rng rng_str(42);
        FrameStreamScratch str;
        std::uint64_t flips_str = 0;
        for (std::size_t w = 0; w < words; ++w) {
            prog->beginStream(str);
            for (std::size_t s = 0; s < prog->numSlices(); ++s) {
                flips_str += prog->runSlice(s, str, rng_str);
                const auto& info = prog->sliceInfo(s);
                for (std::uint32_t t = info.tapeBegin; t < info.tapeEnd;
                     ++t)
                    ASSERT_EQ(str.tape[t - info.tapeBegin],
                              blk.tape[t * words + w])
                        << "word " << w << " slot " << t;
            }
        }
        EXPECT_EQ(flips_blk, flips_str);
        EXPECT_GT(flips_blk, 0u);
        EXPECT_EQ(rng_blk(), rng_str());
    }
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

TEST(FrameBlock, StageTimersLeaveSamplesAndCountersUnchanged)
{
    const auto circuit = opcodeSoup();
    const FrameSimulator frame(circuit);
    WidthGuard guard;
    setFrameBlockWords(4);
    const bool saved_timing = obs::timingEnabled();

    const auto run = [&](bool timing) {
        obs::setTimingEnabled(timing);
        obs::Registry::instance().reset();
        Rng rng(2718);
        auto samples = frame.sampleDetectors(1000, rng);
        return std::make_tuple(std::move(samples),
                               obs::Registry::instance().snapshot(),
                               rng());
    };
    const auto [off, off_snap, off_next] = run(false);
    const auto [on, on_snap, on_next] = run(true);
    obs::setTimingEnabled(saved_timing);

    EXPECT_EQ(on.detWords, off.detWords);
    EXPECT_EQ(on.obsWords, off.obsWords);
    EXPECT_EQ(on_next, off_next);
    EXPECT_EQ(on_snap.counters, off_snap.counters);

    // 1000 shots = 16 words = 4 blocks of 4 words: one record per
    // block and stage with timing on, none with it off.
    const auto records = [](const obs::Snapshot& snap,
                            const std::string& name) {
        for (const auto& h : snap.histograms)
            if (h.name == name)
                return h.count;
        return std::uint64_t{0};
    };
    for (const char* name :
         {"stab.sampler.tape_ns", "stab.sampler.replay_ns"}) {
        EXPECT_EQ(records(on_snap, name), 4u) << name;
        EXPECT_EQ(records(off_snap, name), 0u) << name;
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
