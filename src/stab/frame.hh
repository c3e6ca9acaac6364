/**
 * @file
 * Batched Pauli-frame Monte-Carlo sampler.
 *
 * Instead of simulating the full stabilizer state, the frame sampler
 * tracks only the *difference* (a Pauli frame) between the noisy run
 * and the noiseless reference run.  Detector values are parities of
 * measurement-flip bits, so they can be sampled without knowing the
 * reference outcomes at all — this is exactly Stim's trick, and it is
 * what makes 10^5-shot surface-code experiments cheap.
 *
 * 64 shots are propagated simultaneously, one per bit of a 64-bit
 * word, and — since the bit-packed pipeline — *stay* packed through
 * the output: DetectorSamples stores detector-major words whose bit
 * lanes are shots, so the sampler's 64-way parallelism survives to the
 * decoder instead of being unpacked into per-shot byte arrays at the
 * boundary.  The sampler itself runs a FrameProgram (the circuit
 * lowered once, see frame_program.hh) rather than re-interpreting the
 * op list per batch.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/logging.hh"
#include "core/rng.hh"
#include "stab/circuit.hh"
#include "stab/frame_program.hh"

namespace hetarch {
namespace stab {

/**
 * Result of a batch of detector-sampling shots, bit-packed.
 *
 * Layout is detector-major: detector d's word w is
 * detWords[d * numWords + w], and shot s lives in bit lane (s % 64) of
 * word s / 64.  Idle lanes of a final partial word are zero, so
 * popcounts over words count real events only.  Observables use the
 * same layout in obsWords.
 */
struct DetectorSamples
{
    std::size_t shots = 0;
    std::size_t numDetectors = 0;
    std::size_t numObservables = 0;
    /** Packed words per detector/observable row: ceil(shots / 64). */
    std::size_t numWords = 0;
    std::vector<std::uint64_t> detWords;
    std::vector<std::uint64_t> obsWords;

    /** Word @p w of detector @p d's packed row. */
    std::uint64_t detWord(std::size_t d, std::size_t w) const
    {
        HETARCH_DEBUG_ASSERT(d < numDetectors && w < numWords,
                             "detector word (", d, ",", w,
                             ") out of range");
        return detWords[d * numWords + w];
    }
    /** Word @p w of observable @p k's packed row. */
    std::uint64_t obsWord(std::size_t k, std::size_t w) const
    {
        HETARCH_DEBUG_ASSERT(k < numObservables && w < numWords,
                             "observable word (", k, ",", w,
                             ") out of range");
        return obsWords[k * numWords + w];
    }

    /**
     * Whether detector @p d fired in shot @p shot.  Test-only compat
     * accessor: per-(shot, detector) bit extraction re-derives the
     * lane/word split on every call.  Production paths iterate packed
     * word blocks directly (detWord / obsWord); every non-test call
     * site has been migrated.
     */
    std::uint8_t det(std::size_t shot, std::size_t d) const
    {
        HETARCH_DEBUG_ASSERT(shot < shots && d < numDetectors,
                             "detector sample (", shot, ",", d,
                             ") out of range");
        return static_cast<std::uint8_t>(
            (detWords[d * numWords + shot / 64] >> (shot % 64)) & 1);
    }
    /** Observable @p k's value in shot @p shot; test-only, see det(). */
    std::uint8_t obs(std::size_t shot, std::size_t k) const
    {
        HETARCH_DEBUG_ASSERT(shot < shots && k < numObservables,
                             "observable sample (", shot, ",", k,
                             ") out of range");
        return static_cast<std::uint8_t>(
            (obsWords[k * numWords + shot / 64] >> (shot % 64)) & 1);
    }

    /** Number of fired detectors in shot @p shot (popcount column). */
    std::size_t shotWeight(std::size_t shot) const;

    /**
     * Test-only compat accessors: the pre-packing shot-major uint8
     * layout, detectors[shot * numDetectors + d].  O(shots x
     * detectors); cross-validation tests compare layouts through
     * these, production code iterates the packed words.
     */
    std::vector<std::uint8_t> unpackedDetectors() const;
    /** observables[shot * numObservables + k]; see unpackedDetectors. */
    std::vector<std::uint8_t> unpackedObservables() const;

    /** Allocate zeroed rows for @p n_shots shots. */
    void resize(std::size_t n_shots, std::size_t n_detectors,
                std::size_t n_observables);

    /**
     * Append @p other's shots after this buffer's.  The current shot
     * count must be a multiple of 64 (packed rows concatenate
     * word-wise), which the 64-aligned chunks of exec::ShotScheduler
     * guarantee for every chunk but the last.
     */
    void append(const DetectorSamples& other);
};

/**
 * One streaming unit of sampled data: the packed detector words of one
 * program slice ("round") of one 64-shot batch, plus the slice's
 * partial observable contribution.  Blocks of a batch arrive in slice
 * order; a consumer XOR-accumulates obsWords across the batch's blocks
 * to recover the full observable word.
 */
struct SyndromeBlock
{
    std::size_t batch = 0; ///< 64-shot batch index within the stream
    std::size_t slice = 0; ///< program slice ("round") index
    std::size_t lanes = 0; ///< active shot lanes (1..64)
    bool lastSliceOfBatch = false;
    std::uint32_t detBegin = 0; ///< global id of detWords[0]'s detector
    std::vector<std::uint64_t> detWords; ///< word per slice detector
    std::vector<std::uint64_t> obsWords; ///< partial obs XOR, per obs
};

/**
 * Incremental detector sampling: emits the shots of one chunk as
 * SyndromeBlocks, batch-major then slice-major, over the bounded
 * measurement ring of FrameStreamScratch — peak storage is one slice
 * plus the program's measurement lookback, independent of the round
 * count.
 *
 * RNG and telemetry parity with FrameSimulator::sampleDetectors: the
 * stream consumes the generator identically (each slice runs the same
 * tape resolution and replay code as a block, over its op range) and
 * flushes the same stab.sampler.* counter totals exactly once, when
 * the stream is exhausted.
 */
class DetectorStream
{
  public:
    DetectorStream(std::shared_ptr<const FrameProgram> program,
                   std::size_t shots);

    std::size_t shots() const { return nShots; }
    std::size_t numBatches() const { return nBatches; }
    std::size_t numSlices() const { return prog->numSlices(); }

    /**
     * Produce the next block into @p block (buffers are reused).
     * Returns false once the stream is exhausted — the call that
     * observes exhaustion flushes the sampler telemetry.
     */
    bool next(Rng& rng, SyndromeBlock& block);

  private:
    std::shared_ptr<const FrameProgram> prog;
    std::size_t nShots;
    std::size_t nBatches;
    std::size_t curBatch = 0;
    std::size_t curSlice = 0;
    FrameStreamScratch scratch;
    std::uint64_t flips = 0;
    bool flushed = false;
};

/**
 * Pauli-frame simulator over a fixed circuit (or pre-compiled frame
 * program — e.g. the one cached in qec::DecoderCache).
 */
class FrameSimulator
{
  public:
    /** Compile @p circuit privately (one cheap lowering pass). */
    explicit FrameSimulator(const Circuit& circuit);
    /** Share an already-compiled program; no reference to a Circuit. */
    explicit FrameSimulator(std::shared_ptr<const FrameProgram> program);

    /**
     * Sample @p shots Monte-Carlo shots of all detectors/observables,
     * bit-packed.  Shots are processed in batches of 64.
     */
    DetectorSamples sampleDetectors(std::size_t shots, Rng& rng) const;

    /**
     * Reference implementation: interpret the circuit op list per
     * batch, independently of the compiled FrameProgram, and unpack
     * each shot into the packed layout through the public accessor
     * contract.  Consumes the RNG stream identically to
     * sampleDetectors and DetectorStream, so fixed seeds must produce
     * bit-identical samples — it is the oracle the cross-validation
     * tests pin both against, and an arm of the ablation benches.
     * Requires construction from a Circuit.
     */
    DetectorSamples sampleDetectorsReference(std::size_t shots,
                                             Rng& rng) const;

    /**
     * Single-shot sampling of raw measurement *flips* relative to the
     * noiseless reference (mostly for tests and DEM cross-checks).
     */
    std::vector<std::uint8_t> sampleMeasurementFlips(Rng& rng) const;

    const FrameProgram& program() const { return *prog; }

  private:
    const Circuit* circ = nullptr; ///< only for the reference path
    std::shared_ptr<const FrameProgram> prog;
};

/**
 * Record the detected SIMD backend width as the one-shot gauge counter
 * `stab.sampler.simd_width` (64-bit words per vector op: 4 for AVX2, 2
 * for NEON, 1 for the scalar fallback).  The value is machine-dependent
 * by design, so compare_bench.py excludes it from exact comparison;
 * call this from bench harnesses only, never from library paths, so
 * deterministic counter-delta snapshots stay machine-independent.
 */
void recordSimdTelemetry();

} // namespace stab
} // namespace hetarch
