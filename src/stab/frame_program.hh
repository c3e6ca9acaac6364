/**
 * @file
 * Compiled frame programs: a Circuit lowered once into a flat op
 * stream plus sparse detector/observable XOR masks.
 *
 * The Pauli-frame sampler used to re-interpret the full op list per
 * 64-shot batch — including the annotation ops it skips — and then
 * re-scan it a second time to fold measurement flips into detectors.
 * A FrameProgram hoists all of that out of the hot loop:
 *
 *   - unitary/noise/measure ops become a dense array of compact
 *     FrameOps with pre-resolved noise plans (e.g. the PAULI1 channel's
 *     conditional branch probabilities are divided out at compile
 *     time), and ops that neither touch the frame nor consume
 *     randomness (bare Paulis, annotations, zero-probability PAULI1)
 *     are dropped entirely;
 *   - DETECTOR/OBSERVABLE annotations become CSR lists of
 *     measurement-record indices, so folding a batch is one sparse XOR
 *     pass over packed words instead of an op-list scan.
 *
 * Every execution of the program — whole blocks and streaming slices
 * alike — is the same two passes: resolve the noise tape, then replay
 * the op stream over it (see "word-block execution" below).
 *
 * The compiled program consumes the RNG stream *identically* to the
 * op-list reference interpreter (FrameSimulator::sampleDetectorsReference):
 * every op that draws randomness is kept (even no-op ones like
 * X_ERROR(p=0), whose biasedWord call returns without drawing —
 * dropping it would be safe, but keeping the call sites aligned makes
 * the equivalence argument local to each opcode), the op order is
 * unchanged, and pre-resolved probabilities are the same IEEE doubles
 * the interpreter would compute per batch.  This is what lets
 * fixed-seed artifacts survive the migration bit-for-bit.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/rng.hh"
#include "stab/circuit.hh"

namespace hetarch {
namespace stab {

/** Compact opcode set of the compiled frame stream. */
enum class FrameOpCode : std::uint8_t
{
    H,       ///< swap x/z on qubit a
    SGate,   ///< S or SDG: z ^= x on qubit a
    CX,      ///< a = control, b = target
    CZ,
    Swap,
    M,       ///< record x[a]; one rng draw collapses the z frame
    R,       ///< clear x/z on qubit a
    MR,      ///< record x[a], then clear (no rng draw)
    XError,  ///< p0 = probability
    ZError,  ///< p0 = probability
    Pauli1,  ///< p0 = ptot, p1 = P(X | error), p2 = P(Y | error, not X)
    Depol1,  ///< p0 = probability
    Depol2,  ///< qubits a/b, p0 = probability
};

/** One compiled op.  Noise plans are pre-resolved into p0/p1/p2. */
struct FrameOp
{
    FrameOpCode code;
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    /**
     * First noise-tape slot of this op: the RNG resolution pass
     * writes the op's drawn masks into tape rows [tape, tape + slots),
     * and the replay pass XORs them into the frame.  Slots are
     * program-wide; a streaming slice's tape window starts at its
     * FrameSliceInfo::tapeBegin.  Zero-slot ops (pure Cliffords, R)
     * never read it.
     */
    std::uint32_t tape = 0;
    double p0 = 0.0;
    double p1 = 0.0;
    double p2 = 0.0;
};

/**
 * Reusable per-thread frame state for W-word block batches (W x 64
 * shots).  All rows are word-blocks: qubit q's X frame occupies
 * x[q * words .. q * words + words), measurement record m occupies
 * meas[m * words ..), and noise-tape slot t occupies tape[t * words ..).
 * Word j of every row holds the same 64-shot lane group, so word-major
 * slices of a block are bit-identical to W independent 64-shot batches.
 */
struct FrameBlockScratch
{
    std::size_t words = 0; ///< block width the buffers are sized for
    std::vector<std::uint64_t> x;
    std::vector<std::uint64_t> z;
    std::vector<std::uint64_t> meas;
    std::vector<std::uint64_t> tape; ///< resolved noise masks, slot-major
    /// Batch-major resolution staging (transposed into `tape`; see
    /// resolveNoiseTape) — untouched at width 1.
    std::vector<std::uint64_t> stage;
    std::vector<std::uint64_t> fold; ///< annotation-fold accumulator row
};

/**
 * One compiled slice ("round") of the op stream: the half-open op,
 * measurement-record, detector and per-slice-observable ranges it
 * covers.  Slices partition the stream; boundaries fall where a qubit
 * is measured for the second time since the previous boundary, which
 * for round-structured circuits (every ancilla measured once per
 * round) lands exactly one QEC round per slice.
 */
struct FrameSliceInfo
{
    std::uint32_t opBegin = 0;   ///< first compiled op of the slice
    std::uint32_t opEnd = 0;
    std::uint32_t rngBegin = 0;  ///< first RNG-consuming op (rngOps index)
    std::uint32_t rngEnd = 0;
    std::uint32_t tapeBegin = 0; ///< first noise-tape slot of the slice
    std::uint32_t measBegin = 0; ///< first measurement record
    std::uint32_t measEnd = 0;
    std::uint32_t detBegin = 0;  ///< first detector emitted in the slice
    std::uint32_t detEnd = 0;
    std::uint32_t obsBegin = 0;  ///< per-slice observable entry range
    std::uint32_t obsEnd = 0;
};

/**
 * Per-thread frame state for streaming slice execution.  Instead of
 * the full measurement record, measurement flips land in a bounded
 * power-of-two ring sized by the program's measurement lookback (how
 * far back any detector reaches, ~2 rounds for memory circuits), and
 * the noise tape holds one slice's slots, so peak storage is
 * independent of the round count.
 */
struct FrameStreamScratch
{
    std::vector<std::uint64_t> x;
    std::vector<std::uint64_t> z;
    std::vector<std::uint64_t> tape; ///< current slice's resolved noise
    std::vector<std::uint64_t> measRing; ///< pow2-sized record ring
    std::size_t measCursor = 0; ///< absolute index of the next record
};

/**
 * A circuit lowered for batched frame simulation.  Immutable after
 * compile(); safe to share across threads (DecoderCache stores one per
 * circuit beside the DEM).
 */
class FrameProgram
{
  public:
    /**
     * Lower @p circuit.  @p depol2_retries is the rejection-sampling
     * retry budget of the DEPOL2 channel; the default matches the
     * reference interpreter and must not be changed outside tests (the
     * RNG-consumption contract pins it).
     */
    static std::shared_ptr<const FrameProgram>
    compile(const Circuit& circuit, int depol2_retries = kDepol2Retries);

    /** Reference interpreter's DEPOL2 retry budget. */
    static constexpr int kDepol2Retries = 12;

    std::size_t numQubits() const { return nQubits; }
    std::size_t numMeasurements() const { return nMeas; }
    std::size_t numDetectors() const { return nDets; }
    std::size_t numObservables() const { return nObs; }

    const std::vector<FrameOp>& ops() const { return stream; }

    /** Measurement indices of detector @p d (CSR view). */
    const std::uint32_t* detMeasBegin(std::size_t d) const
    {
        return detMeas.data() + detOffsets[d];
    }
    const std::uint32_t* detMeasEnd(std::size_t d) const
    {
        return detMeas.data() + detOffsets[d + 1];
    }
    /** Measurement indices folded into observable @p k (CSR view). */
    const std::uint32_t* obsMeasBegin(std::size_t k) const
    {
        return obsMeas.data() + obsOffsets[k];
    }
    const std::uint32_t* obsMeasEnd(std::size_t k) const
    {
        return obsMeas.data() + obsOffsets[k + 1];
    }

    // --- word-block (SIMD) execution --------------------------------
    //
    // runBatchBlock() executes W consecutive 64-shot batches at once
    // and is bit-identical to W sequential runBatchBlock(.., 1, ..)
    // calls on the same generator — and to the op-list reference
    // interpreter — including the generator's post-state.  The
    // equivalence rests on two facts:
    //
    //   1. RNG consumption is *frame-independent*: every draw site —
    //      including the DEPOL2 rejection retries, which depend only on
    //      previously drawn values — consumes the stream without
    //      looking at x/z.  So the resolution pass can draw word w's
    //      entire noise tape before word w+1's (the exact sequential
    //      order the reference interpreter uses) while deferring all
    //      frame updates.
    //   2. Frame propagation is bitwise per lane: with the draws fixed
    //      on the tape, replaying the op stream over W-word rows
    //      computes each word exactly as a 1-word replay would.
    //
    // The two passes are exposed separately so benches can time the
    // vectorized replay (frame propagation) apart from the RNG work,
    // and tests can pin the tape/replay split directly.

    /** Noise-tape slots per 64-shot batch (rows of the tape buffer). */
    std::size_t tapeWords() const { return nTapeSlots; }

    /**
     * Pass 1: size @p scratch for a @p words-word block and resolve
     * the whole block's noise tape, drawing word-by-word in the exact
     * sequential 64-shot order.  Frame and measurement rows are
     * zeroed.  Returns the number of applied noise-op error lanes over
     * all words (the frame_flips counter contribution), popcounted
     * over all 64 lanes of every word including idle lanes of a final
     * partial batch — the reference interpreter's accounting.
     */
    std::uint64_t resolveNoiseTape(FrameBlockScratch& scratch,
                                   std::size_t words, Rng& rng) const;

    /**
     * Pass 2: replay the op stream over the W-word frame rows, XORing
     * the resolved tape at every noise site and recording measurement
     * rows.  Requires a scratch prepared by resolveNoiseTape (or, for
     * replay-only benchmarking, a re-zeroed frame with the tape kept).
     */
    void replayBlock(FrameBlockScratch& scratch) const;

    /** resolveNoiseTape + replayBlock; returns the flip popcount. */
    std::uint64_t runBatchBlock(FrameBlockScratch& scratch,
                                std::size_t words, Rng& rng) const;

    /**
     * XOR-fold a block's measurement rows into W packed words per
     * detector/observable: detector d's word j lands in
     * @p det_words[d * det_stride + j], observable k's in
     * @p obs_words[k * obs_stride + j].  @p last_word_mask masks the
     * block's final word (idle lanes of a trailing partial batch);
     * earlier words are always full.
     */
    void foldAnnotationsBlock(FrameBlockScratch& scratch,
                              std::uint64_t last_word_mask,
                              std::uint64_t* det_words,
                              std::size_t det_stride,
                              std::uint64_t* obs_words,
                              std::size_t obs_stride) const;

    // --- streaming (sliced) execution -------------------------------
    //
    // Slices are op ranges of the same program, executed by the same
    // two passes at width 1: runSlice() resolves the slice's range of
    // RNG-consuming ops onto a one-slice tape, then replays the slice's
    // op range over it, recording measurements into the bounded ring.
    // Slice tapes concatenate to the whole-program tape, so running
    // beginStream() then runSlice(0..numSlices()-1) consumes the RNG
    // stream *identically* to one runBatchBlock(.., 1, ..) call.
    // foldSlice() over all slices reproduces foldAnnotationsBlock() at
    // width 1 exactly (detectors are partitioned by slice; observable
    // words accumulate per-slice XOR contributions and must start
    // zeroed).

    /** Number of compiled slices (>= 1 for a non-empty program). */
    std::size_t numSlices() const { return slices.size(); }
    /** Ranges of slice @p s. */
    const FrameSliceInfo& sliceInfo(std::size_t s) const
    {
        return slices[s];
    }
    /**
     * Measurement-record lookback: the farthest any slice's detectors
     * or observable entries reach behind that slice's last record.
     * The streaming ring holds this many words regardless of circuit
     * length (bounded-memory guarantee).
     */
    std::size_t measLookback() const { return lookback; }
    /** Power-of-two capacity of the streaming measurement ring. */
    std::size_t measRingCapacity() const { return ringCapacity; }

    /** Reset @p scratch for a fresh 64-shot streaming batch. */
    void beginStream(FrameStreamScratch& scratch) const;

    /**
     * Run slice @p s of the current batch (slices must run in order
     * from 0).  Returns the applied error-lane popcount — summed over
     * all slices it equals the runBatchBlock(.., 1, ..) return value
     * for the identical RNG stream.
     */
    std::uint64_t runSlice(std::size_t s, FrameStreamScratch& scratch,
                           Rng& rng) const;

    /**
     * Fold slice @p s's annotations from the measurement ring.
     * Detector d in [detBegin, detEnd) is *assigned* to
     * @p det_words[(d - detBegin) * det_stride]; the slice's share of
     * observable k is *XORed* into @p obs_words[k * obs_stride].  Call
     * after runSlice(s) and before runSlice of a slice that overwrites
     * the lookback window.
     */
    void foldSlice(std::size_t s, const FrameStreamScratch& scratch,
                   std::uint64_t lane_mask, std::uint64_t* det_words,
                   std::size_t det_stride, std::uint64_t* obs_words,
                   std::size_t obs_stride) const;

  private:
    std::size_t nQubits = 0;
    std::size_t nMeas = 0;
    std::size_t nDets = 0;
    std::size_t nObs = 0;
    int depol2Retries = kDepol2Retries;
    std::vector<FrameOp> stream;
    /** RNG-consuming ops only (tape slots assigned), resolution order. */
    std::vector<FrameOp> rngOps;
    std::size_t nTapeSlots = 0;
    std::size_t maxSliceTapeSlots = 0; ///< streaming tape row size
    std::vector<std::uint32_t> detOffsets; ///< size nDets + 1
    std::vector<std::uint32_t> detMeas;
    std::vector<std::uint32_t> obsOffsets; ///< size nObs + 1
    std::vector<std::uint32_t> obsMeas;
    std::vector<FrameSliceInfo> slices;
    /** Per-slice observable entries: (observable id, record index). */
    std::vector<std::uint32_t> sliceObsId;
    std::vector<std::uint32_t> sliceObsMeas;
    std::size_t lookback = 0;
    std::size_t ringCapacity = 1;
};

/** Hard cap on the sampler's block width (512 shots per block). */
inline constexpr std::size_t kMaxFrameBlockWords = 8;

/**
 * Process-wide sampler block width in 64-bit words (1..8; default 8 =
 * 512 shots per block; tests and ablation benches override it through
 * setFrameBlockWords).  Results are bit-identical at every width —
 * the width only trades dispatch amortization against scratch size —
 * which the lane/word-permutation tests pin at {1, 4, 8}.
 */
std::size_t frameBlockWords();

/** Override the block width (clamped to [1, kMaxFrameBlockWords]). */
void setFrameBlockWords(std::size_t words);

} // namespace stab
} // namespace hetarch
