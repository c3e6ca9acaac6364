/**
 * @file
 * Sliding-window streaming decoder: the one decode kernel behind both
 * the batch memory experiment and the streaming engine.
 *
 * The kernel consumes a 64-shot batch as a sequence of per-round
 * SyndromeBlocks (see stab/frame.hh) and decodes it in one of two
 * modes:
 *
 *   - **Whole-buffer** (windowRounds == 0 or >= rounds): blocks are
 *     assembled into the batch's full detector column and decoded in a
 *     single pass at finishBatch().  This is bit-identical — same
 *     fired-detector extraction order, same sparse decoder call
 *     sequence — to the historical countLogicalFailures() loop, so the
 *     batch API is literally "window spans the whole buffer".
 *
 *   - **Sliding-window** (windowRounds < rounds, union-find only): a
 *     window of W rounds is decoded whenever it fills; the first C
 *     rounds of the window are *committed* — correction edges whose
 *     earliest endpoint lies in the commit region XOR their
 *     observable masks into the running per-lane prediction — and
 *     edges crossing the commit boundary flip a carried defect at
 *     their retained endpoint.  Edges entirely beyond the boundary
 *     are discarded and re-decoded in the next window.  Peak syndrome
 *     storage is the defects of W rounds plus the carry, independent
 *     of the total round count.
 *
 * The commit rule is sound because every edge incident to a
 * commit-region node has its earliest endpoint in the commit region:
 * applying exactly the committed edges resolves every commit-region
 * defect, and the carried flips record precisely the parity the
 * committed edges deposited on retained rounds.
 *
 * Telemetry: the kernel accumulates plain (non-atomic) statistics so
 * each driver can publish exactly the counters its contract pins —
 * the batch drivers emit the legacy qec.decode.* values unchanged,
 * the streaming driver adds qec.stream.*.  Per-window decode latency
 * is recorded directly into the advisory qec.stream.window_decode_ns
 * histogram.
 */

#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "obs/obs.hh"
#include "qec/decoder_cache.hh"
#include "stab/frame.hh"

namespace hetarch {
namespace qec {

/** Windowing parameters of a SlidingWindowDecoder. */
struct WindowConfig
{
    /**
     * Rounds per decode window; 0 (or anything >= the circuit's round
     * count) selects the whole-buffer mode.
     */
    std::size_t windowRounds = 0;
    /**
     * Rounds committed per window step (1..windowRounds); 0 picks
     * half the window, minimum 1.
     */
    std::size_t commitRounds = 0;
};

/**
 * Streaming decode kernel over one DecoderSetup.  Not thread-safe;
 * create one per worker (construction only binds the shared graphs).
 *
 * Usage per 64-shot batch: beginBatch(lanes), pushBlock() for every
 * round in order (or pushBufferColumn() for a pre-assembled buffer),
 * then finishBatch() which returns the batch's logical failures.
 */
class SlidingWindowDecoder
{
  public:
    /** Plain accumulated statistics; read via stats(). */
    struct Stats
    {
        std::uint64_t shots = 0;
        std::uint64_t failures = 0;
        std::uint64_t trivialShots = 0; ///< weight-0 decoder bypasses
        obs::LocalHistogram syndromeWeights; ///< per-shot fired count
        // Streaming extras (windowed mode; blocks count in any mode).
        std::uint64_t blocks = 0;        ///< SyndromeBlocks consumed
        std::uint64_t windows = 0;       ///< window decode points
        std::uint64_t laneDecodes = 0;   ///< non-empty per-lane decodes
        std::uint64_t committedRounds = 0;
        std::uint64_t carryDefects = 0;  ///< defects carried forward
        std::uint64_t decodeNs = 0; ///< decode wall time (if timing on)
        // Shot-batched buffer decode (decodeBuffer only).
        std::uint64_t batchBlocks = 0; ///< word blocks decoded
        std::uint64_t batchShots = 0;  ///< shots through decodeBuffer
        std::uint64_t dedupHits = 0;   ///< duplicate-syndrome reuses
    };

    /**
     * Shots-per-block granularity of decodeBuffer(), in 64-shot words.
     * Fixed (not tied to the sampler's block width) so the decoder's
     * batching — and therefore its dedup telemetry — is invariant
     * under the sampler width and worker count alike.
     */
    static constexpr std::size_t kDecodeBlockWords = 4;

    SlidingWindowDecoder(const DecoderSetup& setup, DecoderKind kind,
                         const WindowConfig& config = {});

    /** Whether the kernel runs in sliding-window mode. */
    bool windowed() const { return isWindowed; }
    /** Rounds (program slices) per shot. */
    std::size_t numRounds() const { return nRounds; }
    /** Effective window size in rounds (numRounds() when batch). */
    std::size_t effectiveWindow() const { return window; }
    /** Effective commit stride (numRounds() when batch). */
    std::size_t effectiveCommit() const { return commit; }
    /**
     * Upper bound on simultaneously stored syndrome rounds: the
     * window in windowed mode (independent of the round count), the
     * full buffer otherwise.
     */
    std::size_t peakStoredRounds() const { return window; }

    const Stats& stats() const { return acc; }

    /** Start a batch of @p lanes shots (1..64). */
    void beginBatch(std::size_t lanes);

    /**
     * Consume one round's SyndromeBlock.  Blocks must arrive in slice
     * order; in windowed mode full windows decode immediately, so the
     * block's storage can be recycled as soon as the call returns.
     */
    void pushBlock(const stab::SyndromeBlock& block);

    /**
     * Whole-buffer convenience: ingest 64-shot column @p w of a packed
     * sample buffer (all rounds at once).  Whole-buffer mode only.
     */
    void pushBufferColumn(const stab::DetectorSamples& samples,
                          std::size_t w);

    /**
     * Finish the batch: decode (whole-buffer mode) or reconcile the
     * final window (windowed mode), compare predictions against the
     * recorded observables, and return the batch's failure count.
     */
    std::size_t finishBatch();

    /**
     * Shot-batched whole-buffer decode: consume an entire packed
     * sample buffer in kDecodeBlockWords-word blocks (up to 256 shots
     * each) and return its total logical-failure count.
     *
     * Failures, trivial-shot counts and syndrome-weight records are
     * identical to driving the kernel word-by-word through
     * beginBatch()/pushBufferColumn()/finishBatch(): fired-detector
     * extraction still scans detector-major packed words, and every
     * shot's prediction still comes from the same sparse decoder calls
     * (batching only reorders pure per-shot decodes and reuses masks
     * of lexicographically identical syndromes — see
     * UnionFindDecoder::decodeBatch).  On top, the block entry
     * amortizes the decoder arena across up to 256 shots and fills the
     * batch-decode stats (batchBlocks / batchShots / dedupHits).
     * Whole-buffer mode only.
     */
    std::size_t decodeBuffer(const stab::DetectorSamples& samples);

  private:
    void decodeWindow(std::size_t window_end, std::size_t commit_end);
    void decodeWindowLane(std::size_t graph, std::size_t lane,
                          std::size_t commit_end, bool final_window);

    const DecoderSetup& setup;
    DecoderKind kind;
    bool isWindowed = false;
    std::size_t nRounds = 1;
    std::size_t window = 1;
    std::size_t commit = 1;

    UnionFindDecoder decZ;
    UnionFindDecoder decX;

    Stats acc;

    // --- per-batch state --------------------------------------------
    std::size_t lanes = 0;
    std::size_t pushedRounds = 0;
    std::size_t windowBase = 0;
    std::vector<std::uint64_t> obsAccum; ///< per-observable lane word
    std::array<std::uint32_t, 64> predicted{};
    std::array<std::uint32_t, 64> shotWeight{};

    // Whole-buffer mode: the batch's full detector column.
    std::vector<std::uint64_t> detColumn;

    // Windowed mode: per-graph per-lane pending defect node ids
    // (sorted ascending; node order follows round order).  This *is*
    // the bounded syndrome storage.
    std::array<std::array<std::vector<std::uint32_t>, 64>, 2> pending;
    /** Round of each graph node (windowed mode only). */
    std::array<std::vector<std::uint32_t>, 2> nodeRound;

    // Reused scratch.
    std::array<std::vector<std::uint32_t>, 64> blockFired;
    std::vector<std::uint32_t> nodesBuf;
    std::vector<std::uint32_t> edgesBuf;
    std::vector<std::uint32_t> flipsBuf;
    std::vector<std::uint32_t> keepBuf;
    std::vector<std::uint32_t> residual; ///< greedy scratch
    std::vector<std::uint32_t> residualNext;

    // decodeBuffer block scratch: per-shot fired/projected lists and
    // masks for one kDecodeBlockWords-word block (cleared, never
    // shrunk).
    std::vector<std::vector<std::uint32_t>> bufFired;
    std::vector<std::vector<std::uint32_t>> projZ;
    std::vector<std::vector<std::uint32_t>> projX;
    std::vector<std::uint32_t> maskA;
    std::vector<std::uint32_t> maskB;
    std::vector<std::uint32_t> batchOrder; ///< greedy decodeBatch order
};

} // namespace qec
} // namespace hetarch
