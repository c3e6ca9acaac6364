/**
 * @file
 * Greedy maximum-likelihood-ish decoder operating directly on a
 * detector error model.
 *
 * For the small codes run on the Universal Error Correction module
 * (Steane, Reed-Muller, color codes), single error mechanisms dominate
 * at the operating error rates.  This decoder matches a syndrome
 * against single mechanisms exactly and falls back to a greedy
 * set-cover over mechanisms for multi-error syndromes.  Unlike
 * matching decoders it handles mechanisms that flip three or more
 * detectors, which non-surface codes produce generically.
 */

#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "stab/dem.hh"

namespace hetarch {
namespace qec {

/** Greedy DEM-based decoder. */
class DemDecoder
{
  public:
    explicit DemDecoder(const stab::DetectorErrorModel& dem);

    /**
     * Decode a full detector event vector; returns the predicted
     * observable mask.  Reference entry point: const and thread-safe,
     * but scans all detectors and allocates the residual per call.
     */
    std::uint32_t decode(const std::vector<std::uint8_t>& detectors) const;

    /**
     * Decode a sparse syndrome given as the ascending list of fired
     * detector ids.  Bit-identical to decode() on the equivalent dense
     * vector (the algorithm is inherently sparse; decode() merely
     * builds this list first).  Reuses internal buffers, so it is not
     * const and must not be called concurrently on one instance.
     */
    std::uint32_t decodeSparse(std::span<const std::uint32_t> fired);

    /**
     * As above, with caller-provided scratch: const and thread-safe,
     * so chunk workers can share one cached decoder and keep their
     * residual buffers thread-local.
     */
    std::uint32_t decodeSparse(std::span<const std::uint32_t> fired,
                               std::vector<std::uint32_t>& residual,
                               std::vector<std::uint32_t>& next) const;

    /**
     * Decode a block of sparse syndromes, writing shot i's predicted
     * observable mask to @p out[i].  Output-identical to per-shot
     * decodeSparse(); shots run in decodeDeduplicated() order, so
     * repeated syndromes are decoded once.  Const and thread-safe: all
     * scratch is caller-provided, so chunk workers can share one
     * cached decoder.  Returns the number of duplicate-reuse skips.
     */
    std::size_t decodeBatch(std::span<const std::vector<std::uint32_t>>
                                fired,
                            std::span<std::uint32_t> out,
                            std::vector<std::uint32_t>& residual,
                            std::vector<std::uint32_t>& next,
                            std::vector<std::uint32_t>& order) const;

  private:
    std::uint32_t decodeResidual(std::vector<std::uint32_t>& residual,
                                 std::vector<std::uint32_t>& next) const;

    const stab::DetectorErrorModel& model;
    /** Exact single-mechanism lookup: detector signature -> best mech. */
    std::map<std::vector<std::uint32_t>, std::size_t> exact;
    /** Mechanisms sorted by descending probability (for greedy pass). */
    std::vector<std::size_t> byProbability;
    /** Reused scratch for decodeSparse (cleared, never shrunk). */
    std::vector<std::uint32_t> residualBuf;
    std::vector<std::uint32_t> nextBuf;
};

} // namespace qec
} // namespace hetarch
