/**
 * @file
 * Shot-batched decode order shared by the union-find and greedy DEM
 * decoders' decodeBatch().
 */

#pragma once

#include <algorithm>
#include <compare>
#include <cstdint>
#include <span>
#include <vector>

#include "core/logging.hh"

namespace hetarch {
namespace qec {

/**
 * Decode a block of sparse syndromes with @p decode_one (a pure
 * function of the fired list), writing shot i's mask to @p out[i].
 * Weight-0 shots map to 0 without a decode; the rest are decoded in
 * ascending weight, then lexicographic, then shot order, and a shot
 * equal to its predecessor reuses its mask.  @p order is scratch.
 * Returns the number of reused masks.
 */
template <typename DecodeOne>
std::size_t
decodeDeduplicated(std::span<const std::vector<std::uint32_t>> fired,
                   std::span<std::uint32_t> out,
                   std::vector<std::uint32_t>& order, DecodeOne decode_one)
{
    HETARCH_ASSERT(out.size() >= fired.size(),
                   "decodeBatch output span too small");
    // Weight-0 shots take the fast path before the sort, so the sort
    // only pays for the non-trivial minority at low noise.
    order.clear();
    for (std::uint32_t i = 0; i < fired.size(); ++i) {
        if (fired[i].empty())
            out[i] = 0; // not counted as a dedup hit
        else
            order.push_back(i);
    }
    std::sort(order.begin(), order.end(),
              [&fired](std::uint32_t a, std::uint32_t b) {
                  const auto& fa = fired[a];
                  const auto& fb = fired[b];
                  if (fa.size() != fb.size())
                      return fa.size() < fb.size();
                  const auto c = std::lexicographical_compare_three_way(
                      fa.begin(), fa.end(), fb.begin(), fb.end());
                  if (c != 0)
                      return c < 0;
                  return a < b;
              });
    std::size_t dedup_hits = 0;
    for (std::size_t k = 0; k < order.size(); ++k) {
        const auto shot = order[k];
        if (k > 0 && fired[shot] == fired[order[k - 1]]) {
            out[shot] = out[order[k - 1]];
            ++dedup_hits;
            continue;
        }
        out[shot] = decode_one(fired[shot]);
    }
    return dedup_hits;
}

} // namespace qec
} // namespace hetarch
