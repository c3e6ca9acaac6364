#include "qec/sliding_window.hh"

#include <algorithm>
#include <bit>
#include <span>

#include "core/logging.hh"

namespace hetarch {
namespace qec {

namespace {

// Advisory decode-latency distribution, one record per window decode
// point (timing-gated like every duration histogram).
obs::Histogram& hWindowDecodeNs =
    obs::histogram("qec.stream.window_decode_ns");

/** Append detector @p d to the fired list of each lane set in @p word. */
void
scatterFired(std::uint64_t word, std::uint32_t d,
             std::vector<std::uint32_t>* lane_lists)
{
    for (; word; word &= word - 1)
        lane_lists[std::countr_zero(word)].push_back(d);
}

/**
 * Lanes among the first @p lanes whose predicted mask disagrees with
 * the recorded observables; @p obs_word(k) is observable k's lane word.
 */
template <typename ObsWord>
std::size_t
laneFailures(const std::uint32_t* predicted, std::size_t lanes,
             std::size_t n_obs, ObsWord obs_word)
{
    const std::uint32_t obs_mask =
        n_obs >= 32 ? 0xffffffffu
                    : (1u << static_cast<std::uint32_t>(n_obs)) - 1u;
    std::size_t failures = 0;
    for (std::size_t l = 0; l < lanes; ++l) {
        std::uint32_t actual = 0;
        for (std::size_t k = 0; k < n_obs && k < 32; ++k)
            actual |= static_cast<std::uint32_t>((obs_word(k) >> l) & 1)
                      << k;
        failures += (predicted[l] & obs_mask) != actual;
    }
    return failures;
}

} // namespace

SlidingWindowDecoder::SlidingWindowDecoder(const DecoderSetup& setup,
                                           DecoderKind kind,
                                           const WindowConfig& config)
    : setup(setup), kind(kind), dec(setup.graph)
{
    const auto& prog = *setup.program;
    nRounds = std::max<std::size_t>(prog.numSlices(), 1);
    isWindowed =
        config.windowRounds > 0 && config.windowRounds < nRounds;
    if (!isWindowed) {
        window = commit = nRounds;
        detColumn.assign(prog.numDetectors(), 0);
        obsAccum.assign(prog.numObservables(), 0);
        return;
    }
    HETARCH_ASSERT(kind == DecoderKind::UnionFind,
                   "sliding-window decoding needs correction-edge "
                   "output, which only the union-find decoder provides");
    window = config.windowRounds;
    commit = config.commitRounds
                 ? std::min(config.commitRounds, window)
                 : std::max<std::size_t>(window / 2, 1);
    obsAccum.assign(prog.numObservables(), 0);

    // Node -> round map, from the program's slice detector ranges.
    nodeRound.assign(setup.graph.numNodes(), 0);
    for (std::size_t s = 0; s < prog.numSlices(); ++s) {
        const auto& info = prog.sliceInfo(s);
        for (std::size_t d = info.detBegin; d < info.detEnd; ++d) {
            const auto n = setup.graph.detectorToNode()[d];
            if (n >= 0)
                nodeRound[static_cast<std::size_t>(n)] =
                    static_cast<std::uint32_t>(s);
        }
    }
}

void
SlidingWindowDecoder::beginBatch(std::size_t n_lanes)
{
    HETARCH_ASSERT(n_lanes >= 1 && n_lanes <= 64,
                   "batch lanes out of range");
    lanes = n_lanes;
    pushedRounds = 0;
    windowBase = 0;
    predicted.fill(0);
    shotWeight.fill(0);
    std::fill(obsAccum.begin(), obsAccum.end(), 0);
    if (!isWindowed) {
        std::fill(detColumn.begin(), detColumn.end(), 0);
    } else {
        for (auto& pend : pending)
            pend.clear();
    }
}

void
SlidingWindowDecoder::pushBlock(const stab::SyndromeBlock& block)
{
    HETARCH_ASSERT(block.slice == pushedRounds,
                   "blocks must arrive in round order");
    ++acc.blocks;
    for (std::size_t k = 0; k < obsAccum.size(); ++k)
        obsAccum[k] ^= block.obsWords[k];
    pushedRounds = block.slice + 1;

    if (!isWindowed) {
        std::copy(block.detWords.begin(), block.detWords.end(),
                  detColumn.begin() + block.detBegin);
        return;
    }

    // Extract the round's fired detectors per lane and project them
    // onto the graph; the pending lists are the only syndrome storage,
    // so a consumed block can be recycled immediately.
    for (std::size_t l = 0; l < lanes; ++l)
        blockFired[l].clear();
    for (std::size_t i = 0; i < block.detWords.size(); ++i)
        scatterFired(block.detWords[i],
                     block.detBegin + static_cast<std::uint32_t>(i),
                     blockFired.data());
    for (std::size_t l = 0; l < lanes; ++l) {
        if (blockFired[l].empty())
            continue;
        shotWeight[l] += static_cast<std::uint32_t>(blockFired[l].size());
        setup.graph.projectSparse(blockFired[l], pending[l]);
    }

    if (pushedRounds == nRounds) {
        decodeWindow(nRounds); // final window commits all
    } else if (pushedRounds - windowBase == window) {
        decodeWindow(windowBase + commit);
        windowBase += commit;
    }
}

void
SlidingWindowDecoder::pushBufferColumn(const stab::DetectorSamples& samples,
                                       std::size_t w)
{
    HETARCH_ASSERT(!isWindowed,
                   "pushBufferColumn is the whole-buffer ingestion path");
    for (std::size_t d = 0; d < samples.numDetectors; ++d)
        detColumn[d] = samples.detWord(d, w);
    for (std::size_t k = 0; k < samples.numObservables; ++k)
        obsAccum[k] = samples.obsWord(k, w);
    pushedRounds = nRounds;
}

void
SlidingWindowDecoder::decodeWindowLane(std::size_t lane,
                                       std::size_t commit_end)
{
    auto& pend = pending[lane];
    if (pend.empty())
        return;
    ++acc.laneDecodes;

    // In the final window (commit_end == nRounds) every edge commits
    // and nothing carries.
    edgesBuf.clear();
    (void)dec.decodeSparse(pend, &edgesBuf);

    const auto& edges = setup.graph.edges();
    flipsBuf.clear();
    for (const auto eid : edgesBuf) {
        const auto& e = edges[eid];
        const std::uint32_t ru = nodeRound[static_cast<std::size_t>(e.u)];
        const std::uint32_t rv =
            e.v < 0 ? ru : nodeRound[static_cast<std::size_t>(e.v)];
        if (std::min(ru, rv) >= commit_end)
            continue; // entirely retained: re-decoded next window
        predicted[lane] ^= e.observables;
        if (std::max(ru, rv) >= commit_end)
            // Crossing edge: its committed half deposited parity on
            // the retained endpoint.
            flipsBuf.push_back(static_cast<std::uint32_t>(
                ru >= commit_end ? e.u : e.v));
    }

    // Carry = retained pending defects XOR the crossing-edge flips
    // (parity-reduced: two flips on one node cancel).
    std::sort(flipsBuf.begin(), flipsBuf.end());
    nodesBuf.clear();
    for (std::size_t i = 0; i < flipsBuf.size();) {
        std::size_t j = i;
        while (j < flipsBuf.size() && flipsBuf[j] == flipsBuf[i])
            ++j;
        if ((j - i) % 2)
            nodesBuf.push_back(flipsBuf[i]);
        i = j;
    }
    keepBuf.clear();
    for (const auto v : pend)
        if (nodeRound[v] >= commit_end)
            keepBuf.push_back(v);
    pend.clear();
    std::set_symmetric_difference(keepBuf.begin(), keepBuf.end(),
                                  nodesBuf.begin(), nodesBuf.end(),
                                  std::back_inserter(pend));
    acc.carryDefects += pend.size();
}

void
SlidingWindowDecoder::decodeWindow(std::size_t commit_end)
{
    const bool timed = obs::timingEnabled();
    const std::uint64_t t0 = timed ? obs::nowNs() : 0;

    ++acc.windows;
    acc.committedRounds += commit_end - windowBase;
    for (std::size_t l = 0; l < lanes; ++l)
        decodeWindowLane(l, commit_end);

    if (timed) {
        const std::uint64_t dt = obs::nowNs() - t0;
        acc.decodeNs += dt;
        hWindowDecodeNs.record(dt);
    }
}

std::size_t
SlidingWindowDecoder::finishBatch()
{
    HETARCH_ASSERT(pushedRounds == nRounds,
                   "finishBatch before every round was pushed");
    const bool timed = obs::timingEnabled();
    const std::uint64_t t0 = timed ? obs::nowNs() : 0;

    if (!isWindowed) {
        // The historical whole-buffer loop: one detector-major pass
        // enumerates each lane's fired detectors, then every lane is
        // decoded through the sparse entry points in lane order.
        for (std::size_t l = 0; l < lanes; ++l)
            blockFired[l].clear();
        for (std::size_t d = 0; d < detColumn.size(); ++d)
            scatterFired(detColumn[d], static_cast<std::uint32_t>(d),
                         blockFired.data());
        for (std::size_t l = 0; l < lanes; ++l) {
            const auto& f = blockFired[l]; // ascending detector ids
            acc.syndromeWeights.record(f.size());
            std::uint32_t pred = 0;
            if (f.empty()) {
                // Weight-0 fast path: both decoders map the empty
                // syndrome to the zero correction.
                ++acc.trivialShots;
            } else if (kind == DecoderKind::GreedyDem) {
                pred = setup.greedy->decodeSparse(f, residual,
                                                  residualNext);
            } else {
                nodesBuf.clear();
                setup.graph.projectSparse(f, nodesBuf);
                pred = dec.decodeSparse(nodesBuf);
            }
            predicted[l] = pred;
        }
    } else {
        for (std::size_t l = 0; l < lanes; ++l) {
            acc.syndromeWeights.record(shotWeight[l]);
            if (shotWeight[l] == 0)
                ++acc.trivialShots;
        }
    }

    const std::size_t failures =
        laneFailures(predicted.data(), lanes, obsAccum.size(),
                     [this](std::size_t k) { return obsAccum[k]; });
    acc.failures += failures;
    acc.shots += lanes;
    if (timed)
        acc.decodeNs += obs::nowNs() - t0;
    return failures;
}

std::size_t
SlidingWindowDecoder::decodeBuffer(const stab::DetectorSamples& samples)
{
    HETARCH_ASSERT(!isWindowed,
                   "decodeBuffer is the whole-buffer batch entry");
    const bool timed = obs::timingEnabled();
    const std::uint64_t t0 = timed ? obs::nowNs() : 0;

    const std::size_t block_cap = kDecodeBlockWords * 64;
    bufFired.resize(block_cap);
    projected.resize(block_cap);
    masks.resize(block_cap);

    std::size_t failures = 0;
    for (std::size_t w0 = 0; w0 < samples.numWords;
         w0 += kDecodeBlockWords) {
        const std::size_t words =
            std::min(kDecodeBlockWords, samples.numWords - w0);
        const std::size_t block_shots =
            std::min(words * 64, samples.shots - w0 * 64);

        // One detector-major pass over the block's packed words pulls
        // every shot's fired list (ascending detector ids) at once.
        for (std::size_t s = 0; s < block_shots; ++s)
            bufFired[s].clear();
        for (std::size_t d = 0; d < samples.numDetectors; ++d) {
            const std::uint64_t* row =
                samples.detWords.data() + d * samples.numWords + w0;
            for (std::size_t j = 0; j < words; ++j)
                scatterFired(row[j], static_cast<std::uint32_t>(d),
                             bufFired.data() + j * 64);
        }

        ++acc.batchBlocks;
        acc.batchShots += block_shots;
        for (std::size_t s = 0; s < block_shots; ++s) {
            acc.syndromeWeights.record(bufFired[s].size());
            if (bufFired[s].empty())
                ++acc.trivialShots;
        }

        const std::span<std::uint32_t> out(masks.data(), block_shots);
        if (kind == DecoderKind::GreedyDem) {
            acc.dedupHits += setup.greedy->decodeBatch(
                std::span<const std::vector<std::uint32_t>>(
                    bufFired.data(), block_shots),
                out, residual, residualNext, batchOrder);
        } else {
            // Project every shot onto the graph, then decode the block
            // as one weight-sorted batch.
            for (std::size_t s = 0; s < block_shots; ++s) {
                projected[s].clear();
                setup.graph.projectSparse(bufFired[s], projected[s]);
            }
            acc.dedupHits += dec.decodeBatch(
                std::span<const std::vector<std::uint32_t>>(
                    projected.data(), block_shots),
                out);
        }

        // Compare predictions against the packed observable words.
        for (std::size_t j = 0; j < words; ++j)
            failures += laneFailures(
                masks.data() + j * 64,
                std::min<std::size_t>(64, samples.shots - (w0 + j) * 64),
                samples.numObservables, [&](std::size_t k) {
                    return samples.obsWord(k, w0 + j);
                });
        acc.shots += block_shots;
    }
    acc.failures += failures;
    if (timed)
        acc.decodeNs += obs::nowNs() - t0;
    return failures;
}

} // namespace qec
} // namespace hetarch
