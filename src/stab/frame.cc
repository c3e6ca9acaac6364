#include "stab/frame.hh"

#include <algorithm>
#include <bit>
#include <mutex>
#include <utility>

#include "core/logging.hh"
#include "core/simd.hh"
#include "obs/obs.hh"

namespace hetarch {
namespace stab {

namespace {

// Telemetry.  Flip counts are per 64-lane word (idle lanes of a final
// partial batch included), so they are bit-identical for any chunking
// of a shot budget and any worker count.  noise_words counts resolved
// noise-tape rows (tape slots x 64-shot batches) — a function of the
// program and the shot budget alone, so it too is invariant under
// worker count AND under the sampler's SIMD block width.
obs::Counter& cSamplerCalls = obs::counter("stab.sampler.calls");
obs::Counter& cSamplerShots = obs::counter("stab.sampler.shots");
obs::Counter& cSamplerBatches = obs::counter("stab.sampler.batches");
obs::Counter& cFrameFlips = obs::counter("stab.sampler.frame_flips");
obs::Counter& cNoiseWords = obs::counter("stab.sampler.noise_words");

/** Frame state of one 64-shot batch of the reference interpreter. */
struct FrameScratch
{
    std::vector<std::uint64_t> x;    ///< X-flip per qubit (bit = shot)
    std::vector<std::uint64_t> z;    ///< Z-flip per qubit
    std::vector<std::uint64_t> meas; ///< measurement flips, record order
};

/**
 * Reference interpreter: run the circuit op list once over a 64-shot
 * batch.  Independent of FrameProgram, so it is the oracle the
 * compiled tape/replay path is tested against.
 */
void
runBatchReference(const Circuit& circ, FrameScratch& b, Rng& rng,
                  std::uint64_t& flips)
{
    b.x.assign(circ.numQubits(), 0);
    b.z.assign(circ.numQubits(), 0);
    b.meas.clear();
    b.meas.reserve(circ.numMeasurements());
    for (const auto& op : circ.ops()) {
        switch (op.code) {
          case OpCode::H:
            std::swap(b.x[op.targets[0]], b.z[op.targets[0]]);
            break;
          case OpCode::S:
          case OpCode::SDG:
            // S X S^dag = Y, S Z S^dag = Z: frame z picks up x.
            b.z[op.targets[0]] ^= b.x[op.targets[0]];
            break;
          case OpCode::X:
          case OpCode::Y:
          case OpCode::Z:
            break; // Paulis commute with the frame (up to sign)
          case OpCode::CX: {
            const auto c = op.targets[0], t = op.targets[1];
            b.x[t] ^= b.x[c];
            b.z[c] ^= b.z[t];
            break;
          }
          case OpCode::CZ: {
            const auto a = op.targets[0], t = op.targets[1];
            b.z[a] ^= b.x[t];
            b.z[t] ^= b.x[a];
            break;
          }
          case OpCode::SWAP: {
            const auto a = op.targets[0], t = op.targets[1];
            std::swap(b.x[a], b.x[t]);
            std::swap(b.z[a], b.z[t]);
            break;
          }
          case OpCode::M:
            b.meas.push_back(b.x[op.targets[0]]);
            // Measurement collapse randomizes the frame phase.
            b.z[op.targets[0]] ^= rng();
            break;
          case OpCode::R:
            b.x[op.targets[0]] = 0;
            b.z[op.targets[0]] = 0;
            break;
          case OpCode::MR:
            b.meas.push_back(b.x[op.targets[0]]);
            b.x[op.targets[0]] = 0;
            b.z[op.targets[0]] = 0;
            break;
          case OpCode::X_ERROR: {
            const std::uint64_t err = rng.biasedWord(op.params[0]);
            b.x[op.targets[0]] ^= err;
            flips += simd::popcountWord(err);
            break;
          }
          case OpCode::Z_ERROR: {
            const std::uint64_t err = rng.biasedWord(op.params[0]);
            b.z[op.targets[0]] ^= err;
            flips += simd::popcountWord(err);
            break;
          }
          case OpCode::PAULI1: {
            const double px = op.params[0];
            const double py = op.params[1];
            const double pz = op.params[2];
            const double ptot = px + py + pz;
            if (ptot <= 0.0)
                break;
            const std::uint64_t err = rng.biasedWord(ptot);
            const std::uint64_t pick_x = rng.biasedWord(px / ptot);
            const double rest = py + pz;
            const std::uint64_t pick_y =
                rng.biasedWord(rest > 0.0 ? py / rest : 0.0);
            const std::uint64_t mx = err & pick_x;
            const std::uint64_t my = err & ~pick_x & pick_y;
            const std::uint64_t mz = err & ~pick_x & ~pick_y;
            b.x[op.targets[0]] ^= mx | my;
            b.z[op.targets[0]] ^= mz | my;
            flips += simd::popcountWord(err);
            break;
          }
          case OpCode::DEPOL1: {
            const double p = op.params[0];
            const std::uint64_t err = rng.biasedWord(p);
            const std::uint64_t pick_x = rng.biasedWord(1.0 / 3.0);
            const std::uint64_t pick_y = rng.biasedWord(0.5);
            const std::uint64_t mx = err & pick_x;
            const std::uint64_t my = err & ~pick_x & pick_y;
            const std::uint64_t mz = err & ~pick_x & ~pick_y;
            b.x[op.targets[0]] ^= mx | my;
            b.z[op.targets[0]] ^= mz | my;
            flips += simd::popcountWord(err);
            break;
          }
          case OpCode::DEPOL2: {
            const auto qa = op.targets[0], qb = op.targets[1];
            const std::uint64_t err = rng.biasedWord(op.params[0]);
            if (!err)
                break;
            // Uniform non-identity two-qubit Pauli per erring lane:
            // draw 4 random bits and reject the all-zero combination.
            std::uint64_t v0 = rng(), v1 = rng(), v2 = rng(), v3 = rng();
            for (int tries = 0; tries < 12; ++tries) {
                const std::uint64_t zero = err & ~(v0 | v1 | v2 | v3);
                if (!zero)
                    break;
                const std::uint64_t r0 = rng(), r1 = rng(), r2 = rng(),
                                    r3 = rng();
                v0 = (v0 & ~zero) | (r0 & zero);
                v1 = (v1 & ~zero) | (r1 & zero);
                v2 = (v2 & ~zero) | (r2 & zero);
                v3 = (v3 & ~zero) | (r3 & zero);
            }
            // Any lane still all-zero after the retries (prob 16^-12)
            // is forced to X on qubit a.
            const std::uint64_t still = err & ~(v0 | v1 | v2 | v3);
            v0 |= still;
            b.x[qa] ^= err & v0;
            b.z[qa] ^= err & v1;
            b.x[qb] ^= err & v2;
            b.z[qb] ^= err & v3;
            flips += simd::popcountWord(err);
            break;
          }
          case OpCode::DETECTOR:
          case OpCode::OBSERVABLE:
            break; // handled from the measurement-flip record
        }
    }
}

} // namespace

std::size_t
DetectorSamples::shotWeight(std::size_t shot) const
{
    HETARCH_DEBUG_ASSERT(shot < shots, "shot ", shot, " out of range");
    const std::size_t w = shot / 64;
    const std::uint64_t bit = std::uint64_t{1} << (shot % 64);
    std::size_t weight = 0;
    for (std::size_t d = 0; d < numDetectors; ++d)
        weight += (detWords[d * numWords + w] & bit) != 0;
    return weight;
}

std::vector<std::uint8_t>
DetectorSamples::unpackedDetectors() const
{
    std::vector<std::uint8_t> out(shots * numDetectors);
    for (std::size_t s = 0; s < shots; ++s)
        for (std::size_t d = 0; d < numDetectors; ++d)
            out[s * numDetectors + d] = det(s, d);
    return out;
}

std::vector<std::uint8_t>
DetectorSamples::unpackedObservables() const
{
    std::vector<std::uint8_t> out(shots * numObservables);
    for (std::size_t s = 0; s < shots; ++s)
        for (std::size_t k = 0; k < numObservables; ++k)
            out[s * numObservables + k] = obs(s, k);
    return out;
}

void
DetectorSamples::resize(std::size_t n_shots, std::size_t n_detectors,
                        std::size_t n_observables)
{
    shots = n_shots;
    numDetectors = n_detectors;
    numObservables = n_observables;
    numWords = (n_shots + 63) / 64;
    detWords.assign(numDetectors * numWords, 0);
    obsWords.assign(numObservables * numWords, 0);
}

void
DetectorSamples::append(const DetectorSamples& other)
{
    HETARCH_ASSERT(numDetectors == other.numDetectors &&
                       numObservables == other.numObservables,
                   "appending incompatible sample buffers");
    HETARCH_ASSERT(shots % 64 == 0,
                   "append requires a 64-aligned shot count so packed "
                   "rows concatenate word-wise");
    const std::size_t words = numWords + other.numWords;
    std::vector<std::uint64_t> dets(numDetectors * words, 0);
    for (std::size_t d = 0; d < numDetectors; ++d) {
        std::copy_n(detWords.begin() +
                        static_cast<std::ptrdiff_t>(d * numWords),
                    numWords,
                    dets.begin() + static_cast<std::ptrdiff_t>(d * words));
        std::copy_n(other.detWords.begin() +
                        static_cast<std::ptrdiff_t>(d * other.numWords),
                    other.numWords,
                    dets.begin() +
                        static_cast<std::ptrdiff_t>(d * words + numWords));
    }
    std::vector<std::uint64_t> obss(numObservables * words, 0);
    for (std::size_t k = 0; k < numObservables; ++k) {
        std::copy_n(obsWords.begin() +
                        static_cast<std::ptrdiff_t>(k * numWords),
                    numWords,
                    obss.begin() + static_cast<std::ptrdiff_t>(k * words));
        std::copy_n(other.obsWords.begin() +
                        static_cast<std::ptrdiff_t>(k * other.numWords),
                    other.numWords,
                    obss.begin() +
                        static_cast<std::ptrdiff_t>(k * words + numWords));
    }
    shots += other.shots;
    numWords = words;
    detWords = std::move(dets);
    obsWords = std::move(obss);
}

DetectorStream::DetectorStream(
    std::shared_ptr<const FrameProgram> program, std::size_t shots)
    : prog(std::move(program)), nShots(shots),
      nBatches((shots + 63) / 64)
{
    HETARCH_ASSERT(prog, "null frame program");
}

bool
DetectorStream::next(Rng& rng, SyndromeBlock& block)
{
    if (curBatch >= nBatches) {
        // Exhausted: flush the same telemetry one sampleDetectors()
        // call over this chunk would have produced, exactly once.
        if (!flushed) {
            flushed = true;
            cSamplerCalls.add();
            cSamplerShots.add(nShots);
            cSamplerBatches.add(nBatches);
            cFrameFlips.add(flips);
            cNoiseWords.add(prog->tapeWords() * nBatches);
        }
        return false;
    }

    if (curSlice == 0)
        prog->beginStream(scratch);

    const auto& info = prog->sliceInfo(curSlice);
    const std::size_t lanes =
        std::min<std::size_t>(64, nShots - curBatch * 64);
    flips += prog->runSlice(curSlice, scratch, rng);

    block.batch = curBatch;
    block.slice = curSlice;
    block.lanes = lanes;
    block.detBegin = info.detBegin;
    block.detWords.assign(info.detEnd - info.detBegin, 0);
    block.obsWords.assign(prog->numObservables(), 0);
    const std::uint64_t mask =
        lanes == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << lanes) - 1;
    prog->foldSlice(curSlice, scratch, mask, block.detWords.data(), 1,
                    block.obsWords.data(), 1);

    block.lastSliceOfBatch = curSlice + 1 == prog->numSlices();
    if (block.lastSliceOfBatch) {
        curSlice = 0;
        ++curBatch;
    } else {
        ++curSlice;
    }
    return true;
}

FrameSimulator::FrameSimulator(const Circuit& circuit)
    : circ(&circuit), prog(FrameProgram::compile(circuit))
{
}

FrameSimulator::FrameSimulator(std::shared_ptr<const FrameProgram> program)
    : prog(std::move(program))
{
    HETARCH_ASSERT(prog, "null frame program");
}

DetectorSamples
FrameSimulator::sampleDetectors(std::size_t shots, Rng& rng) const
{
    DetectorSamples out;
    out.resize(shots, prog->numDetectors(), prog->numObservables());

    // Batched locally, flushed as single adds after the loop.
    std::uint64_t batches = 0;
    std::uint64_t flips = 0;

    // Word-parallel blocks: up to frameBlockWords() 64-shot batches are
    // propagated per program walk.  Noise is resolved word-by-word in
    // the exact sequential RNG order (resolveNoiseTape), so samples are
    // bit-identical at every block width — see DESIGN.md.
    const std::size_t block =
        std::min(frameBlockWords(), kMaxFrameBlockWords);
    FrameBlockScratch scratch;
    for (std::size_t w0 = 0; w0 < out.numWords; w0 += block) {
        const std::size_t words =
            std::min<std::size_t>(block, out.numWords - w0);
        flips += prog->runBatchBlock(scratch, words, rng);
        batches += words;
        const std::size_t last_lanes =
            std::min<std::size_t>(64, shots - (w0 + words - 1) * 64);
        const std::uint64_t mask =
            last_lanes == 64 ? ~std::uint64_t{0}
                             : (std::uint64_t{1} << last_lanes) - 1;
        prog->foldAnnotationsBlock(scratch, mask,
                                   out.detWords.data() + w0, out.numWords,
                                   out.obsWords.data() + w0, out.numWords);
    }
    cSamplerCalls.add();
    cSamplerShots.add(shots);
    cSamplerBatches.add(batches);
    cFrameFlips.add(flips);
    cNoiseWords.add(prog->tapeWords() * batches);
    return out;
}

DetectorSamples
FrameSimulator::sampleDetectorsReference(std::size_t shots, Rng& rng) const
{
    HETARCH_ASSERT(circ,
                   "reference sampling needs a Circuit-constructed "
                   "FrameSimulator");
    DetectorSamples out;
    out.resize(shots, circ->numDetectors(), circ->numObservables());

    std::uint64_t batches = 0;
    std::uint64_t flips = 0;

    FrameScratch batch;
    std::size_t done = 0;
    while (done < shots) {
        const std::size_t lanes = std::min<std::size_t>(64, shots - done);
        runBatchReference(*circ, batch, rng, flips);
        ++batches;

        // Fold measurement-flip words into detector/observable values
        // by re-scanning the op list, exactly like the pre-compiled
        // sampler did — bit by bit through the packed layout.
        const std::size_t word = done / 64;
        std::size_t det_idx = 0;
        for (const auto& op : circ->ops()) {
            if (op.code == OpCode::DETECTOR) {
                std::uint64_t w = 0;
                for (auto m : op.targets)
                    w ^= batch.meas[m];
                for (std::size_t lane = 0; lane < lanes; ++lane) {
                    out.detWords[det_idx * out.numWords + word] |=
                        ((w >> lane) & 1) << lane;
                }
                ++det_idx;
            } else if (op.code == OpCode::OBSERVABLE) {
                std::uint64_t w = 0;
                for (auto m : op.targets)
                    w ^= batch.meas[m];
                for (std::size_t lane = 0; lane < lanes; ++lane) {
                    out.obsWords[op.id * out.numWords + word] ^=
                        ((w >> lane) & 1) << lane;
                }
            }
        }
        done += lanes;
    }
    cSamplerCalls.add();
    cSamplerShots.add(shots);
    cSamplerBatches.add(batches);
    cFrameFlips.add(flips);
    // The reference interpreter draws the same noise words inline that
    // the packed path resolves onto its tape; count them identically so
    // the two paths stay counter-parity as well as bit-parity.
    cNoiseWords.add(prog->tapeWords() * batches);
    return out;
}

void
recordSimdTelemetry()
{
    // Machine-dependent by design (excluded from exact metric compare);
    // recorded once per process, and only from the bench harness — the
    // library paths never touch it, so per-job counter-delta snapshots
    // stay machine-independent and deterministic.
    static std::once_flag once;
    std::call_once(once, [] {
        obs::counter("stab.sampler.simd_width").add(simd::vectorWords());
    });
}

std::vector<std::uint8_t>
FrameSimulator::sampleMeasurementFlips(Rng& rng) const
{
    FrameBlockScratch scratch;
    prog->runBatchBlock(scratch, 1, rng);
    std::vector<std::uint8_t> out(scratch.meas.size());
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = static_cast<std::uint8_t>(scratch.meas[i] & 1);
    return out;
}

} // namespace stab
} // namespace hetarch
