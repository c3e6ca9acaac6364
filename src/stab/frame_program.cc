#include "stab/frame_program.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <utility>

#include "core/logging.hh"
#include "core/simd.hh"
#include "obs/obs.hh"

namespace hetarch {
namespace stab {

namespace {

// Telemetry.  Compiles happen once per (circuit, call site) — via the
// DecoderCache exactly once per cached setup — so the count is a
// function of the workload, not of scheduling.
obs::Counter& cProgramCompiles = obs::counter("stab.sampler.program_compiles");

/** Noise-tape slots an op owns (its drawn masks, one word each). */
std::uint32_t
tapeSlotsOf(FrameOpCode code)
{
    switch (code) {
      case FrameOpCode::M:
        return 1; // the collapse word
      case FrameOpCode::XError:
      case FrameOpCode::ZError:
        return 1; // the error mask
      case FrameOpCode::Pauli1:
      case FrameOpCode::Depol1:
        return 2; // resolved X-flip and Z-flip masks
      case FrameOpCode::Depol2:
        return 4; // err & v0..v3 (X_a, Z_a, X_b, Z_b masks)
      default:
        return 0;
    }
}

/**
 * Resolve the RNG-consuming ops [op, end) of one 64-shot batch onto a
 * tape row: op's drawn masks land in row[op->tape - base ..).  The draw
 * order and parameters are the reference interpreter's, op for op, and
 * no frame state is read — every branch below (including the DEPOL2
 * retry loop) depends only on drawn values, which is what makes the
 * tape/replay split sound.  Returns the applied error-lane popcount.
 */
std::uint64_t
resolveOps(const FrameOp* op, const FrameOp* end, std::uint64_t* row,
           std::uint32_t base, int depol2_retries, Rng& rng)
{
    std::uint64_t flips = 0;
    for (; op != end; ++op) {
        auto* slot = row + (op->tape - base);
        switch (op->code) {
          case FrameOpCode::M:
            slot[0] = rng();
            break;
          case FrameOpCode::XError:
          case FrameOpCode::ZError: {
            const std::uint64_t err = rng.biasedWord(op->p0);
            slot[0] = err;
            flips += simd::popcountWord(err);
            break;
          }
          case FrameOpCode::Pauli1:
          case FrameOpCode::Depol1: {
            const bool depol = op->code == FrameOpCode::Depol1;
            const std::uint64_t err = rng.biasedWord(op->p0);
            const std::uint64_t pick_x =
                rng.biasedWord(depol ? 1.0 / 3.0 : op->p1);
            const std::uint64_t pick_y =
                rng.biasedWord(depol ? 0.5 : op->p2);
            const std::uint64_t mx = err & pick_x;
            const std::uint64_t my = err & ~pick_x & pick_y;
            const std::uint64_t mz = err & ~pick_x & ~pick_y;
            slot[0] = mx | my;
            slot[1] = mz | my;
            flips += simd::popcountWord(err);
            break;
          }
          case FrameOpCode::Depol2: {
            const std::uint64_t err = rng.biasedWord(op->p0);
            if (!err) {
                // The reference interpreter breaks before any v-draw;
                // zero tape rows make the replay XORs no-ops.
                slot[0] = slot[1] = slot[2] = slot[3] = 0;
                break;
            }
            // Uniform non-identity two-qubit Pauli per erring lane:
            // draw 4 random bits and reject the all-zero combination.
            std::uint64_t v0 = rng(), v1 = rng(), v2 = rng(), v3 = rng();
            for (int tries = 0; tries < depol2_retries; ++tries) {
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
            // Any lane still all-zero after the retries (prob 16^-12
            // at the default budget) is forced to X on qubit a.
            const std::uint64_t still = err & ~(v0 | v1 | v2 | v3);
            v0 |= still;
            slot[0] = err & v0;
            slot[1] = err & v1;
            slot[2] = err & v2;
            slot[3] = err & v3;
            flips += simd::popcountWord(err);
            break;
          }
          default:
            break; // zero-slot ops never land in rngOps
        }
    }
    return flips;
}

/**
 * Replay the ops [op, end) over w-word frame rows, XORing the resolved
 * tape (slot t at tape[(t - base) * w ..)) at every noise site.  Each
 * measurement row is copied to the w words next_record() returns, so
 * blocks write the full record and slices write the streaming ring.
 */
template <typename NextRecord>
void
replayOps(const FrameOp* op, const FrameOp* end, std::uint64_t* x,
          std::uint64_t* z, const std::uint64_t* tape, std::uint32_t base,
          std::size_t w, NextRecord&& next_record)
{
    for (; op != end; ++op) {
        auto* xa = x + op->a * w;
        auto* za = z + op->a * w;
        // Tape row k of this op; only noise sites and M own slots.
        const auto t = [&](std::uint32_t k) {
            return tape + (op->tape - base + k) * w;
        };
        switch (op->code) {
          case FrameOpCode::H:
            simd::swapWords(xa, za, w);
            break;
          case FrameOpCode::SGate:
            simd::xorWords(za, xa, w);
            break;
          case FrameOpCode::CX:
            simd::xorWords(x + op->b * w, xa, w);
            simd::xorWords(za, z + op->b * w, w);
            break;
          case FrameOpCode::CZ:
            simd::xorWords(za, x + op->b * w, w);
            simd::xorWords(z + op->b * w, xa, w);
            break;
          case FrameOpCode::Swap:
            simd::swapWords(xa, x + op->b * w, w);
            simd::swapWords(za, z + op->b * w, w);
            break;
          case FrameOpCode::M:
            simd::copyWords(next_record(), xa, w);
            // Measurement collapse randomizes the frame phase.
            simd::xorWords(za, t(0), w);
            break;
          case FrameOpCode::R:
            simd::zeroWords(xa, w);
            simd::zeroWords(za, w);
            break;
          case FrameOpCode::MR:
            simd::copyWords(next_record(), xa, w);
            simd::zeroWords(xa, w);
            simd::zeroWords(za, w);
            break;
          case FrameOpCode::XError:
            simd::xorWords(xa, t(0), w);
            break;
          case FrameOpCode::ZError:
            simd::xorWords(za, t(0), w);
            break;
          case FrameOpCode::Pauli1:
          case FrameOpCode::Depol1:
            simd::xorWords(xa, t(0), w);
            simd::xorWords(za, t(1), w);
            break;
          case FrameOpCode::Depol2:
            simd::xorWords(xa, t(0), w);
            simd::xorWords(za, t(1), w);
            simd::xorWords(x + op->b * w, t(2), w);
            simd::xorWords(z + op->b * w, t(3), w);
            break;
        }
    }
}

} // namespace

std::shared_ptr<const FrameProgram>
FrameProgram::compile(const Circuit& circuit, int depol2_retries)
{
    auto prog = std::make_shared<FrameProgram>();
    prog->nQubits = circuit.numQubits();
    prog->nMeas = circuit.numMeasurements();
    prog->nDets = circuit.numDetectors();
    prog->nObs = circuit.numObservables();
    prog->depol2Retries = depol2_retries;

    // Observable includes are concatenated per id; XOR-folding the
    // combined list equals XOR-accumulating the individual includes.
    std::vector<std::vector<std::uint32_t>> obs_meas(prog->nObs);

    // Slice tracking: a boundary is inserted just before a qubit's
    // second measurement since the previous boundary, so one slice
    // covers one measurement "round" (each detector and record belongs
    // to exactly one slice; gate ops of the next round may spill into
    // the previous slice, which only affects execution granularity).
    constexpr std::uint32_t kNever = 0xffffffffu;
    std::vector<std::uint32_t> meas_slice(prog->nQubits, kNever);
    std::uint32_t cur_slice = 0;
    std::uint32_t meas_count = 0;
    FrameSliceInfo open; // ranges accumulate; begin fields are current
    const auto close_slice = [&] {
        open.opEnd = static_cast<std::uint32_t>(prog->stream.size());
        open.measEnd = meas_count;
        open.detEnd =
            static_cast<std::uint32_t>(prog->detOffsets.size() - 1);
        prog->slices.push_back(open);
        open.opBegin = open.opEnd;
        open.measBegin = open.measEnd;
        open.detBegin = open.detEnd;
        ++cur_slice;
    };

    // At most one compiled op per circuit op.  Reserving up front
    // avoids the growth reallocations of this large array, whose freed
    // blocks otherwise raise the setup's peak RSS.
    prog->stream.reserve(circuit.ops().size());
    prog->detOffsets.push_back(0);
    for (const auto& op : circuit.ops()) {
        FrameOp f;
        f.a = op.targets.empty() ? 0 : op.targets[0];
        f.b = op.targets.size() > 1 ? op.targets[1] : 0;
        switch (op.code) {
          case OpCode::H:
            f.code = FrameOpCode::H;
            break;
          case OpCode::S:
          case OpCode::SDG:
            f.code = FrameOpCode::SGate;
            break;
          case OpCode::X:
          case OpCode::Y:
          case OpCode::Z:
            continue; // Paulis commute with the frame; no rng draw
          case OpCode::CX:
            f.code = FrameOpCode::CX;
            break;
          case OpCode::CZ:
            f.code = FrameOpCode::CZ;
            break;
          case OpCode::SWAP:
            f.code = FrameOpCode::Swap;
            break;
          case OpCode::M:
          case OpCode::MR:
            f.code = op.code == OpCode::M ? FrameOpCode::M
                                          : FrameOpCode::MR;
            if (meas_slice[f.a] == cur_slice)
                close_slice();
            meas_slice[f.a] = cur_slice;
            ++meas_count;
            break;
          case OpCode::R:
            f.code = FrameOpCode::R;
            break;
          case OpCode::X_ERROR:
            f.code = FrameOpCode::XError;
            f.p0 = op.params[0];
            break;
          case OpCode::Z_ERROR:
            f.code = FrameOpCode::ZError;
            f.p0 = op.params[0];
            break;
          case OpCode::PAULI1: {
            const double px = op.params[0];
            const double py = op.params[1];
            const double pz = op.params[2];
            const double ptot = px + py + pz;
            if (ptot <= 0.0)
                continue; // reference interpreter draws nothing
            const double rest = py + pz;
            f.code = FrameOpCode::Pauli1;
            f.p0 = ptot;
            f.p1 = px / ptot;
            f.p2 = rest > 0.0 ? py / rest : 0.0;
            break;
          }
          case OpCode::DEPOL1:
            f.code = FrameOpCode::Depol1;
            f.p0 = op.params[0];
            break;
          case OpCode::DEPOL2:
            f.code = FrameOpCode::Depol2;
            f.p0 = op.params[0];
            break;
          case OpCode::DETECTOR:
            for (auto m : op.targets)
                prog->detMeas.push_back(m);
            prog->detOffsets.push_back(
                static_cast<std::uint32_t>(prog->detMeas.size()));
            continue;
          case OpCode::OBSERVABLE:
            for (auto m : op.targets)
                obs_meas[op.id].push_back(m);
            continue;
        }
        prog->stream.push_back(f);
    }
    HETARCH_ASSERT(prog->detOffsets.size() == prog->nDets + 1,
                   "detector count mismatch while compiling");

    prog->obsOffsets.push_back(0);
    for (auto& meas : obs_meas) {
        prog->obsMeas.insert(prog->obsMeas.end(), meas.begin(),
                             meas.end());
        prog->obsOffsets.push_back(
            static_cast<std::uint32_t>(prog->obsMeas.size()));
    }

    // Close the tail slice; even an annotation-only or empty circuit
    // gets one slice so streaming callers never special-case.
    close_slice();
    HETARCH_ASSERT(prog->slices.back().measEnd == prog->nMeas,
                   "measurement count mismatch while slicing");

    // Assign each observable include to the slice that records its
    // measurement, so streaming folds can retire observable
    // contributions as soon as a slice completes.
    const auto slice_of = [&](std::uint32_t m) {
        std::size_t lo = 0, hi = prog->slices.size() - 1;
        while (lo < hi) {
            const std::size_t mid = (lo + hi) / 2;
            if (m < prog->slices[mid].measEnd)
                hi = mid;
            else
                lo = mid + 1;
        }
        return lo;
    };
    std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>>
        by_slice(prog->slices.size());
    for (std::size_t k = 0; k < prog->nObs; ++k)
        for (const auto* m = prog->obsMeasBegin(k);
             m != prog->obsMeasEnd(k); ++m)
            by_slice[slice_of(*m)].emplace_back(
                static_cast<std::uint32_t>(k), *m);
    for (std::size_t s = 0; s < prog->slices.size(); ++s) {
        prog->slices[s].obsBegin =
            static_cast<std::uint32_t>(prog->sliceObsId.size());
        for (const auto& [k, m] : by_slice[s]) {
            prog->sliceObsId.push_back(k);
            prog->sliceObsMeas.push_back(m);
        }
        prog->slices[s].obsEnd =
            static_cast<std::uint32_t>(prog->sliceObsId.size());
    }

    // Measurement lookback: how far behind its own last record any
    // slice's folds reach.  The streaming ring must keep a record
    // alive from when it is written until the slice that folds it
    // finishes, i.e. hold measEnd(s) - m records.
    std::size_t look = 1;
    for (const auto& s : prog->slices) {
        for (std::size_t d = s.detBegin; d < s.detEnd; ++d)
            for (const auto* m = prog->detMeasBegin(d);
                 m != prog->detMeasEnd(d); ++m)
                look = std::max<std::size_t>(look, s.measEnd - *m);
        for (std::size_t e = s.obsBegin; e < s.obsEnd; ++e)
            look = std::max<std::size_t>(
                look, s.measEnd - prog->sliceObsMeas[e]);
    }
    prog->lookback = look;
    prog->ringCapacity = std::bit_ceil(look);

    // Noise-tape layout: assign every RNG-consuming op a contiguous
    // slot range in stream order (the resolution order), and keep a
    // dense copy of just those ops so the per-word resolution pass
    // never dispatches pure Cliffords.  Slices own contiguous ranges
    // of both, so a slice's tape is a window of the program's.
    std::uint32_t slot = 0;
    for (auto& info : prog->slices) {
        info.rngBegin = static_cast<std::uint32_t>(prog->rngOps.size());
        info.tapeBegin = slot;
        for (std::uint32_t i = info.opBegin; i < info.opEnd; ++i) {
            auto& f = prog->stream[i];
            const std::uint32_t slots = tapeSlotsOf(f.code);
            if (slots == 0)
                continue;
            f.tape = slot;
            slot += slots;
            prog->rngOps.push_back(f);
        }
        info.rngEnd = static_cast<std::uint32_t>(prog->rngOps.size());
        prog->maxSliceTapeSlots = std::max<std::size_t>(
            prog->maxSliceTapeSlots, slot - info.tapeBegin);
    }
    prog->nTapeSlots = slot;

    cProgramCompiles.add();
    return prog;
}

std::uint64_t
FrameProgram::resolveNoiseTape(FrameBlockScratch& scratch,
                               std::size_t words, Rng& rng) const
{
    HETARCH_ASSERT(words >= 1 && words <= kMaxFrameBlockWords,
                   "block width ", words, " out of range");
    scratch.words = words;
    scratch.x.assign(nQubits * words, 0);
    scratch.z.assign(nQubits * words, 0);
    scratch.meas.assign(nMeas * words, 0);
    scratch.tape.resize(nTapeSlots * words);
    scratch.fold.resize(words);
    if (words > 1)
        scratch.stage.resize(nTapeSlots * words);

    // Word-by-word: exactly the draw order of W sequential 64-shot
    // batches.  Each batch resolves into a batch-major staging row
    // (contiguous writes); a single blocked transpose below produces
    // the slot-major layout replayBlock consumes.  Writing slot-major
    // directly would stride the tape by `words` words per slot — one
    // cache line per write at width 8 — multiplying resolution write
    // traffic by the width.  At width 1 the two layouts coincide, so
    // the tape is written in place.
    std::uint64_t flips = 0;
    auto* tape = scratch.tape.data();
    for (std::size_t w = 0; w < words; ++w) {
        auto* row = words == 1 ? tape
                               : scratch.stage.data() + w * nTapeSlots;
        flips += resolveOps(rngOps.data(), rngOps.data() + rngOps.size(),
                            row, 0, depol2Retries, rng);
    }

    // stage[w * slots + s] -> tape[s * words + w].  Slot-outer order
    // keeps the tape writes contiguous; the reads advance `words`
    // sequential streams, one per batch row.
    if (words > 1) {
        const auto* stage = scratch.stage.data();
        for (std::size_t s = 0; s < nTapeSlots; ++s)
            for (std::size_t w = 0; w < words; ++w)
                tape[s * words + w] = stage[w * nTapeSlots + s];
    }
    return flips;
}

void
FrameProgram::replayBlock(FrameBlockScratch& scratch) const
{
    const std::size_t w = scratch.words;
    HETARCH_DEBUG_ASSERT(w >= 1 && scratch.x.size() == nQubits * w,
                         "replayBlock on an unprepared scratch");
    auto* next = scratch.meas.data();
    replayOps(stream.data(), stream.data() + stream.size(),
              scratch.x.data(), scratch.z.data(), scratch.tape.data(), 0, w,
              [&] { return std::exchange(next, next + w); });
    HETARCH_DEBUG_ASSERT(next == scratch.meas.data() + nMeas * w,
                         "measurement count mismatch in block replay");
}

std::uint64_t
FrameProgram::runBatchBlock(FrameBlockScratch& scratch, std::size_t words,
                            Rng& rng) const
{
    const std::uint64_t flips = resolveNoiseTape(scratch, words, rng);
    replayBlock(scratch);
    return flips;
}

void
FrameProgram::foldAnnotationsBlock(FrameBlockScratch& scratch,
                                   std::uint64_t last_word_mask,
                                   std::uint64_t* det_words,
                                   std::size_t det_stride,
                                   std::uint64_t* obs_words,
                                   std::size_t obs_stride) const
{
    const std::size_t w = scratch.words;
    const auto* meas = scratch.meas.data();
    auto* acc = scratch.fold.data();
    const auto fold_row = [&](const std::uint32_t* begin,
                              const std::uint32_t* end,
                              std::uint64_t* out) {
        if (begin == end) {
            simd::zeroWords(acc, w);
        } else {
            simd::copyWords(acc, meas + *begin * w, w);
            for (const auto* m = begin + 1; m != end; ++m)
                simd::xorWords(acc, meas + *m * w, w);
        }
        acc[w - 1] &= last_word_mask;
        for (std::size_t j = 0; j < w; ++j)
            out[j] = acc[j];
    };
    for (std::size_t d = 0; d < nDets; ++d)
        fold_row(detMeasBegin(d), detMeasEnd(d),
                 det_words + d * det_stride);
    for (std::size_t k = 0; k < nObs; ++k)
        fold_row(obsMeasBegin(k), obsMeasEnd(k),
                 obs_words + k * obs_stride);
}

void
FrameProgram::beginStream(FrameStreamScratch& scratch) const
{
    scratch.x.assign(nQubits, 0);
    scratch.z.assign(nQubits, 0);
    scratch.tape.resize(maxSliceTapeSlots);
    scratch.measRing.assign(ringCapacity, 0);
    scratch.measCursor = 0;
}

std::uint64_t
FrameProgram::runSlice(std::size_t s, FrameStreamScratch& scratch,
                       Rng& rng) const
{
    const auto& info = slices[s];
    HETARCH_DEBUG_ASSERT(scratch.measCursor == info.measBegin,
                         "slices must run in order (cursor ",
                         scratch.measCursor, ", slice starts at ",
                         info.measBegin, ")");
    auto* tape = scratch.tape.data();
    const std::uint64_t flips =
        resolveOps(rngOps.data() + info.rngBegin,
                   rngOps.data() + info.rngEnd, tape, info.tapeBegin,
                   depol2Retries, rng);
    const std::size_t mask = ringCapacity - 1;
    auto* ring = scratch.measRing.data();
    replayOps(stream.data() + info.opBegin, stream.data() + info.opEnd,
              scratch.x.data(), scratch.z.data(), tape, info.tapeBegin, 1,
              [&] { return ring + (scratch.measCursor++ & mask); });
    return flips;
}

void
FrameProgram::foldSlice(std::size_t s, const FrameStreamScratch& scratch,
                        std::uint64_t lane_mask, std::uint64_t* det_words,
                        std::size_t det_stride, std::uint64_t* obs_words,
                        std::size_t obs_stride) const
{
    const auto& info = slices[s];
    HETARCH_DEBUG_ASSERT(scratch.measCursor == info.measEnd,
                         "foldSlice(", s, ") before its runSlice");
    const std::size_t mask = ringCapacity - 1;
    const auto* ring = scratch.measRing.data();
    for (std::size_t d = info.detBegin; d < info.detEnd; ++d) {
        std::uint64_t word = 0;
        for (const auto* m = detMeasBegin(d); m != detMeasEnd(d); ++m)
            word ^= ring[*m & mask];
        det_words[(d - info.detBegin) * det_stride] = word & lane_mask;
    }
    for (std::size_t e = info.obsBegin; e < info.obsEnd; ++e)
        obs_words[sliceObsId[e] * obs_stride] ^=
            ring[sliceObsMeas[e] & mask] & lane_mask;
}

namespace {

std::size_t
clampBlockWords(long words)
{
    if (words < 1)
        return 1;
    if (words > static_cast<long>(kMaxFrameBlockWords))
        return kMaxFrameBlockWords;
    return static_cast<std::size_t>(words);
}

std::atomic<std::size_t>&
blockWordsState()
{
    // Default: the full 8-word block (512 shots).  Atomic because
    // TSan-covered tests flip the width around chunk-parallel
    // experiments.
    static std::atomic<std::size_t> state{kMaxFrameBlockWords};
    return state;
}

} // namespace

std::size_t
frameBlockWords()
{
    return blockWordsState().load(std::memory_order_relaxed);
}

void
setFrameBlockWords(std::size_t words)
{
    blockWordsState().store(
        clampBlockWords(static_cast<long>(words)),
        std::memory_order_relaxed);
}

} // namespace stab
} // namespace hetarch
