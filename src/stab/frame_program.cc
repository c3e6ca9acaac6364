#include "stab/frame_program.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
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
        return 4; // X_a, Z_a, X_b, Z_b flip masks
      default:
        return 0;
    }
}

/** @p bit if @p on, else 0: row picks without data-dependent branches. */
inline std::uint64_t
pick(std::uint64_t bit, bool on)
{
    return bit & -std::uint64_t{on};
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
FrameProgram::compile(const Circuit& circuit)
{
    auto prog = std::make_shared<FrameProgram>();
    prog->nQubits = circuit.numQubits();
    prog->nMeas = circuit.numMeasurements();
    prog->nDets = circuit.numDetectors();
    prog->nObs = circuit.numObservables();

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
            f.code = FrameOpCode::Pauli1;
            f.p0 = ptot;
            f.p1 = px / ptot;
            f.p2 = (px + py) / ptot;
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
    // slot range in stream order, so a slice's tape is a window of the
    // program's.  Each slice records its M collapse slots and groups
    // its noise sites by channel (opcode and exact probabilities),
    // groups ordered by first appearance — the resolution order of the
    // RNG contract.  A slice holds few distinct channels (one per
    // gate/idle class), so a linear search beats hashing here.
    std::uint32_t slot = 0;
    std::vector<NoiseGroup> open_groups;
    std::vector<std::vector<std::uint32_t>> group_slots;
    for (auto& info : prog->slices) {
        info.tapeBegin = slot;
        info.collapseBegin =
            static_cast<std::uint32_t>(prog->collapseSlots.size());
        open_groups.clear();
        group_slots.clear();
        for (std::uint32_t i = info.opBegin; i < info.opEnd; ++i) {
            auto& f = prog->stream[i];
            const std::uint32_t slots = tapeSlotsOf(f.code);
            if (slots == 0)
                continue;
            f.tape = slot;
            slot += slots;
            if (f.code == FrameOpCode::M) {
                prog->collapseSlots.push_back(f.tape);
                continue;
            }
            if (!(f.p0 > 0.0))
                continue; // never errs
            // The walk reads p only through log1p(-p), so that is the key.
            const double log1m_p =
                f.p0 >= 1.0 ? -std::numeric_limits<double>::infinity()
                            : std::log1p(-f.p0);
            const auto same = [&](const NoiseGroup& g) {
                return g.code == f.code && g.log1mP == log1m_p &&
                       g.p1 == f.p1 && g.p2 == f.p2;
            };
            const auto g = static_cast<std::size_t>(
                std::find_if(open_groups.begin(), open_groups.end(), same) -
                open_groups.begin());
            if (g == open_groups.size()) {
                NoiseGroup group;
                group.code = f.code;
                group.log1mP = log1m_p;
                group.p1 = f.p1;
                group.p2 = f.p2;
                open_groups.push_back(group);
                group_slots.emplace_back();
            }
            group_slots[g].push_back(f.tape);
        }
        info.tapeEnd = slot;
        info.collapseEnd =
            static_cast<std::uint32_t>(prog->collapseSlots.size());
        info.groupBegin = static_cast<std::uint32_t>(prog->groups.size());
        for (std::size_t g = 0; g < open_groups.size(); ++g) {
            NoiseGroup& group = open_groups[g];
            group.siteBegin =
                static_cast<std::uint32_t>(prog->groupSlots.size());
            prog->groupSlots.insert(prog->groupSlots.end(),
                                    group_slots[g].begin(),
                                    group_slots[g].end());
            group.siteEnd =
                static_cast<std::uint32_t>(prog->groupSlots.size());
            prog->groups.push_back(group);
        }
        info.groupEnd = static_cast<std::uint32_t>(prog->groups.size());
        prog->maxSliceTapeSlots = std::max<std::size_t>(
            prog->maxSliceTapeSlots, slot - info.tapeBegin);
    }
    prog->nTapeSlots = slot;

    cProgramCompiles.add();
    return prog;
}

std::uint64_t
FrameProgram::resolveSlice(const FrameSliceInfo& info, std::uint64_t* tape,
                           std::uint32_t base, std::size_t stride,
                           Rng& rng) const
{
    for (std::uint32_t c = info.collapseBegin; c < info.collapseEnd; ++c)
        tape[(collapseSlots[c] - base) * stride] = rng();

    std::uint64_t flips = 0;
    for (std::uint32_t g = info.groupBegin; g < info.groupEnd; ++g) {
        const NoiseGroup& group = groups[g];
        const std::uint32_t* slots = groupSlots.data() + group.siteBegin;
        // The (site x 64-lane) grid, site-major: pos = site * 64 + lane.
        // hit(rows, bit) gets the erring site's first tape row (row k
        // at rows[k * stride]) and the erring lane's bit.
        const std::uint64_t n =
            std::uint64_t{group.siteEnd - group.siteBegin} * 64;
        const auto walk = [&](auto&& hit) {
            for (std::uint64_t pos = rng.geometricSkip(group.log1mP, n);
                 pos < n;
                 pos += 1 + rng.geometricSkip(group.log1mP, n - pos - 1)) {
                hit(tape + (slots[pos / 64] - base) * stride,
                    std::uint64_t{1} << (pos % 64));
                ++flips;
            }
        };
        // Each erring lane draws its Pauli categorically; the picks are
        // coin flips the branch predictor cannot learn, hence masks.
        switch (group.code) {
          case FrameOpCode::XError:
          case FrameOpCode::ZError:
            walk([](std::uint64_t* t, std::uint64_t bit) { t[0] |= bit; });
            break;
          case FrameOpCode::Depol1:
            walk([&](std::uint64_t* t, std::uint64_t bit) {
                const std::uint64_t pauli = rng.uniformInt(3); // X, Y, Z
                t[0] |= pick(bit, pauli != 2);
                t[stride] |= pick(bit, pauli != 0);
            });
            break;
          case FrameOpCode::Pauli1:
            walk([&](std::uint64_t* t, std::uint64_t bit) {
                const double u = rng.uniform();
                t[0] |= pick(bit, u < group.p2);       // X or Y
                t[stride] |= pick(bit, u >= group.p1); // Y or Z
            });
            break;
          case FrameOpCode::Depol2:
            walk([&](std::uint64_t* t, std::uint64_t bit) {
                // Non-identity two-qubit Pauli: bits X_a, Z_a, X_b, Z_b.
                const std::uint64_t pauli = rng.uniformInt(15) + 1;
                for (std::size_t k = 0; k < 4; ++k)
                    t[k * stride] |= pick(bit, (pauli >> k) & 1);
            });
            break;
          default:
            break; // only noise ops join noise groups
        }
    }
    return flips;
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
    scratch.tape.assign(nTapeSlots * words, 0);
    scratch.fold.resize(words);

    // Word by word, slice by slice: exactly the draw order of W
    // sequential 64-shot batches, writing straight into the
    // slot-major tape (word w of slot t at tape[t * words + w]).
    std::uint64_t flips = 0;
    for (std::size_t w = 0; w < words; ++w)
        for (const auto& info : slices)
            flips += resolveSlice(info, scratch.tape.data() + w, 0, words,
                                  rng);
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
    std::fill_n(tape, info.tapeEnd - info.tapeBegin, 0);
    const std::uint64_t flips =
        resolveSlice(info, tape, info.tapeBegin, 1, rng);
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
