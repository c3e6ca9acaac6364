/**
 * @file
 * Statistical-equivalence gate of the sparse noise-tape sampler.  The
 * compiled sampler (geometric skips over equal-p noise groups,
 * categorical Paulis at erring lanes) consumes the RNG differently from
 * the op-list reference interpreter (one biasedWord per noise word), so
 * the two are compared in distribution at fixed seeds:
 *
 *   - per-slot tape flip rates and per-op Pauli marginals of the
 *     compiled tape against the channels' exact probabilities
 *     (chi-square goodness of fit);
 *   - probe-circuit Pauli histograms and per-detector firing rates,
 *     compiled vs reference (chi-square homogeneity);
 *   - memory-experiment logical error rates at d in {3, 5, 7}, whose
 *     Wilson 95% intervals must overlap.
 *
 * Every chi-square statistic is held to its 0.1% critical value.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.hh"
#include "core/stats.hh"
#include "qec/decoder_cache.hh"
#include "qec/memory_experiment.hh"
#include "qec/noise_model.hh"
#include "qec/surface_circuit.hh"
#include "stab/circuit.hh"
#include "stab/frame.hh"
#include "stab/frame_program.hh"

#include "opcode_soup.hh"

namespace hetarch {
namespace stab {
namespace {

/**
 * Upper 0.1% critical value of chi-square with @p dof degrees of
 * freedom (Wilson-Hilferty; within ~1% of the exact quantile for
 * dof >= 3, conservative below).
 */
double
chiSquareCritical(std::size_t dof)
{
    const double k = static_cast<double>(dof);
    const double z = 3.0902; // standard normal 0.999 quantile
    const double c = 1.0 - 2.0 / (9.0 * k) + z * std::sqrt(2.0 / (9.0 * k));
    return k * c * c * c;
}

/** Accumulates a chi-square statistic and its degrees of freedom. */
struct ChiSquare
{
    double stat = 0.0;
    std::size_t dof = 0;

    /** Goodness of fit: @p observed per category vs probabilities. */
    void fit(const std::vector<double>& observed,
             const std::vector<double>& probs, double n)
    {
        std::size_t used = 0;
        for (std::size_t i = 0; i < probs.size(); ++i) {
            if (probs[i] <= 0.0) {
                EXPECT_EQ(observed[i], 0.0) << "impossible category " << i;
                continue;
            }
            const double e = n * probs[i];
            stat += (observed[i] - e) * (observed[i] - e) / e;
            ++used;
        }
        dof += used - 1;
    }

    /** Homogeneity of two equal-size samples' category counts. */
    void compare(const std::vector<double>& a, const std::vector<double>& b)
    {
        std::size_t used = 0;
        for (std::size_t i = 0; i < a.size(); ++i) {
            if (a[i] + b[i] == 0.0)
                continue;
            stat += (a[i] - b[i]) * (a[i] - b[i]) / (a[i] + b[i]);
            ++used;
        }
        dof += used - 1;
    }

    void expectPass(const std::string& what) const
    {
        ASSERT_GT(dof, 0u) << what;
        EXPECT_LT(stat, chiSquareCritical(dof))
            << what << ": chi2=" << stat << " dof=" << dof;
    }
};

/** Opcodes the compiler drops (no frame effect, no randomness). */
bool
droppedByCompiler(const Op& op)
{
    switch (op.code) {
      case OpCode::X:
      case OpCode::Y:
      case OpCode::Z:
      case OpCode::DETECTOR:
      case OpCode::OBSERVABLE:
        return true;
      case OpCode::PAULI1:
        return op.params[0] + op.params[1] + op.params[2] <= 0.0;
      default:
        return false;
    }
}

/**
 * A noise op of the compiled stream with its exact channel, taken from
 * the circuit's own parameters (not the compiled plan): Pauli index
 * probabilities over the op's tape slots, bit k of the index = slot k.
 */
struct NoiseChannel
{
    std::uint32_t tape = 0;
    std::size_t slots = 0;
    std::vector<double> probs; ///< size 2^slots
};

std::vector<NoiseChannel>
noiseChannels(const Circuit& circuit, const FrameProgram& prog)
{
    std::vector<NoiseChannel> out;
    auto it = prog.ops().begin();
    for (const auto& op : circuit.ops()) {
        if (droppedByCompiler(op))
            continue;
        const FrameOp& f = *it++;
        NoiseChannel ch;
        ch.tape = f.tape;
        switch (op.code) {
          case OpCode::X_ERROR:
          case OpCode::Z_ERROR:
            ch.slots = 1;
            ch.probs = {1.0 - op.params[0], op.params[0]};
            break;
          case OpCode::DEPOL1: {
            const double p = op.params[0];
            ch.slots = 2; // index = x | z << 1: I, X, Z, Y
            ch.probs = {1.0 - p, p / 3.0, p / 3.0, p / 3.0};
            break;
          }
          case OpCode::PAULI1: {
            const double px = op.params[0], py = op.params[1],
                         pz = op.params[2];
            ch.slots = 2;
            ch.probs = {1.0 - px - py - pz, px, pz, py};
            break;
          }
          case OpCode::DEPOL2: {
            const double p = op.params[0];
            ch.slots = 4;
            ch.probs.assign(16, p / 15.0);
            ch.probs[0] = 1.0 - p;
            break;
          }
          default:
            continue; // unitaries and measurements
        }
        out.push_back(std::move(ch));
    }
    EXPECT_EQ(it, prog.ops().end());
    return out;
}

TEST(SamplerEquivalence, TapeFlipRatesAndPauliMarginalsMatchChannels)
{
    const auto circuit = opcodeSoup();
    const auto prog = FrameProgram::compile(circuit);
    const auto channels = noiseChannels(circuit, *prog);
    ASSERT_FALSE(channels.empty());

    // Category counts per channel, accumulated over many 8-word tapes.
    const std::size_t words = kMaxFrameBlockWords;
    const std::size_t blocks = 200;
    const double lanes = static_cast<double>(blocks * words * 64);
    std::vector<std::vector<double>> counts(channels.size());
    for (std::size_t c = 0; c < channels.size(); ++c)
        counts[c].assign(channels[c].probs.size(), 0.0);

    Rng rng(20260);
    FrameBlockScratch scratch;
    for (std::size_t b = 0; b < blocks; ++b) {
        prog->resolveNoiseTape(scratch, words, rng);
        for (std::size_t c = 0; c < channels.size(); ++c) {
            const auto& ch = channels[c];
            for (std::size_t w = 0; w < words; ++w) {
                std::uint64_t any = 0;
                for (std::size_t k = 0; k < ch.slots; ++k)
                    any |= scratch.tape[(ch.tape + k) * words + w];
                counts[c][0] += 64 - std::popcount(any);
                while (any) {
                    const int lane = std::countr_zero(any);
                    any &= any - 1;
                    std::size_t index = 0;
                    for (std::size_t k = 0; k < ch.slots; ++k)
                        index |= ((scratch.tape[(ch.tape + k) * words + w] >>
                                   lane) & 1)
                                 << k;
                    counts[c][index] += 1;
                }
            }
        }
    }

    // Per-slot flip rates: slot k flips iff index bit k is set.
    ChiSquare slots;
    for (std::size_t c = 0; c < channels.size(); ++c) {
        const auto& ch = channels[c];
        for (std::size_t k = 0; k < ch.slots; ++k) {
            double q = 0.0, observed = 0.0;
            for (std::size_t i = 0; i < ch.probs.size(); ++i) {
                if ((i >> k) & 1) {
                    q += ch.probs[i];
                    observed += counts[c][i];
                }
            }
            slots.fit({lanes - observed, observed}, {1.0 - q, q}, lanes);
        }
    }
    slots.expectPass("per-slot flip rates");

    // Per-op Pauli marginals over all 2^slots categories.
    ChiSquare paulis;
    for (std::size_t c = 0; c < channels.size(); ++c)
        paulis.fit(counts[c], channels[c].probs, lanes);
    paulis.expectPass("per-op Pauli marginals");
}

/** Category histogram of the detector bits of every shot. */
std::vector<double>
detectorHistogram(const DetectorSamples& s)
{
    std::vector<double> hist(std::size_t{1} << s.numDetectors, 0.0);
    for (std::size_t shot = 0; shot < s.shots; ++shot) {
        std::size_t index = 0;
        for (std::size_t d = 0; d < s.numDetectors; ++d)
            index |= std::size_t{s.det(shot, d)} << d;
        hist[index] += 1;
    }
    return hist;
}

TEST(SamplerEquivalence, ProbePauliMarginalsMatchReference)
{
    struct Probe
    {
        const char* name;
        Circuit circuit;
        std::vector<double> probs; ///< index = detector bits
    };
    const auto depol2 = [](double p) {
        std::vector<double> probs(16, p / 15.0);
        probs[0] = 1.0 - p;
        return probs;
    };
    // Single-qubit probes read (x, z): index X = 1, Z = 2, Y = 3.
    const std::vector<Probe> probes = {
        {"depol2(1)", depol2ProbeCircuit(1.0), depol2(1.0)},
        {"depol2(0.3)", depol2ProbeCircuit(0.3), depol2(0.3)},
        {"depol1(0.4)", depol1ProbeCircuit(0.4),
         {0.6, 0.4 / 3, 0.4 / 3, 0.4 / 3}},
        {"pauli1(0.1,0.2,0.3)", pauli1ProbeCircuit(0.1, 0.2, 0.3),
         {0.4, 0.1, 0.3, 0.2}},
    };
    const std::size_t shots = 40000;
    for (const auto& probe : probes) {
        SCOPED_TRACE(probe.name);
        const FrameSimulator sim(probe.circuit);
        Rng rng_fast(515), rng_ref(616);
        const auto fast =
            detectorHistogram(sim.sampleDetectors(shots, rng_fast));
        const auto ref =
            detectorHistogram(sim.sampleDetectorsReference(shots, rng_ref));

        ChiSquare fit;
        fit.fit(fast, probe.probs, static_cast<double>(shots));
        fit.expectPass(std::string(probe.name) + " vs channel");

        ChiSquare homogeneity;
        homogeneity.compare(fast, ref);
        homogeneity.expectPass(std::string(probe.name) + " vs reference");
    }
}

TEST(SamplerEquivalence, DetectorFiringRatesMatchReference)
{
    qec::CircuitNoise noise;
    noise.p2 = 1e-2;
    noise.p1 = 1e-3;
    const std::vector<std::pair<const char*, Circuit>> circuits = {
        {"opcodeSoup", opcodeSoup()},
        {"surfaceMemoryZ", qec::surfaceMemoryZ(3, 3, noise)},
    };
    const std::size_t shots = 40000;
    for (const auto& [name, circuit] : circuits) {
        SCOPED_TRACE(name);
        const FrameSimulator sim(circuit);
        Rng rng_fast(717), rng_ref(818);
        const auto fast = sim.sampleDetectors(shots, rng_fast);
        const auto ref = sim.sampleDetectorsReference(shots, rng_ref);

        // Per detector/observable row: two binomials of equal size,
        // (a - b)^2 / ((a + b)(1 - pooled rate)) ~ chi-square(1).
        const auto rows = [](const std::vector<std::uint64_t>& words,
                             std::size_t n_words) {
            std::vector<double> fired(words.size() / n_words, 0.0);
            for (std::size_t r = 0; r < fired.size(); ++r)
                for (std::size_t w = 0; w < n_words; ++w)
                    fired[r] += std::popcount(words[r * n_words + w]);
            return fired;
        };
        auto a = rows(fast.detWords, fast.numWords);
        auto b = rows(ref.detWords, ref.numWords);
        const auto ao = rows(fast.obsWords, fast.numWords);
        const auto bo = rows(ref.obsWords, ref.numWords);
        a.insert(a.end(), ao.begin(), ao.end());
        b.insert(b.end(), bo.begin(), bo.end());

        ChiSquare chi;
        const double n = static_cast<double>(shots);
        for (std::size_t r = 0; r < a.size(); ++r) {
            const double pooled = (a[r] + b[r]) / (2.0 * n);
            if (pooled <= 0.0 || pooled >= 1.0)
                continue;
            chi.stat += (a[r] - b[r]) * (a[r] - b[r]) /
                        ((a[r] + b[r]) * (1.0 - pooled));
            ++chi.dof;
        }
        chi.expectPass(std::string(name) + " detector rates");
    }
}

TEST(SamplerEquivalence, MemoryLogicalErrorRatesAgreeWithReference)
{
    qec::CircuitNoise noise;
    noise.p2 = 1e-2;
    noise.p1 = 1e-3;
    const std::size_t shots = 4096;
    for (const std::size_t d : {3u, 5u, 7u}) {
        SCOPED_TRACE("d=" + std::to_string(d));
        const auto circuit = qec::surfaceMemoryZ(d, d, noise);
        const auto setup =
            qec::DecoderSetup::build(circuit, qec::DecoderKind::UnionFind);
        const FrameSimulator sim(circuit);

        Rng rng_fast(900 + d), rng_ref(1900 + d);
        TrialCounter fast, ref;
        fast.add(qec::countLogicalFailures(*setup,
                                           qec::DecoderKind::UnionFind,
                                           sim.sampleDetectors(shots,
                                                               rng_fast)),
                 shots);
        ref.add(qec::countLogicalFailures(
                    *setup, qec::DecoderKind::UnionFind,
                    sim.sampleDetectorsReference(shots, rng_ref)),
                shots);

        // Both arms must see failures, or the comparison is vacuous.
        EXPECT_GT(fast.successes(), 0u);
        EXPECT_GT(ref.successes(), 0u);
        EXPECT_LE(fast.wilsonLow(), ref.wilsonHigh())
            << "compiled " << fast.rate() << " reference " << ref.rate();
        EXPECT_LE(ref.wilsonLow(), fast.wilsonHigh())
            << "compiled " << fast.rate() << " reference " << ref.rate();
    }
}

} // namespace
} // namespace stab
} // namespace hetarch
