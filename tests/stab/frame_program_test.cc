/**
 * @file
 * Tests for compiled frame programs and the bit-packed sampler: the
 * sparse noise-tape contract must give bit-identical samples, flip
 * counts and RNG post-state at every block width, the packed layout
 * must keep idle lanes zero, and the categorical DEPOL2 draw must
 * produce the advertised lane marginals.  Agreement in distribution
 * with the op-list reference interpreter is pinned by
 * sampler_equivalence_test.cc.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/rng.hh"
#include "obs/obs.hh"
#include "qec/noise_model.hh"
#include "qec/surface_circuit.hh"
#include "stab/circuit.hh"
#include "stab/frame.hh"
#include "stab/frame_program.hh"

#include "opcode_soup.hh"

namespace hetarch {
namespace stab {
namespace {

/** A circuit touching every opcode the compiler handles. */
Circuit
kitchenSinkCircuit()
{
    Circuit c(4);
    c.h(0);
    c.s(1);
    c.sdg(2);
    c.x(0); // dropped by the compiler: no frame effect, no rng draw
    c.y(1);
    c.z(2);
    c.cx(0, 1);
    c.cz(1, 2);
    c.swap(2, 3);
    c.xError(0, 0.3);
    c.zError(1, 0.2);
    c.xError(2, 0.0); // kept: owns a tape slot, joins no noise group
    c.pauliChannel1(0, 0.1, 0.05, 0.02);
    c.pauliChannel1(1, 0.0, 0.0, 0.0); // dropped: breaks before drawing
    c.pauliChannel1(2, 0.1, 0.0, 0.0); // rest == 0 branch
    c.depolarize1(3, 0.15);
    c.depolarize2(0, 1, 0.2);
    const auto m0 = c.measureReset(0);
    const auto m1 = c.measure(1);
    c.reset(2);
    const auto m2 = c.measure(2);
    c.detector({m0});
    c.detector({m0, m1});
    c.detector({m2});
    c.observableInclude(0, {m1});
    c.observableInclude(0, {m2});
    c.observableInclude(1, {m0});
    return c;
}

TEST(FrameProgram, CompileDropsInertOpsAndBuildsCsrMasks)
{
    const auto c = kitchenSinkCircuit();
    const auto prog = FrameProgram::compile(c);

    EXPECT_EQ(prog->numQubits(), c.numQubits());
    EXPECT_EQ(prog->numMeasurements(), c.numMeasurements());
    EXPECT_EQ(prog->numDetectors(), 3u);
    EXPECT_EQ(prog->numObservables(), 2u);

    // 3 Paulis, the zero-probability PAULI1, and 6 annotations are
    // gone; everything else (including the p=0 X_ERROR) is kept.
    std::size_t interpreted = 0;
    for (const auto& op : c.ops()) {
        switch (op.code) {
          case OpCode::X:
          case OpCode::Y:
          case OpCode::Z:
          case OpCode::DETECTOR:
          case OpCode::OBSERVABLE:
            break;
          case OpCode::PAULI1:
            if (op.params[0] + op.params[1] + op.params[2] > 0.0)
                ++interpreted;
            break;
          default:
            ++interpreted;
        }
    }
    EXPECT_EQ(prog->ops().size(), interpreted);

    // Detector 1 = {m0, m1} = measurement records 0 and 1.
    ASSERT_EQ(prog->detMeasEnd(1) - prog->detMeasBegin(1), 2);
    EXPECT_EQ(prog->detMeasBegin(1)[0], 0u);
    EXPECT_EQ(prog->detMeasBegin(1)[1], 1u);
    // Observable 0 concatenates both includes: {m1, m2}.
    ASSERT_EQ(prog->obsMeasEnd(0) - prog->obsMeasBegin(0), 2);
    EXPECT_EQ(prog->obsMeasBegin(0)[0], 1u);
    EXPECT_EQ(prog->obsMeasBegin(0)[1], 2u);
    // Observable 1 = {m0}.
    ASSERT_EQ(prog->obsMeasEnd(1) - prog->obsMeasBegin(1), 1);
    EXPECT_EQ(prog->obsMeasBegin(1)[0], 0u);
}

/** Restore the configured block width on scope exit. */
struct WidthGuard
{
    std::size_t saved = frameBlockWords();
    ~WidthGuard() { setFrameBlockWords(saved); }
};

TEST(FrameProgram, PackedSamplerIsBitIdenticalAtEveryWidth)
{
    qec::CircuitNoise noise;
    noise.p2 = 1e-2;
    noise.p1 = 1e-3;
    const std::vector<std::pair<const char*, Circuit>> circuits = {
        {"kitchenSink", kitchenSinkCircuit()},
        {"surfaceMemoryZ", qec::surfaceMemoryZ(3, 3, noise)},
    };
    WidthGuard guard;
    for (const auto& [name, c] : circuits) {
        SCOPED_TRACE(name);
        const FrameSimulator sim(c);
        // 37 and 1000 shots end in a partial word; 1000 also ends in a
        // partial block at widths 4 and 8.
        for (const std::size_t shots : {std::size_t{64}, std::size_t{37},
                                        std::size_t{1000}}) {
            for (const std::uint64_t seed : {1ull, 42ull, 987654321ull}) {
                const auto run = [&](std::size_t width) {
                    setFrameBlockWords(width);
                    obs::Registry::instance().reset();
                    Rng rng(seed);
                    auto samples = sim.sampleDetectors(shots, rng);
                    std::uint64_t flips = 0;
                    for (const auto& [n, v] :
                         obs::Registry::instance().snapshot().counters)
                        if (n == "stab.sampler.frame_flips")
                            flips = v;
                    return std::make_tuple(std::move(samples), flips,
                                           rng());
                };
                const auto [ref, ref_flips, ref_next] = run(1);
                for (const std::size_t width :
                     {std::size_t{4}, std::size_t{8}}) {
                    const auto [got, flips, next] = run(width);
                    EXPECT_EQ(got.detWords, ref.detWords)
                        << "width=" << width << " shots=" << shots
                        << " seed=" << seed;
                    EXPECT_EQ(got.obsWords, ref.obsWords)
                        << "width=" << width << " shots=" << shots
                        << " seed=" << seed;
                    EXPECT_EQ(flips, ref_flips)
                        << "width=" << width << " shots=" << shots
                        << " seed=" << seed;
                    // RNG-consumption parity: every width leaves the
                    // generator where the 1-word path left it.
                    EXPECT_EQ(next, ref_next)
                        << "width=" << width << " shots=" << shots
                        << " seed=" << seed;
                }
            }
        }
    }
}

TEST(FrameProgram, IdleLanesOfFinalPartialWordStayZero)
{
    Circuit c(1);
    c.xError(0, 1.0); // every live lane fires
    c.detector({c.measure(0)});
    const FrameSimulator sim(c);
    Rng rng(7);
    const std::size_t shots = 100; // 64 + 36 live lanes
    const auto s = sim.sampleDetectors(shots, rng);
    ASSERT_EQ(s.numWords, 2u);
    EXPECT_EQ(s.detWord(0, 0), ~std::uint64_t{0});
    EXPECT_EQ(s.detWord(0, 1), (std::uint64_t{1} << 36) - 1);
    // shotWeight popcounts whole columns, so idle-lane garbage would
    // show up here too.
    for (std::size_t shot = 0; shot < shots; ++shot)
        EXPECT_EQ(s.shotWeight(shot), 1u);
}

TEST(FrameProgram, Depol2LaneMarginalsAreUniformOverNonIdentityPaulis)
{
    const auto c = depol2ProbeCircuit(1.0);
    const FrameSimulator sim(c);
    Rng rng(12345);
    const std::size_t shots = 60000;
    const auto s = sim.sampleDetectors(shots, rng);

    std::array<std::size_t, 16> histogram{};
    for (std::size_t shot = 0; shot < shots; ++shot) {
        const unsigned pauli = s.det(shot, 0) | (s.det(shot, 1) << 1) |
                               (s.det(shot, 2) << 2) |
                               (s.det(shot, 3) << 3);
        ++histogram[pauli];
    }
    // At p=1 every lane errs, so the identity must never appear and
    // each of the 15 non-identity two-qubit Paulis is ~uniform.
    EXPECT_EQ(histogram[0], 0u);
    for (unsigned pauli = 1; pauli < 16; ++pauli) {
        const double freq = static_cast<double>(histogram[pauli]) /
                            static_cast<double>(shots);
        EXPECT_NEAR(freq, 1.0 / 15.0, 0.01) << "pauli " << pauli;
    }
}

TEST(FrameProgram, PackedAccessorsRejectOutOfRangeInDebugBuilds)
{
#ifdef NDEBUG
    GTEST_SKIP() << "bounds asserts compile out under NDEBUG";
#else
    Circuit c(1);
    c.detector({c.measure(0)});
    c.observableInclude(0, {0});
    const FrameSimulator sim(c);
    Rng rng(1);
    const auto s = sim.sampleDetectors(10, rng);
    EXPECT_DEATH((void)s.det(10, 0), "out of range");
    EXPECT_DEATH((void)s.det(0, 1), "out of range");
    EXPECT_DEATH((void)s.obs(10, 0), "out of range");
    EXPECT_DEATH((void)s.obs(0, 1), "out of range");
#endif
}

} // namespace
} // namespace stab
} // namespace hetarch
