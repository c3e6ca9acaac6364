/**
 * @file
 * Sampler ablations.  Two axes:
 *
 *  - batched Pauli-frame sampling vs exact tableau simulation (the
 *    frame sampler is what makes paper-scale experiments affordable);
 *  - the compiled, bit-packed frame pipeline (sparse noise tape +
 *    word-parallel replay) vs the legacy op-list interpreter (one
 *    biasedWord per noise word; it survives as the statistical
 *    equivalence oracle).
 *
 * The two pipelines consume the RNG differently, so the
 * packed-vs-reference arm cross-checks agreement in distribution: mean
 * fired detectors per shot of both arms must agree within 4 sigma.
 * The tape-only arm times the sparse noise-tape pass alone against the
 * whole reference interpreter, whose time is almost all noise
 * resolution, at d=13 for fig6 and sub-threshold noise.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <iostream>
#include <utility>

#include "core/table.hh"
#include "core/units.hh"
#include "qec/memory_experiment.hh"
#include "qec/surface_circuit.hh"
#include "stab/frame.hh"
#include "stab/tableau.hh"

#include "bench_util.hh"

namespace {

using namespace hetarch;
using namespace hetarch::units;

qec::CircuitNoise
noiseModel()
{
    qec::CircuitNoise noise;
    noise.p2 = 1e-2;
    noise.p1 = 1e-3;
    noise.dataT1 = noise.dataT2 = 0.1 * ms;
    noise.ancT1 = noise.ancT2 = 0.1 * ms;
    return noise;
}

/** Sub-threshold storage-class noise: 10x lower gate error, 10x T1/T2. */
qec::CircuitNoise
lowNoiseModel()
{
    qec::CircuitNoise noise;
    noise.p2 = 1e-3;
    noise.p1 = 1e-4;
    noise.dataT1 = noise.dataT2 = 1.0 * ms;
    noise.ancT1 = noise.ancT2 = 1.0 * ms;
    return noise;
}

/** Mean and variance of fired detectors per shot. */
std::pair<double, double>
firedPerShot(const stab::DetectorSamples& s)
{
    double sum = 0.0, sum2 = 0.0;
    for (std::size_t shot = 0; shot < s.shots; ++shot) {
        const auto w = static_cast<double>(s.shotWeight(shot));
        sum += w;
        sum2 += w * w;
    }
    const double n = static_cast<double>(s.shots);
    const double mean = sum / n;
    return {mean, sum2 / n - mean * mean};
}

void
BM_FrameSampler(benchmark::State& state)
{
    const auto d = static_cast<std::size_t>(state.range(0));
    const auto circ = qec::surfaceMemoryZ(d, d, noiseModel());
    stab::FrameSimulator sim(circ);
    Rng rng(3);
    for (auto _ : state) {
        auto s = sim.sampleDetectors(64, rng);
        benchmark::DoNotOptimize(s);
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_FrameSampler)->Arg(3)->Arg(5)->Arg(9)->Arg(13);

void
BM_FrameSamplerReference(benchmark::State& state)
{
    // The legacy per-batch op-list interpreter, for comparison with
    // the compiled program BM_FrameSampler runs.
    const auto d = static_cast<std::size_t>(state.range(0));
    const auto circ = qec::surfaceMemoryZ(d, d, noiseModel());
    stab::FrameSimulator sim(circ);
    Rng rng(3);
    for (auto _ : state) {
        auto s = sim.sampleDetectorsReference(64, rng);
        benchmark::DoNotOptimize(s);
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_FrameSamplerReference)->Arg(3)->Arg(5)->Arg(9)->Arg(13);

void
BM_FrameReplayBlock(benchmark::State& state)
{
    // Pure frame propagation (the vectorized replay pass) at a given
    // block width; the noise tape is resolved once outside the loop.
    const auto words = static_cast<std::size_t>(state.range(0));
    const auto circ = qec::surfaceMemoryZ(9, 9, noiseModel());
    const auto prog = stab::FrameProgram::compile(circ);
    stab::FrameBlockScratch scratch;
    Rng rng(3);
    prog->resolveNoiseTape(scratch, words, rng);
    for (auto _ : state) {
        prog->replayBlock(scratch);
        benchmark::DoNotOptimize(scratch.meas.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(words * 64));
}
BENCHMARK(BM_FrameReplayBlock)->Arg(1)->Arg(4)->Arg(8);

void
BM_TableauSampler(benchmark::State& state)
{
    const auto d = static_cast<std::size_t>(state.range(0));
    const auto circ = qec::surfaceMemoryZ(d, d, noiseModel());
    Rng rng(3);
    for (auto _ : state) {
        stab::TableauSimulator sim(circ.numQubits());
        auto record = sim.run(circ, rng);
        benchmark::DoNotOptimize(record);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TableauSampler)->Arg(3)->Arg(5)->Arg(9);

} // namespace

int
main(int argc, char** argv)
{
    hetarch::bench::configure(argc, argv);
    hetarch::bench::printRunHeader();
    using clock = std::chrono::steady_clock;
    std::cout << "\n=== Ablation: frame sampler vs tableau simulator ===\n";

    TextTable t({"distance", "shots", "frame(ms)", "tableau(ms)",
                 "speedup"});
    for (std::size_t d : {3ul, 5ul, 9ul}) {
        const auto circ = qec::surfaceMemoryZ(d, d, noiseModel());
        const std::size_t shots = 512;

        Rng rng_f(1);
        stab::FrameSimulator frame(circ);
        const auto f0 = clock::now();
        auto fs = frame.sampleDetectors(shots, rng_f);
        benchmark::DoNotOptimize(fs);
        const auto f1 = clock::now();

        Rng rng_t(1);
        const auto t0 = clock::now();
        for (std::size_t s = 0; s < shots; ++s) {
            stab::TableauSimulator sim(circ.numQubits());
            auto record = sim.run(circ, rng_t);
            benchmark::DoNotOptimize(record);
        }
        const auto t1 = clock::now();

        const double f_ms =
            std::chrono::duration<double, std::milli>(f1 - f0).count();
        const double t_ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        t.addRow({std::to_string(d), std::to_string(shots),
                  formatFixed(f_ms, 2), formatFixed(t_ms, 2),
                  formatFixed(t_ms / f_ms, 1) + "x"});
    }
    t.print(std::cout);

    std::cout << "\n=== Ablation: compiled packed sampler vs op-list "
                 "interpreter ===\n";
    TextTable p({"distance", "shots", "packed(ms)", "reference(ms)",
                 "speedup", "fired/shot packed", "fired/shot ref",
                 "within 4 sigma"});
    for (std::size_t d : {3ul, 5ul, 9ul, 13ul}) {
        const auto circ = qec::surfaceMemoryZ(d, d, noiseModel());
        const std::size_t shots = 2048;
        stab::FrameSimulator frame(circ);

        Rng rng_p(1);
        const auto p0 = clock::now();
        const auto packed = frame.sampleDetectors(shots, rng_p);
        const auto p1 = clock::now();

        Rng rng_r(1);
        const auto r0 = clock::now();
        const auto reference =
            frame.sampleDetectorsReference(shots, rng_r);
        const auto r1 = clock::now();

        const auto [mean_p, var_p] = firedPerShot(packed);
        const auto [mean_r, var_r] = firedPerShot(reference);
        const double sigma =
            std::sqrt((var_p + var_r) / static_cast<double>(shots));
        const bool agree = std::fabs(mean_p - mean_r) <= 4.0 * sigma;
        const double p_ms =
            std::chrono::duration<double, std::milli>(p1 - p0).count();
        const double r_ms =
            std::chrono::duration<double, std::milli>(r1 - r0).count();
        p.addRow({std::to_string(d), std::to_string(shots),
                  formatFixed(p_ms, 2), formatFixed(r_ms, 2),
                  formatFixed(r_ms / p_ms, 1) + "x", formatFixed(mean_p, 3),
                  formatFixed(mean_r, 3), agree ? "yes" : "NO"});
    }
    p.print(std::cout);

    std::cout << "\n=== Ablation: sparse noise tape vs op-list "
                 "interpreter (d=13) ===\n";
    TextTable tape({"noise", "shots", "sparse tape(ms)", "reference(ms)",
                    "speedup"});
    for (const auto& [name, noise] :
         {std::pair{"fig6", noiseModel()},
          std::pair{"lowp", lowNoiseModel()}}) {
        const auto circ = qec::surfaceMemoryZ(13, 13, noise);
        const std::size_t shots = 2048;
        stab::FrameSimulator frame(circ);
        const auto& prog = frame.program();

        // One untimed block first, so the timed loop does not pay the
        // scratch buffers' first-touch page faults.
        stab::FrameBlockScratch scratch;
        Rng rng_t(1);
        prog.resolveNoiseTape(scratch, stab::kMaxFrameBlockWords, rng_t);
        const auto t0 = clock::now();
        for (std::size_t w = 0; w < shots / 64;
             w += stab::kMaxFrameBlockWords)
            prog.resolveNoiseTape(scratch, stab::kMaxFrameBlockWords, rng_t);
        const auto t1 = clock::now();

        Rng rng_r(1);
        const auto r0 = clock::now();
        const auto reference = frame.sampleDetectorsReference(shots, rng_r);
        benchmark::DoNotOptimize(reference);
        const auto r1 = clock::now();

        const double t_ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        const double r_ms =
            std::chrono::duration<double, std::milli>(r1 - r0).count();
        tape.addRow({name, std::to_string(shots), formatFixed(t_ms, 2),
                     formatFixed(r_ms, 2),
                     formatFixed(r_ms / t_ms, 1) + "x"});
    }
    tape.print(std::cout);

    std::cout << "\n=== Ablation: word-parallel blocks (W=8) vs 1-word "
                 "blocks ===\n";
    // Two arms per distance: "sample" is end-to-end sampleDetectors
    // (sparse noise-tape resolution + vectorized replay), "replay" is
    // the frame-propagation pass alone.  Samples are bit-identical at
    // every width by the RNG-order invariant, so the speedup is a pure
    // throughput delta.
    TextTable w({"distance", "arm", "w=8(ms)", "w=1(ms)", "speedup",
                 "bit-identical"});
    const std::size_t saved_width = stab::frameBlockWords();
    for (std::size_t d : {3ul, 5ul, 9ul, 13ul}) {
        const auto circ = qec::surfaceMemoryZ(d, d, noiseModel());
        const std::size_t shots = 2048;
        stab::FrameSimulator frame(circ);

        stab::setFrameBlockWords(8);
        Rng rng_w(1);
        const auto s0 = clock::now();
        const auto wide = frame.sampleDetectors(shots, rng_w);
        const auto s1 = clock::now();

        stab::setFrameBlockWords(1);
        Rng rng_n(1);
        const auto n0 = clock::now();
        const auto narrow = frame.sampleDetectors(shots, rng_n);
        const auto n1 = clock::now();

        const bool identical = wide.detWords == narrow.detWords &&
                               wide.obsWords == narrow.obsWords;
        const double w_ms =
            std::chrono::duration<double, std::milli>(s1 - s0).count();
        const double n_ms =
            std::chrono::duration<double, std::milli>(n1 - n0).count();
        w.addRow({std::to_string(d), "sample", formatFixed(w_ms, 2),
                  formatFixed(n_ms, 2),
                  formatFixed(n_ms / w_ms, 1) + "x",
                  identical ? "yes" : "NO"});

        // Propagation-only arm: replay a resolved tape, W words per
        // walk vs one word per walk, equal shot totals.
        const auto prog = stab::FrameProgram::compile(circ);
        const std::size_t reps = 64;
        stab::FrameBlockScratch blk;
        Rng rng_b(1);
        prog->resolveNoiseTape(blk, 8, rng_b);
        const auto b0 = clock::now();
        for (std::size_t r = 0; r < reps; ++r)
            prog->replayBlock(blk);
        const auto b1 = clock::now();

        stab::FrameBlockScratch one;
        Rng rng_o(1);
        prog->resolveNoiseTape(one, 1, rng_o);
        const auto o0 = clock::now();
        for (std::size_t r = 0; r < reps * 8; ++r)
            prog->replayBlock(one);
        const auto o1 = clock::now();

        const double b_ms =
            std::chrono::duration<double, std::milli>(b1 - b0).count();
        const double o_ms =
            std::chrono::duration<double, std::milli>(o1 - o0).count();
        w.addRow({std::to_string(d), "replay", formatFixed(b_ms, 2),
                  formatFixed(o_ms, 2),
                  formatFixed(o_ms / b_ms, 1) + "x", "-"});
    }
    stab::setFrameBlockWords(saved_width);
    w.print(std::cout);
    std::cout.flush();

    hetarch::bench::exportMetrics();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
