/**
 * @file
 * Decoder ablations:
 *
 *  - weighted union-find vs greedy DEM decoding on the d = 3 surface
 *    code, where both apply (logical error rates and throughput);
 *  - the shot-batched decode pipeline (decodeBuffer: word-block fired
 *    scans + weight-sorted, dedup-aware decodeBatch) vs the per-word
 *    beginBatch/pushBufferColumn/finishBatch loop it replaced, and vs
 *    the dense per-shot scalar reference arm (unpack every detector of
 *    every shot, project the full syndrome, decode dense) at
 *    d in {3, 5, 7}, at the fig. 6 threshold-level noise point (plus
 *    d = 13, the decode-heavy benchmark point) and at a sub-threshold
 *    production point.
 *
 * The three-arm table cross-checks that all loops count the same
 * failures before reporting the speedups.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <utility>
#include <vector>

#include "core/table.hh"
#include "core/units.hh"
#include "qec/memory_experiment.hh"
#include "qec/sliding_window.hh"
#include "qec/surface_circuit.hh"
#include "qec/union_find.hh"
#include "stab/frame.hh"

#include "bench_util.hh"

namespace {

using namespace hetarch;
using namespace hetarch::units;

qec::CircuitNoise
noiseModel(double p2)
{
    qec::CircuitNoise noise;
    noise.p2 = p2;
    noise.p1 = p2 / 10.0;
    noise.dataT1 = noise.dataT2 = 0.5 * ms;
    noise.ancT1 = noise.ancT2 = 0.5 * ms;
    return noise;
}

/** The fig. 6 noise point (p2 = 1e-2, p1 = 1e-3, T1 = T2 = 0.1 ms). */
qec::CircuitNoise
fig6Noise()
{
    qec::CircuitNoise noise;
    noise.p2 = 1e-2;
    noise.p1 = 1e-3;
    noise.dataT1 = noise.dataT2 = 0.1 * ms;
    noise.ancT1 = noise.ancT2 = 0.1 * ms;
    return noise;
}

/**
 * The pre-packed decode loop, kept as the dense reference arm: unpack
 * each shot's full detector row, project the dense syndrome, decode
 * with the const (allocation-per-call) union-find path, and compare
 * every observable.
 */
std::size_t
denseReferenceFailures(const qec::DecoderSetup& setup,
                       const stab::DetectorSamples& samples)
{
    std::size_t failures = 0;
    std::vector<std::uint8_t> detectors(samples.numDetectors);
    qec::UnionFindDecoder dec_z(setup.graphZ);
    qec::UnionFindDecoder dec_x(setup.graphX);
    for (std::size_t s = 0; s < samples.shots; ++s) {
        const std::size_t w = s / 64;
        const std::size_t lane = s % 64;
        for (std::size_t d = 0; d < samples.numDetectors; ++d)
            detectors[d] = static_cast<std::uint8_t>(
                (samples.detWord(d, w) >> lane) & 1);
        std::uint32_t predicted = 0;
        predicted ^=
            dec_z.decode(setup.graphZ.projectSyndrome(detectors));
        predicted ^=
            dec_x.decode(setup.graphX.projectSyndrome(detectors));
        std::uint32_t actual = 0;
        for (std::size_t k = 0; k < samples.numObservables && k < 32; ++k)
            actual |= static_cast<std::uint32_t>(
                          (samples.obsWord(k, w) >> lane) & 1)
                      << k;
        failures += predicted != actual;
    }
    return failures;
}

void
BM_DecodeShot(benchmark::State& state)
{
    const bool use_uf = state.range(0) == 0;
    const auto circ = qec::surfaceMemoryZ(3, 3, noiseModel(5e-3));
    Rng rng(3);
    for (auto _ : state) {
        auto res = qec::runMemoryExperiment(
            circ, 256, 3,
            use_uf ? qec::DecoderKind::UnionFind
                   : qec::DecoderKind::GreedyDem,
            rng);
        benchmark::DoNotOptimize(res);
    }
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_DecodeShot)->Arg(0)->Arg(1);

void
BM_DecodeBufferSparse(benchmark::State& state)
{
    // Production kernel on a pre-sampled fig. 6 d=7 buffer: word-block
    // fired-detector scans + trivial-shot bypass + shot-batched
    // decodeBatch (weight-sorted, dedup-aware).
    const auto circ = qec::surfaceMemoryZ(7, 7, fig6Noise());
    const auto setup =
        qec::DecoderSetup::build(circ, qec::DecoderKind::UnionFind);
    const stab::FrameSimulator sim(circ);
    Rng rng(5);
    const auto samples = sim.sampleDetectors(256, rng);
    qec::SlidingWindowDecoder kernel(*setup, qec::DecoderKind::UnionFind);
    for (auto _ : state) {
        auto failures = kernel.decodeBuffer(samples);
        benchmark::DoNotOptimize(failures);
    }
    state.SetItemsProcessed(state.iterations() * samples.shots);
}
BENCHMARK(BM_DecodeBufferSparse);

void
BM_DecodeBufferPerWord(benchmark::State& state)
{
    // The pre-batch per-word loop on the identical buffer: one
    // beginBatch/pushBufferColumn/finishBatch round trip per 64-shot
    // word, shots decoded in arrival order without dedup.
    const auto circ = qec::surfaceMemoryZ(7, 7, fig6Noise());
    const auto setup =
        qec::DecoderSetup::build(circ, qec::DecoderKind::UnionFind);
    const stab::FrameSimulator sim(circ);
    Rng rng(5);
    const auto samples = sim.sampleDetectors(256, rng);
    qec::SlidingWindowDecoder kernel(*setup, qec::DecoderKind::UnionFind);
    for (auto _ : state) {
        std::size_t failures = 0;
        for (std::size_t w = 0; w < samples.numWords; ++w) {
            const std::size_t lanes =
                std::min<std::size_t>(64, samples.shots - w * 64);
            kernel.beginBatch(lanes);
            kernel.pushBufferColumn(samples, w);
            failures += kernel.finishBatch();
        }
        benchmark::DoNotOptimize(failures);
    }
    state.SetItemsProcessed(state.iterations() * samples.shots);
}
BENCHMARK(BM_DecodeBufferPerWord);

void
BM_DecodeBufferDense(benchmark::State& state)
{
    // The pre-packed loop on the identical buffer, for the speedup
    // denominator.
    const auto circ = qec::surfaceMemoryZ(7, 7, fig6Noise());
    const auto setup =
        qec::DecoderSetup::build(circ, qec::DecoderKind::UnionFind);
    const stab::FrameSimulator sim(circ);
    Rng rng(5);
    const auto samples = sim.sampleDetectors(256, rng);
    for (auto _ : state) {
        auto failures = denseReferenceFailures(*setup, samples);
        benchmark::DoNotOptimize(failures);
    }
    state.SetItemsProcessed(state.iterations() * samples.shots);
}
BENCHMARK(BM_DecodeBufferDense);

} // namespace

int
main(int argc, char** argv)
{
    hetarch::bench::configure(argc, argv);
    hetarch::bench::printRunHeader();
    const double shot_scale = hetarch::bench::runScale().shotScale;
    using clock = std::chrono::steady_clock;

    std::cout << "\n=== Ablation: union-find vs greedy DEM decoder "
                 "(surface d=3) ===\n";
    TextTable t({"p2", "p_L(union-find)", "p_L(greedy-dem)"});
    const auto shots_pl =
        static_cast<std::size_t>(20000 * shot_scale);
    for (double p2 : {2e-3, 5e-3, 1e-2}) {
        const auto circ = qec::surfaceMemoryZ(3, 3, noiseModel(p2));
        Rng rng_a(11), rng_b(11);
        const auto uf = qec::runMemoryExperiment(
            circ, shots_pl, 3, qec::DecoderKind::UnionFind, rng_a);
        const auto gd = qec::runMemoryExperiment(
            circ, shots_pl, 3, qec::DecoderKind::GreedyDem, rng_b);
        t.addRow({formatSci(p2, 2), formatSci(uf.perRound(), 3),
                  formatSci(gd.perRound(), 3)});
    }
    t.print(std::cout);

    std::cout << "\n=== Ablation: shot-batched decode vs per-word loop "
                 "vs dense reference (single thread) ===\n";
    // "batched" is the production countLogicalFailures path
    // (decodeBuffer: word-block fired scans + weight-sorted, dedup-aware
    // decodeBatch), "per-word" is the loop it replaced (one
    // beginBatch/pushBufferColumn/finishBatch round trip per 64-shot
    // word), "dense" is the pre-packed scalar arm (unpack + dense
    // decode per shot).  All three decode the identical sample buffer
    // and must agree on the failure count.  Two noise points: the
    // fig. 6 threshold-level point (heavy syndromes — worst case for
    // dedup, the sort is pure overhead) and a sub-threshold production
    // point (light syndromes — duplicates abound and dedup pays).  The
    // fig. 6 point adds d = 13, where decode dominates per-shot time.
    TextTable s({"noise", "distance", "shots", "batched(ms)",
                 "per-word(ms)", "dense(ms)", "vs-per-word", "vs-dense",
                 "failures-equal"});
    struct NoisePoint
    {
        const char* name;
        qec::CircuitNoise noise;
        std::vector<std::size_t> distances;
    };
    const NoisePoint noise_points[] = {
        {"fig6", fig6Noise(), {3, 5, 7, 13}},
        {"p2=2e-3", noiseModel(2e-3), {3, 5, 7}}};
    for (const auto& [noise_name, noise, distances] : noise_points)
    for (std::size_t d : distances) {
        const auto circ = qec::surfaceMemoryZ(d, d, noise);
        const auto setup =
            qec::DecoderSetup::build(circ, qec::DecoderKind::UnionFind);
        const stab::FrameSimulator sim(circ);
        const auto shots = static_cast<std::size_t>(2048 * shot_scale);
        Rng rng(5);
        const auto samples = sim.sampleDetectors(shots, rng);

        // Both kernels are constructed outside the timed regions: the
        // comparison is between decode loops, not constructor cost
        // (production constructs one kernel per 256-shot chunk either
        // way).
        qec::SlidingWindowDecoder batch_kernel(
            *setup, qec::DecoderKind::UnionFind);
        const auto b0 = clock::now();
        const auto batched_failures = batch_kernel.decodeBuffer(samples);
        const auto b1 = clock::now();

        qec::SlidingWindowDecoder word_kernel(
            *setup, qec::DecoderKind::UnionFind);
        const auto w0 = clock::now();
        std::size_t word_failures = 0;
        for (std::size_t w = 0; w < samples.numWords; ++w) {
            const std::size_t lanes =
                std::min<std::size_t>(64, samples.shots - w * 64);
            word_kernel.beginBatch(lanes);
            word_kernel.pushBufferColumn(samples, w);
            word_failures += word_kernel.finishBatch();
        }
        const auto w1 = clock::now();

        const auto d0 = clock::now();
        const auto dense_failures =
            denseReferenceFailures(*setup, samples);
        const auto d1 = clock::now();

        const double b_ms =
            std::chrono::duration<double, std::milli>(b1 - b0).count();
        const double w_ms =
            std::chrono::duration<double, std::milli>(w1 - w0).count();
        const double d_ms =
            std::chrono::duration<double, std::milli>(d1 - d0).count();
        const bool equal = batched_failures == word_failures &&
                           batched_failures == dense_failures;
        s.addRow({noise_name, std::to_string(d), std::to_string(shots),
                  formatFixed(b_ms, 2), formatFixed(w_ms, 2),
                  formatFixed(d_ms, 2),
                  formatFixed(w_ms / b_ms, 1) + "x",
                  formatFixed(d_ms / b_ms, 1) + "x",
                  equal ? "yes" : "NO"});
    }
    s.print(std::cout);
    std::cout.flush();

    hetarch::bench::exportMetrics();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
