/**
 * @file
 * Paper Fig. 6: d = 13 surface-code logical error per cycle as data or
 * ancilla coherence is scaled by alpha (base 0.1 ms, 1% CNOT error),
 * plus sampler/decoder microbenchmarks at d = 13.
 */

#include "bench_util.hh"
#include "core/units.hh"
#include "qec/memory_experiment.hh"
#include "qec/surface_circuit.hh"
#include "qec/union_find.hh"
#include "stab/dem.hh"
#include "stab/frame.hh"

namespace {

using namespace hetarch;
using namespace hetarch::units;

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

void
BM_FrameSampler_d13(benchmark::State& state)
{
    const auto circ = qec::surfaceMemoryZ(13, 13, fig6Noise());
    stab::FrameSimulator sim(circ);
    Rng rng(5);
    for (auto _ : state) {
        auto samples = sim.sampleDetectors(64, rng);
        benchmark::DoNotOptimize(samples);
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_FrameSampler_d13);

void
BM_DemBuild_d13(benchmark::State& state)
{
    const auto circ = qec::surfaceMemoryZ(13, 13, fig6Noise());
    for (auto _ : state) {
        auto dem = stab::buildDetectorErrorModel(circ);
        benchmark::DoNotOptimize(dem);
    }
}
BENCHMARK(BM_DemBuild_d13);

void
BM_UnionFindDecode_d13(benchmark::State& state)
{
    const auto circ = qec::surfaceMemoryZ(13, 13, fig6Noise());
    const auto dem = stab::buildDetectorErrorModel(circ);
    const auto graph = qec::DecodingGraph::fromDem(
        dem, circ.detectorTags(), qec::kTagZ);
    qec::UnionFindDecoder decoder(graph);
    stab::FrameSimulator sim(circ);
    Rng rng(7);
    const auto samples = sim.sampleDetectors(64, rng);
    std::vector<std::uint8_t> full(samples.numDetectors);
    std::size_t shot = 0;
    for (auto _ : state) {
        // 64 shots = lanes of word 0 in the packed buffer.
        const std::size_t lane = shot % 64;
        for (std::size_t d = 0; d < samples.numDetectors; ++d)
            full[d] = static_cast<std::uint8_t>(
                (samples.detWord(d, 0) >> lane) & 1);
        auto obs = decoder.decode(graph.projectSyndrome(full));
        benchmark::DoNotOptimize(obs);
        ++shot;
    }
}
BENCHMARK(BM_UnionFindDecode_d13);

} // namespace

HETARCH_BENCH_MAIN(
    "Fig. 6: d=13 surface code, data vs ancilla coherence scaling",
    hetarch::dse::fig6SurfaceAlpha(hetarch::bench::runScale()))
