#include "workloads.hh"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <utility>

#include "core/rng.hh"
#include "core/units.hh"
#include "distill/module_sim.hh"
#include "dse/builder_registry.hh"
#include "exec/thread_pool.hh"
#include "lint/dataflow.hh"
#include "lint/faults.hh"
#include "lint/lint.hh"
#include "lint/schedule.hh"
#include "lint/timing_model.hh"
#include "obs/obs.hh"
#include "qec/decoder_cache.hh"
#include "qec/memory_experiment.hh"
#include "qec/sliding_window.hh"
#include "qec/stream_experiment.hh"
#include "qec/surface_circuit.hh"
#include "service/job_service.hh"
#include "service/wire.hh"
#include "stab/circuit_io.hh"
#include "stab/dem.hh"
#include "stab/frame.hh"
#include "stats.hh"
#include "trace.hh"

namespace mcbench {

using namespace hetarch;

namespace {

using Clock = std::chrono::steady_clock;

/** Mode of a timed loop's repetition (see mcLoop). */
enum class LoopMode
{
    Untraced,
    Traced,
    OneWorker,
};

/** Mode of repetition @p rep: cycles through all three when tracing. */
LoopMode
loopMode(const Tracer& tr, std::size_t rep)
{
    return tr.enabled() ? static_cast<LoopMode>(rep % 3) : LoopMode::Untraced;
}

/** Cold set-ups per untraced Monte-Carlo run; setup_s is their median. */
constexpr std::size_t kSetupReps = 20;
/** Fewest repetitions (or sweep passes) a timed loop runs. */
constexpr std::size_t kMinReps = 3;
/**
 * Share of --seconds a traced run spends in the workload loop, which
 * cycles untraced, traced and 1-worker repetitions (see mcLoop).
 */
constexpr double kTracedLoopShare = 0.6;
/** z of every statistical check (false-alarm rate ~6e-5 per check). */
constexpr double kCheckZ = 4.0;
/** Decode window of the streaming layer measurements. */
constexpr std::size_t kWindow = 7;
constexpr std::size_t kCommit = 3;
/**
 * Service-sweep passes per session (see serviceLoop): few enough that
 * a session's new cache entries stay below the caches' capacity.
 */
constexpr std::size_t kPassesPerSession = 4;
/** Alternations of whole-buffer and chunked stages in a traced run. */
constexpr std::size_t kStagePairs = 3;
/** Blocks timed per streaming layer probe (p99 keeps >= 10 beyond). */
constexpr std::size_t kStreamBlocks = 1100;
/** Service-sweep job sizes (see README.md for the resulting mix). */
constexpr double kSweepPointShots = 256;
constexpr double kDistillTrajectories = 8;
constexpr double kDistillHorizonUs = 3000;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

qec::CircuitNoise
makeNoise(double p1, double p2, double t_us)
{
    qec::CircuitNoise n;
    n.p1 = p1;
    n.p2 = p2;
    n.dataT1 = n.dataT2 = n.ancT1 = n.ancT2 = t_us * units::us;
    return n;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::uint64_t
counterValue(const obs::Snapshot& snap, const std::string& name)
{
    for (const auto& [key, value] : snap.counters)
        if (key == name)
            return value;
    return 0;
}

obs::Snapshot
snapshot()
{
    return obs::Registry::instance().snapshot();
}

double
counterDelta(const obs::Snapshot& before, const obs::Snapshot& after,
             const std::string& name)
{
    return static_cast<double>(counterValue(after, name) -
                               counterValue(before, name));
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Deterministic obs counters recorded per workload (exact counts). */
const char* const kCounters[] = {
    "stab.sampler.noise_words",   "qec.decode.trivial_shots",
    "qec.stream.lane_decodes",    "qec.decoder_cache.hits",
    "qec.decoder_cache.misses",   "lint.sched.cache_hits",
    "lint.sched.cache_misses",    "lint.flow.cache_hits",
    "lint.flow.cache_misses",
};

void
addCounterDeltas(const obs::Snapshot& before, const obs::Snapshot& after,
                 std::vector<Metric>& out)
{
    for (const char* name : kCounters) {
        out.push_back({std::string("counter.") + name,
                       counterDelta(before, after, name), "count"});
    }
}

// --- Monte-Carlo layer decomposition --------------------------------------

/**
 * Time each pipeline stage of one evaluation point through its public
 * entry point, on @p circuit: set-up (compile, DEM, decoder set-up),
 * whole-buffer sampling, decode of the sampled buffer and the chunked
 * 1-worker experiment (kStagePairs times each; medians are reported),
 * the sampler's tape/replay split, and the streaming
 * path (DetectorStream::next and SlidingWindowDecoder::pushBlock per
 * block, then the paired producer/consumer for backpressure).
 */
void
decomposePipeline(const stab::Circuit& circuit, std::size_t rounds,
                  std::size_t shots, std::uint64_t seed, Tracer& tr,
                  RunReport& report)
{
    const auto kind = qec::DecoderKind::UnionFind;
    qec::DecoderCache::instance().get(circuit, kind); // warm, as in a run
    const std::size_t firstSpan = tr.spans().size();

    std::shared_ptr<const qec::DecoderSetup> setup;
    {
        tr.newOp();
        ScopedSpan op(tr, "bench.setup");
        {
            ScopedSpan s(tr, "stab.compile");
            stab::FrameProgram::compile(circuit);
        }
        {
            ScopedSpan s(tr, "stab.dem");
            stab::buildDetectorErrorModel(circuit);
        }
        ScopedSpan s(tr, "qec.setup");
        setup = qec::DecoderSetup::build(circuit, kind);
    }

    // Whole-buffer sample and decode, then the chunked experiment on the
    // same shots, alternated kStagePairs times at 1 worker so that drift
    // in machine speed cancels from the chunking overhead.  The counter
    // ratios come from the first pair.
    exec::setThreadCount(1);
    double noiseWords = 0.0, trivial = 0.0;
    for (std::size_t i = 0; i < kStagePairs; ++i) {
        stab::DetectorSamples samples;
        const obs::Snapshot s0 = snapshot();
        {
            tr.newOp();
            ScopedSpan op(tr, "bench.sample");
            ScopedSpan s(tr, "stab.sample");
            Rng rng(seed);
            samples = stab::FrameSimulator(setup->program).sampleDetectors(shots, rng);
        }
        const obs::Snapshot s1 = snapshot();
        {
            tr.newOp();
            ScopedSpan op(tr, "bench.decode");
            ScopedSpan s(tr, "qec.decode");
            qec::countLogicalFailures(*setup, kind, samples);
        }
        const obs::Snapshot s2 = snapshot();
        {
            tr.newOp();
            ScopedSpan op(tr, "bench.chunked_1worker");
            ScopedSpan s(tr, "qec.memory_experiment");
            Rng rng(seed);
            qec::runMemoryExperiment(circuit, shots, rounds, kind, rng);
        }
        if (i == 0) {
            noiseWords = counterDelta(s0, s1, "stab.sampler.noise_words");
            trivial = counterDelta(s1, s2, "qec.decode.trivial_shots");
        }
    }
    {
        tr.newOp();
        ScopedSpan op(tr, "bench.tape_replay");
        const stab::FrameProgram& prog = *setup->program;
        stab::FrameBlockScratch scratch;
        Rng rng(seed);
        const std::size_t words = (shots + 63) / 64;
        for (std::size_t done = 0; done < words;) {
            const std::size_t w =
                std::min(stab::frameBlockWords(), words - done);
            {
                ScopedSpan s(tr, "stab.tape");
                prog.resolveNoiseTape(scratch, w, rng);
            }
            ScopedSpan s(tr, "stab.replay");
            prog.replayBlock(scratch);
            done += w;
        }
    }
    exec::setThreadCount(kWorkers);

    // Streaming path, block by block, on one thread.
    const std::size_t slices = setup->program->numSlices();
    const std::size_t streamShots =
        64 * ((kStreamBlocks + slices - 1) / slices);
    {
        tr.newOp();
        ScopedSpan op(tr, "bench.stream_blocks");
        stab::DetectorStream stream(setup->program, streamShots);
        qec::SlidingWindowDecoder decoder(*setup, kind, {kWindow, kCommit});
        stab::SyndromeBlock block;
        Rng rng(seed);
        for (;;) {
            bool more = false;
            {
                ScopedSpan s(tr, "stab.stream_next");
                more = stream.next(rng, block);
            }
            if (!more)
                break;
            if (block.slice == 0)
                decoder.beginBatch(block.lanes);
            {
                ScopedSpan s(tr, "qec.window_push");
                decoder.pushBlock(block);
            }
            if (block.lastSliceOfBatch) {
                ScopedSpan s(tr, "qec.window_finish");
                decoder.finishBatch();
            }
        }
    }

    // Paired producer/consumer: backpressure and re-decode waste.
    qec::StreamingResult paired;
    obs::setTimingEnabled(true);
    {
        tr.newOp();
        ScopedSpan op(tr, "bench.stream_pair");
        ScopedSpan s(tr, "qec.stream_experiment");
        qec::StreamConfig config;
        config.windowRounds = kWindow;
        config.commitRounds = kCommit;
        Rng rng(seed);
        paired = qec::runStreamingMemoryExperiment(circuit, shots, rounds,
                                                   kind, rng, config);
    }
    obs::setTimingEnabled(false);

    const std::vector<Span> spans(tr.spans().begin() + firstSpan,
                                  tr.spans().end());
    const double n = static_cast<double>(shots);
    const auto sample = durationsNs(spans, "stab.sample");
    const auto decode = durationsNs(spans, "qec.decode");
    const auto chunked = durationsNs(spans, "qec.memory_experiment");
    std::vector<double> wholeShare;
    for (std::size_t i = 0; i < kStagePairs; ++i)
        wholeShare.push_back((sample[i] + decode[i]) / chunked[i]);
    const double sampleNs = median(sample);
    const double decodeNs = median(decode);
    report.perLayer.push_back({"stab.compile_ms", totalNs(spans, "stab.compile") / 1e6, "ms"});
    report.perLayer.push_back({"stab.dem_ms", totalNs(spans, "stab.dem") / 1e6, "ms"});
    report.perLayer.push_back({"qec.setup_ms", totalNs(spans, "qec.setup") / 1e6, "ms"});
    report.perLayer.push_back({"stab.sample_us_per_shot", sampleNs / 1e3 / n, "us"});
    report.perLayer.push_back({"stab.tape_us_per_shot", totalNs(spans, "stab.tape") / 1e3 / n, "us"});
    report.perLayer.push_back({"stab.replay_us_per_shot", totalNs(spans, "stab.replay") / 1e3 / n, "us"});
    report.perLayer.push_back({"stab.noise_words_per_shot", noiseWords / n, "count"});
    report.perLayer.push_back({"qec.decode_us_per_shot", decodeNs / 1e3 / n, "us"});
    report.perLayer.push_back({"qec.decode_us_per_nontrivial_shot",
                   ratio(decodeNs / 1e3, n - trivial), "us"});
    report.perLayer.push_back({"qec.trivial_share", trivial / n, "share"});
    report.perLayer.push_back({"exec.chunk_overhead_share", 1.0 - median(wholeShare),
                   "share"});

    for (const char* name : {"stab.stream_next", "qec.window_push"}) {
        const Percentiles p = summarize(durationsNs(spans, name));
        const std::string metric = std::string(name) + "_us";
        report.notes.push_back(metric + " per block: " + describe(p, "ns"));
        // p99 is declared, so it must have ten samples beyond it.
        report.checks.push_back(countEquals(
            metric + " has >= 10 samples beyond p99",
            p.highPercentile >= 99.0, 1));
        report.perLayer.push_back({metric + ".p50", p.median / 1e3, "us"});
        report.perLayer.push_back({metric + ".p99", p.high / 1e3, "us"});
    }
    report.perLayer.push_back({"qec.lane_decodes_per_committed_round",
                   ratio(static_cast<double>(paired.laneDecodes),
                         static_cast<double>(paired.committedRounds)),
                   "count"});
    report.perLayer.push_back({"exec.backpressure_wait_share",
                   ratio(static_cast<double>(paired.backpressureWaitNs),
                         totalNs(spans, "qec.stream_experiment")),
                   "share"});
}

/**
 * Self time per layer (bench is the benchmark's own loop).  These are
 * every layer the traced run records spans for.
 */
void
addSelfTimes(const Tracer& tr, std::vector<Metric>& out)
{
    const auto self = layerSelfNs(tr.spans());
    for (const char* layer : {"bench", "stab", "qec", "service", "lint", "distill"}) {
        const auto it = self.find(layer);
        out.push_back({std::string(layer) + ".self_ms",
                       it == self.end() ? 0.0 : it->second / 1e6, "ms"});
    }
}

/**
 * Metrics of a traced run's workload loop (between snapshots @p before
 * and @p after): decoder-cache hit share, scaling efficiency against
 * the 1-worker throughput @p one_worker, and tracing overhead.
 */
void
addLoopMetrics(const obs::Snapshot& before, const obs::Snapshot& after,
               double untraced, double traced, double one_worker,
               const std::string& throughput, RunReport& report)
{
    const double hits = counterDelta(before, after, "qec.decoder_cache.hits");
    const double gets =
        hits + counterDelta(before, after, "qec.decoder_cache.misses");
    report.perLayer.push_back({"qec.cache_hit_share", ratio(hits, gets), "share"});
    report.perLayer.push_back({"exec.scaling_efficiency",
                               untraced / (kWorkers * one_worker), "share"});
    report.perLayer.push_back(
        {"trace.overhead_share", 1.0 - traced / untraced, "share"});
    report.notes.push_back("traced " + throughput + " minus untraced: " +
                           std::to_string(traced - untraced) + " 1/s");
}

// --- Monte-Carlo workloads -------------------------------------------------

struct McRep
{
    double seconds = 0.0;
    std::size_t shots = 0;
    std::size_t failures = 0;
    std::size_t peakRounds = 0;
    bool traced = false;
    bool oneWorker = false;
};

McRep
runMcRep(const stab::Circuit& circuit, const WorkloadDef& def,
         std::uint64_t seed, bool whole_buffer, Tracer& tr)
{
    const McShape& s = def.shape;
    const auto kind = qec::DecoderKind::UnionFind;
    McRep rep;
    rep.shots = s.shotsPerRep;
    Rng rng(seed);
    const auto t0 = Clock::now();
    if (def.kind == WorkloadKind::Memory) {
        ScopedSpan span(tr, "qec.memory_experiment");
        rep.failures = qec::runMemoryExperiment(circuit, s.shotsPerRep,
                                                s.rounds, kind, rng)
                           .failures;
    } else {
        ScopedSpan span(tr, "qec.stream_experiment");
        qec::StreamConfig config;
        if (!whole_buffer) {
            config.windowRounds = s.window;
            config.commitRounds = s.commit;
        }
        const auto r = qec::runStreamingMemoryExperiment(
            circuit, s.shotsPerRep, s.rounds, kind, rng, config);
        rep.failures = r.memory.failures;
        rep.peakRounds = r.peakStoredRounds;
    }
    rep.seconds = secondsSince(t0);
    return rep;
}

/** Circuit build plus a cold decoder-cache get, in seconds. */
double
coldSetup(const McShape& s, stab::Circuit& circuit)
{
    qec::DecoderCache::instance().clear();
    const auto t0 = Clock::now();
    circuit = qec::surfaceMemoryZ(s.distance, s.rounds, s.noise);
    qec::DecoderCache::instance().get(circuit, qec::DecoderKind::UnionFind);
    return secondsSince(t0);
}

/**
 * Repeat the workload operation at fresh seeds for @p seconds.  When
 * @p tr is enabled the repetitions cycle through untraced, traced
 * (recorded on @p tr) and untraced at 1 worker, so that drift in
 * machine speed cancels from the tracing overhead and the scaling
 * efficiency.
 */
std::vector<McRep>
mcLoop(const stab::Circuit& circuit, const WorkloadDef& def,
       std::uint64_t seed, std::size_t& next_rep, double seconds,
       Tracer& tr)
{
    std::vector<McRep> reps;
    Tracer off(false);
    const auto t0 = Clock::now();
    do {
        const LoopMode mode = loopMode(tr, reps.size());
        Tracer& t = mode == LoopMode::Traced ? tr : off;
        exec::setThreadCount(mode == LoopMode::OneWorker ? 1 : kWorkers);
        t.newOp();
        {
            ScopedSpan op(t, "bench.rep");
            reps.push_back(
                runMcRep(circuit, def, repSeed(seed, next_rep++), false, t));
        }
        reps.back().traced = mode == LoopMode::Traced;
        reps.back().oneWorker = mode == LoopMode::OneWorker;
    } while (secondsSince(t0) < seconds || reps.size() < kMinReps);
    exec::setThreadCount(kWorkers);
    return reps;
}

/** Median shots per second of the @p reps in @p traced / @p one_worker mode. */
double
medianShotsPerS(const std::vector<McRep>& reps, bool traced, bool one_worker)
{
    std::vector<double> v;
    for (const McRep& r : reps)
        if (r.traced == traced && r.oneWorker == one_worker)
            v.push_back(static_cast<double>(r.shots) / r.seconds);
    return median(v);
}

double
medianOpsPerS(const std::vector<McRep>& reps)
{
    std::vector<double> v;
    for (const McRep& r : reps)
        v.push_back(1.0 / r.seconds);
    return median(v);
}

std::size_t
perturbCount(std::size_t k, std::size_t n)
{
    return std::min(n, k + std::max<std::size_t>(k / 2, 50));
}

void
checkMc(const stab::Circuit& circuit, const WorkloadDef& def,
        std::uint64_t seed, const std::vector<McRep>& reps, Tracer& tr,
        RunReport& report)
{
    const McShape& s = def.shape;
    std::size_t shots = 0, failures = 0;
    for (const McRep& r : reps) {
        shots += r.shots;
        failures += r.failures;
    }
    report.notes.push_back("logical failures " + std::to_string(failures) +
                           " of " + std::to_string(shots) + " shots");
    tr.newOp();
    ScopedSpan op(tr, "bench.checks");
    if (def.kind == WorkloadKind::Memory) {
        const auto check = [&](std::size_t k) {
            return rateMatchesReference(
                "logical error rate within Wilson interval of reference", k,
                shots, s.refFailures, s.refShots, kCheckZ);
        };
        report.checks.push_back(check(failures));
        report.checks.push_back(
            expectFailure(check(perturbCount(failures, shots))));
    }
    if (def.name == "mem-d13-lowp") {
        // The failure count is ~0 here, so also check the sampler
        // against the DEM's predicted detector firing rate.
        const auto setup = qec::DecoderCache::instance().get(
            circuit, qec::DecoderKind::UnionFind);
        const std::size_t n = 16384;
        Rng rng(repSeed(seed, ~std::size_t{0}));
        stab::DetectorSamples samples;
        {
            ScopedSpan span(tr, "stab.sample");
            samples = stab::FrameSimulator(setup->program).sampleDetectors(n, rng);
        }
        double fired = 0.0;
        for (std::uint64_t w : samples.detWords)
            fired += static_cast<double>(std::popcount(w));
        const double expected = expectedFiredPerShot(setup->dem);
        const auto check = [&](double total) {
            return detectorRateMatches(
                "mean fired detectors per shot matches DEM prediction",
                total, n, expected, 0.02, kCheckZ);
        };
        report.checks.push_back(check(fired));
        report.checks.push_back(expectFailure(check(fired * 1.1)));
    }
    if (def.kind == WorkloadKind::Stream) {
        const auto peakCheck = [&](std::size_t first_peak) {
            std::size_t ok = first_peak == s.window;
            for (std::size_t i = 1; i < reps.size(); ++i)
                ok += reps[i].peakRounds == s.window;
            return countEquals("reps with peakStoredRounds == window", ok,
                               reps.size());
        };
        report.checks.push_back(peakCheck(reps.front().peakRounds));
        report.checks.push_back(
            expectFailure(peakCheck(reps.front().peakRounds + 1)));

        // Whole-buffer decode of the first reps' identical shots.
        const std::size_t k = std::min<std::size_t>(reps.size(), 4);
        std::size_t windowed = 0, whole = 0, n = 0;
        for (std::size_t i = 0; i < k; ++i) {
            windowed += reps[i].failures;
            n += reps[i].shots;
            whole += runMcRep(circuit, def, repSeed(seed, i), true, tr).failures;
        }
        const auto check = [&](std::size_t w) {
            return windowedMatchesWhole(
                "windowed LER within margin of whole-buffer LER", w, whole, n,
                0.25, kCheckZ);
        };
        report.checks.push_back(check(windowed));
        report.checks.push_back(expectFailure(check(perturbCount(windowed, n))));
    }
}

// --- service sweep ---------------------------------------------------------

struct PassOut
{
    bool traced = false;
    bool oneWorker = false;
    double setupSeconds = 0.0;
    double drainSeconds = 0.0;
    double runnerSeconds = 0.0; ///< inside the runners (time_runners)
    std::size_t jobs = 0;
    std::size_t shots = 0;
    std::size_t done = 0;
    std::vector<service::JobStatus> statuses;
};

/**
 * Parse, submit and drain one sweep pass through a fresh service.  With
 * @p time_runners (only at @p max_concurrent 1, where every job runs on
 * this thread) each builtin runner is wrapped in a span and the time
 * inside runners is summed.
 */
PassOut
runPass(std::uint64_t seed, std::size_t pass, std::size_t max_concurrent,
        Tracer& tr, bool time_runners = false)
{
    const auto lines = sweepRequestLines(seed, pass);
    service::ServiceConfig config;
    config.autoStart = false;
    config.maxQueued = lines.size() + 1;
    config.maxConcurrent = max_concurrent;

    tr.newOp();
    ScopedSpan op(tr, "bench.pass");
    PassOut out;
    // Set-up: service start plus parsing the pass's request lines.
    const auto t_setup = Clock::now();
    service::JobService jobs(config);
    if (time_runners) {
        using service::JobKind;
        for (JobKind kind : {JobKind::Memory, JobKind::Stream, JobKind::SweepPoint,
                             JobKind::Distill, JobKind::Analysis}) {
            jobs.setRunner(kind, [&tr, &out, kind](const service::JobSpec& spec,
                                                  service::JobContext& ctx) {
                const auto t0 = Clock::now();
                ScopedSpan s(tr, std::string("service.runner.") +
                                     service::jobKindName(kind));
                auto result = service::builtinRunner(kind)(spec, ctx);
                out.runnerSeconds += secondsSince(t0);
                return result;
            });
        }
    }
    std::vector<service::Request> requests(lines.size());
    std::vector<char> parsed(lines.size());
    std::string error;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        ScopedSpan s(tr, "service.parse");
        parsed[i] = service::parseRequestLine(lines[i], requests[i], error);
    }
    out.setupSeconds = secondsSince(t_setup);

    std::vector<service::JobId> ids;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        ++out.jobs;
        if (!parsed[i])
            continue;
        ScopedSpan s(tr, "service.submit");
        const auto outcome = jobs.submit(requests[i].job);
        if (outcome.accepted())
            ids.push_back(outcome.id);
    }
    const auto t0 = Clock::now();
    {
        ScopedSpan s(tr, "service.drain");
        jobs.drain();
    }
    out.drainSeconds = secondsSince(t0);
    for (service::JobId id : ids) {
        service::JobStatus status;
        jobs.status(id, status);
        out.done += status.state == service::JobState::Done;
        if (const auto* shots = status.result.find("shots"))
            out.shots += shots->u64;
        out.statuses.push_back(std::move(status));
    }
    return out;
}

/**
 * Sweep passes for @p seconds, in the modes of mcLoop.  The passes form
 * sessions of kPassesPerSession: the process-wide setup and lint caches
 * are cleared when a session starts, so its first pass misses them and
 * its later passes hit them, and the caches never fill up to their
 * capacity.  Only the first pass keeps its job statuses (the checks
 * compare them with direct calls).  Both keep peak memory independent
 * of how many passes fit in the run.
 */
std::vector<PassOut>
serviceLoop(std::uint64_t seed, std::size_t& next_pass, double seconds,
            Tracer& tr)
{
    std::vector<PassOut> passes;
    Tracer off(false);
    const auto t0 = Clock::now();
    do {
        if (passes.size() % kPassesPerSession == 0) {
            qec::DecoderCache::instance().clear();
            lint::sched::ScheduleCache::instance().clear();
            lint::flow::FlowCache::instance().clear();
        }
        const LoopMode mode = loopMode(tr, passes.size());
        exec::setThreadCount(mode == LoopMode::OneWorker ? 1 : kWorkers);
        passes.push_back(runPass(seed, next_pass++, kWorkers,
                                 mode == LoopMode::Traced ? tr : off));
        passes.back().traced = mode == LoopMode::Traced;
        passes.back().oneWorker = mode == LoopMode::OneWorker;
        if (passes.size() > 1)
            std::vector<service::JobStatus>().swap(passes.back().statuses);
    } while (secondsSince(t0) < seconds || passes.size() < kMinReps);
    exec::setThreadCount(kWorkers);
    return passes;
}

/** Median jobs per second of drain of the @p passes in the given mode. */
double
medianJobsPerS(const std::vector<PassOut>& passes, bool traced,
               bool one_worker)
{
    std::vector<double> v;
    for (const PassOut& p : passes)
        if (p.traced == traced && p.oneWorker == one_worker)
            v.push_back(static_cast<double>(p.jobs) / p.drainSeconds);
    return median(v);
}

double
medianSweepShotsPerS(const std::vector<PassOut>& passes)
{
    std::vector<double> v;
    for (const PassOut& p : passes)
        v.push_back(static_cast<double>(p.shots) / p.drainSeconds);
    return median(v);
}

std::size_t
sizeParam(const service::JobSpec& spec, const char* key)
{
    return static_cast<std::size_t>(spec.numberOr(key, 0));
}

/**
 * What the job's runner must report, computed by calling the library
 * directly (no service, no caches) with the job's seed.  Only fields
 * named here are compared, so runners may grow new fields.
 */
service::JobResult
directResult(const service::JobSpec& spec, Tracer& tr)
{
    using service::JobKind;
    service::JobResult r;
    qec::CircuitNoise noise;
    noise.p1 = spec.numberOr("p1", noise.p1);
    noise.p2 = spec.numberOr("p2", noise.p2);
    const std::size_t d = sizeParam(spec, "distance");
    const std::size_t rounds = sizeParam(spec, "rounds");
    const std::size_t shots = sizeParam(spec, "shots");
    switch (spec.kind) {
    case JobKind::Memory: {
        ScopedSpan s(tr, "qec.memory_experiment");
        Rng rng(spec.seed);
        const auto m = qec::runMemoryExperiment(
            qec::surfaceMemoryZ(d, rounds, noise), shots, rounds,
            qec::DecoderKind::UnionFind, rng);
        r.addU64("shots", m.shots);
        r.addU64("failures", m.failures);
        r.addReal("per_round", m.perRound());
        break;
    }
    case JobKind::SweepPoint: {
        ScopedSpan s(tr, "qec.logical_error_per_round");
        r.addReal("per_round", qec::surfaceLogicalErrorPerRound(
                                   d, rounds, noise, shots, spec.seed));
        break;
    }
    case JobKind::Distill: {
        ScopedSpan s(tr, "distill.ensemble");
        distill::DistillConfig config;
        config.seed = spec.seed;
        const auto e = distill::simulateDistillationEnsemble(
            config, spec.numberOr("horizon_us", 1) * 1000.0,
            sizeParam(spec, "trajectories"));
        r.addU64("distilled", e.totalDistilled());
        r.addU64("attempts", e.totalAttempts());
        r.addReal("rate_per_ms", e.meanDistilledRatePerMs());
        break;
    }
    case JobKind::Analysis: {
        const auto* builder = spec.find("builder");
        const stab::Circuit circuit =
            builder != nullptr ? dse::findBuilder(builder->text)->make()
                               : stab::parseCircuit(spec.find("circuit")->text);
        lint::LintReport lint;
        {
            ScopedSpan s(tr, "lint.lint");
            lint = lint::lintCircuit(circuit);
        }
        r.addU64("errors", lint.errorCount());
        r.addU64("warnings", lint.warningCount());
        lint::FaultAnalysis faults;
        const bool withFaults = lint.clean();
        if (withFaults) {
            ScopedSpan s(tr, "lint.faults");
            faults = lint::analyzeCircuitFaults(circuit);
        }
        if (withFaults && faults.minDistance() != lint::kInfiniteDistance)
            r.addU64("min_distance", faults.minDistance());
        const auto timing =
            lint::sched::TimingModel::unit(circuit.numQubits());
        {
            ScopedSpan s(tr, "lint.sched");
            r.addReal("critical_path_ns",
                      lint::sched::analyzeSchedule(circuit, timing)
                          .criticalPathNs);
        }
        lint::flow::FlowOptions options;
        if (withFaults) {
            options.faults = &faults;
            options.gateBudget = true;
        }
        ScopedSpan s(tr, "lint.flow");
        const auto flow = lint::flow::analyzeFlow(circuit, timing, options);
        r.addU64("flow_peak_storage", flow.peakStorageOccupancy);
        if (withFaults)
            r.addReal("flow_budget", flow.maxBudget());
        break;
    }
    case JobKind::Stream:
        break;
    }
    return r;
}

/** Every field of @p want is present in @p got with an equal value. */
bool
resultCovers(const service::JobResult& got, const service::JobResult& want)
{
    for (const auto& [key, value] : want.fields) {
        const auto* have = got.find(key);
        if (have == nullptr || !(*have == value))
            return false;
    }
    return true;
}

Check
serviceMatchesDirect(const PassOut& pass,
                     const std::vector<service::JobResult>& direct)
{
    std::size_t same = 0;
    for (std::size_t i = 0; i < pass.statuses.size() && i < direct.size(); ++i)
        same += pass.statuses[i].state == service::JobState::Done &&
                resultCovers(pass.statuses[i].result, direct[i]);
    return countEquals("service results bit-identical to direct API calls",
                       same, pass.jobs);
}

/** Direct library calls on the specs of @p pass, in pass order. */
std::vector<service::JobResult>
directResults(const PassOut& pass, Tracer& tr)
{
    tr.newOp();
    ScopedSpan op(tr, "bench.direct");
    std::vector<service::JobResult> direct;
    for (const auto& status : pass.statuses)
        direct.push_back(directResult(status.spec, tr));
    return direct;
}

/** @p direct: directResults() of passes.front(). */
void
checkService(const std::vector<PassOut>& passes,
             const std::vector<service::JobResult>& direct,
             RunReport& report)
{
    std::size_t jobs = 0, done = 0;
    for (const PassOut& p : passes) {
        jobs += p.jobs;
        done += p.done;
    }
    report.checks.push_back(countEquals("every sweep job done", done, jobs));
    report.checks.push_back(
        expectFailure(countEquals("every sweep job done", done - 1, jobs)));

    const PassOut& first = passes.front();
    report.checks.push_back(serviceMatchesDirect(first, direct));

    // Perturb one deterministic count of a memory job's result.
    PassOut perturbed = first;
    for (auto& status : perturbed.statuses) {
        if (status.spec.kind != service::JobKind::Memory)
            continue;
        for (auto& [key, value] : status.result.fields)
            if (key == "failures")
                value.u64 += 1;
        break;
    }
    report.checks.push_back(
        expectFailure(serviceMatchesDirect(perturbed, direct)));
}

struct ServiceProbe
{
    std::vector<PassOut> passes;            ///< through a fresh service
    std::vector<service::JobResult> direct; ///< directResults(passes[0])
};

/**
 * Time the service, lint and distill layers on sweep passes of run
 * @p seed: two passes through a fresh service (the registry's lint
 * caches miss on the first and hit on the second), direct library
 * calls on the first pass's specs, and a third pass (same structure,
 * equally cold) drained one job at a time with its runners timed.
 * Every traced run does this, so every traced run reports
 * these layers; only service-sweep's jobs_per_s depends on them.
 */
ServiceProbe
decomposeService(std::uint64_t seed, std::size_t& next_pass, Tracer& tr,
                 RunReport& report)
{
    const std::size_t firstSpan = tr.spans().size();
    ServiceProbe probe;
    const obs::Snapshot c0 = snapshot();
    probe.passes.push_back(runPass(seed, next_pass++, kWorkers, tr));
    probe.passes.push_back(runPass(seed, next_pass++, kWorkers, tr));
    const obs::Snapshot c1 = snapshot();
    probe.direct = directResults(probe.passes.front(), tr);

    const PassOut serial = runPass(seed, next_pass++, 1, tr, true);

    const std::vector<Span> spans(tr.spans().begin() + firstSpan,
                                  tr.spans().end());
    auto& out = report.perLayer;
    for (const char* name : {"service.parse", "service.submit"}) {
        const Percentiles p = summarize(durationsNs(spans, name));
        out.push_back({std::string(name) + "_us", p.median / 1e3, "us"});
        report.notes.push_back(std::string(name) + "_us " + describe(p, "ns"));
    }
    const auto mean = [&](const std::string& name) {
        const auto d = durationsNs(spans, name);
        return ratio(totalNs(spans, name) / 1e6, static_cast<double>(d.size()));
    };
    for (const std::string kind : {"memory", "sweep-point", "analysis", "distill"}) {
        out.push_back({"service.runner_ms." + kind,
                       mean("service.runner." + kind), "ms"});
    }
    out.push_back({"service.dispatch_overhead_share",
                   1.0 - serial.runnerSeconds / serial.drainSeconds, "share"});
    out.push_back({"lint.lint_ms", mean("lint.lint"), "ms"});
    out.push_back({"lint.faults_ms", mean("lint.faults"), "ms"});
    out.push_back({"lint.sched_ms", mean("lint.sched"), "ms"});
    out.push_back({"lint.flow_ms", mean("lint.flow"), "ms"});
    const double lintHits = counterDelta(c0, c1, "lint.sched.cache_hits") +
                            counterDelta(c0, c1, "lint.flow.cache_hits");
    const double lintMisses = counterDelta(c0, c1, "lint.sched.cache_misses") +
                              counterDelta(c0, c1, "lint.flow.cache_misses");
    out.push_back({"lint.cache_hit_share",
                   ratio(lintHits, lintHits + lintMisses), "share"});
    out.push_back({"distill.ensemble_ms", mean("distill.ensemble"), "ms"});
    return probe;
}

RunReport
runMc(const WorkloadDef& def, const RunOptions& opt)
{
    const McShape& s = def.shape;
    RunReport report;
    exec::setThreadCount(kWorkers);
    Tracer tr(opt.trace);
    stab::Circuit circuit;
    std::size_t next_rep = 0;
    std::vector<McRep> reps;
    if (!opt.trace) {
        // Set-ups before the loop, so their count (which moves peak RSS
        // through the allocator) does not depend on machine speed.
        std::vector<double> setupS;
        for (std::size_t i = 0; i < kSetupReps; ++i)
            setupS.push_back(coldSetup(s, circuit));
        reps = mcLoop(circuit, def, opt.seed, next_rep, opt.seconds, tr);
        std::vector<double> perRep;
        for (const McRep& r : reps)
            perRep.push_back(static_cast<double>(r.shots) / r.seconds);
        const Percentiles rate = summarize(perRep);
        const Percentiles setup = summarize(setupS);
        report.notes.push_back("shots_per_s over reps: " + describe(rate, "1/s"));
        report.notes.push_back("setup_s over set-ups: " + describe(setup, "s"));
        report.endToEnd = {
            {"setup_s", setup.median, "s"},
            {"shots_per_s", rate.median, "1/s"},
            {"jobs_per_s", medianOpsPerS(reps), "1/s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
        };
    } else {
        coldSetup(s, circuit);
        const obs::Snapshot c0 = snapshot();
        decomposePipeline(circuit, s.rounds, s.shotsPerRep,
                          repSeed(opt.seed, 1u << 30), tr, report);
        addCounterDeltas(c0, snapshot(), report.perLayer);
        std::size_t next_pass = 0;
        for (const PassOut& p : decomposeService(opt.seed, next_pass, tr, report).passes) {
            report.attempted += p.jobs;
            report.failed += p.jobs - p.done;
        }

        const obs::Snapshot h0 = snapshot();
        reps = mcLoop(circuit, def, opt.seed, next_rep,
                      opt.seconds * kTracedLoopShare, tr);
        const obs::Snapshot h1 = snapshot();
        addLoopMetrics(h0, h1, medianShotsPerS(reps, false, false),
                       medianShotsPerS(reps, true, false),
                       medianShotsPerS(reps, false, true), "shots_per_s",
                       report);
    }
    report.attempted += reps.size();
    checkMc(circuit, def, opt.seed, reps, tr, report);
    if (opt.trace)
        addSelfTimes(tr, report.perLayer);
    if (!opt.traceOut.empty() && opt.trace &&
        !writeChromeTrace(opt.traceOut, tr.spans(), "mcbench " + def.name))
        report.notes.push_back("warning: cannot write " + opt.traceOut);
    return report;
}

RunReport
runService(const WorkloadDef& def, const RunOptions& opt)
{
    RunReport report;
    exec::setThreadCount(kWorkers);
    Tracer tr(opt.trace);

    std::size_t next_pass = 0;
    std::vector<PassOut> passes;
    std::vector<service::JobResult> direct;
    if (!opt.trace) {
        passes = serviceLoop(opt.seed, next_pass, opt.seconds, tr);
        std::vector<double> setupS, perPass;
        for (const PassOut& p : passes) {
            setupS.push_back(p.setupSeconds);
            perPass.push_back(static_cast<double>(p.jobs) / p.drainSeconds);
        }
        const Percentiles rate = summarize(perPass);
        const Percentiles setup = summarize(setupS);
        report.notes.push_back("jobs_per_s over passes: " + describe(rate, "1/s"));
        report.notes.push_back("setup_s over passes: " + describe(setup, "s"));
        report.endToEnd = {
            {"setup_s", setup.median, "s"},
            {"shots_per_s", medianSweepShotsPerS(passes), "1/s"},
            {"jobs_per_s", rate.median, "1/s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
        };
    } else {
        const obs::Snapshot c0 = snapshot();
        // Pipeline layers on the sweep's largest point shape.
        decomposePipeline(qec::surfaceMemoryZ(9, 9, makeNoise(6e-4, 6e-3, 100)),
                          9, 4096, repSeed(opt.seed, 1u << 30), tr, report);
        ServiceProbe probe = decomposeService(opt.seed, next_pass, tr, report);
        addCounterDeltas(c0, snapshot(), report.perLayer);
        passes = std::move(probe.passes);
        direct = std::move(probe.direct);

        const obs::Snapshot h0 = snapshot();
        const auto loop = serviceLoop(opt.seed, next_pass,
                                      opt.seconds * kTracedLoopShare, tr);
        const obs::Snapshot h1 = snapshot();
        passes.insert(passes.end(), loop.begin(), loop.end());
        addLoopMetrics(h0, h1, medianJobsPerS(loop, false, false),
                       medianJobsPerS(loop, true, false),
                       medianJobsPerS(loop, false, true), "jobs_per_s", report);
    }
    for (const PassOut& p : passes) {
        report.attempted += p.jobs;
        report.failed += p.jobs - p.done;
    }
    if (direct.empty())
        direct = directResults(passes.front(), tr);
    checkService(passes, direct, report);
    if (opt.trace)
        addSelfTimes(tr, report.perLayer);
    if (!opt.traceOut.empty() && opt.trace &&
        !writeChromeTrace(opt.traceOut, tr.spans(), "mcbench " + def.name))
        report.notes.push_back("warning: cannot write " + opt.traceOut);
    return report;
}

} // namespace

// --- public API ----------------------------------------------------------------

const std::vector<WorkloadDef>&
workloadDefs()
{
    static const std::vector<WorkloadDef> defs = [] {
        std::vector<WorkloadDef> d;
        // Decode-heavy: fig6 noise, decode ~84% of per-shot time.
        McShape fig6;
        fig6.distance = 13;
        fig6.rounds = 13;
        fig6.noise = makeNoise(1e-3, 1e-2, 100);
        fig6.shotsPerRep = 4096;
        // Recorded with `mcbench --workload mem-d13-fig6 --seed 900001
        // --seconds 120 --trace 0`.
        fig6.refFailures = 50420;
        fig6.refShots = 610304;
        d.push_back({"mem-d13-fig6", WorkloadKind::Memory, fig6});
        // Sampler-heavy: sub-threshold storage-class noise.
        McShape lowp = fig6;
        lowp.noise = makeNoise(1e-4, 1e-3, 1000);
        lowp.shotsPerRep = 16384;
        // Recorded with `mcbench --workload mem-d13-lowp --seed 900002
        // --seconds 100 --trace 0`.
        lowp.refFailures = 0;
        lowp.refShots = 2686976;
        d.push_back({"mem-d13-lowp", WorkloadKind::Memory, lowp});
        // Streaming: per-round slices, sliding window, backpressure.
        McShape stream;
        stream.distance = 7;
        stream.rounds = 70;
        stream.noise = makeNoise(5e-4, 5e-3, 100);
        stream.shotsPerRep = 2048;
        stream.window = kWindow;
        stream.commit = kCommit;
        d.push_back({"stream-d7-w7", WorkloadKind::Stream, stream});
        d.push_back({"service-sweep", WorkloadKind::Service, {}});
        return d;
    }();
    return defs;
}

const WorkloadDef*
findWorkload(const std::string& name)
{
    for (const WorkloadDef& d : workloadDefs())
        if (d.name == name)
            return &d;
    return nullptr;
}

std::uint64_t
repSeed(std::uint64_t seed, std::size_t rep)
{
    return Rng::deriveStream(seed, rep);
}

std::vector<std::string>
sweepRequestLines(std::uint64_t seed, std::size_t pass)
{
    using service::JobKind;
    using service::JobSpec;
    using service::ParamValue;
    Rng rng(repSeed(seed, (std::size_t{1} << 40) + pass));
    std::vector<std::string> lines;
    const auto emit = [&](JobSpec spec) {
        service::Request request;
        request.type = service::RequestType::Submit;
        request.job = std::move(spec);
        lines.push_back(service::writeRequestLine(request));
    };
    const std::string tag = "-" + std::to_string(pass);

    // Sweep points: fresh p2 every pass, so every point's set-up is cold.
    for (std::size_t d : {3, 5, 7, 9}) {
        for (double p2 : {2e-3, 5e-3, 8e-3}) {
            JobSpec spec;
            spec.kind = JobKind::SweepPoint;
            spec.name = "point-d" + std::to_string(d) + tag;
            spec.seed = rng();
            const double p = p2 * (0.95 + 0.1 * rng.uniform());
            spec.add("distance", ParamValue::num(static_cast<double>(d)));
            spec.add("rounds", ParamValue::num(static_cast<double>(d)));
            spec.add("shots", ParamValue::num(kSweepPointShots));
            spec.add("p1", ParamValue::num(p / 10));
            spec.add("p2", ParamValue::num(p));
            emit(std::move(spec));
        }
    }
    // Repeat memory jobs on one circuit at new seeds: set-up cache hits.
    for (int i = 0; i < 6; ++i) {
        JobSpec spec;
        spec.kind = JobKind::Memory;
        spec.name = "repeat" + tag;
        spec.seed = rng();
        spec.add("distance", ParamValue::num(7));
        spec.add("rounds", ParamValue::num(7));
        spec.add("shots", ParamValue::num(512));
        spec.add("p1", ParamValue::num(5e-4));
        spec.add("p2", ParamValue::num(5e-3));
        emit(std::move(spec));
    }
    // Analysis of candidate circuits sent inline, at this pass's noise:
    // every lint cache misses.
    for (std::size_t d : {3, 5, 7}) {
        for (double p2 : {3e-3, 6e-3}) {
            const double p = p2 * (0.95 + 0.1 * rng.uniform());
            const auto noise = makeNoise(p / 10, p, 100);
            JobSpec spec;
            spec.kind = JobKind::Analysis;
            spec.name = "analysis-d" + std::to_string(d) + tag;
            spec.add("circuit", ParamValue::str(
                                    qec::surfaceMemoryZ(d, d, noise).toString()));
            spec.add("distance", ParamValue::num(1));
            spec.add("timing", ParamValue::num(1));
            spec.add("flow", ParamValue::num(1));
            emit(std::move(spec));
        }
    }
    // Static analysis of every registered builder: the lint caches miss
    // on the first pass and hit afterwards.
    for (const auto& builder : dse::builderRegistry()) {
        JobSpec spec;
        spec.kind = JobKind::Analysis;
        spec.name = std::string("analysis-") + builder.name + tag;
        spec.add("builder", ParamValue::str(builder.name));
        spec.add("distance", ParamValue::num(1));
        spec.add("timing", ParamValue::num(1));
        spec.add("flow", ParamValue::num(1));
        emit(std::move(spec));
    }
    for (int i = 0; i < 6; ++i) {
        JobSpec spec;
        spec.kind = JobKind::Distill;
        spec.name = "distill" + tag;
        spec.seed = rng();
        spec.add("trajectories", ParamValue::num(kDistillTrajectories));
        spec.add("horizon_us", ParamValue::num(kDistillHorizonUs));
        emit(std::move(spec));
    }
    return lines;
}

bool
RunReport::correct() const
{
    for (const Check& c : checks)
        if (!c.pass)
            return false;
    return !checks.empty();
}

RunReport
runWorkload(const WorkloadDef& def, const RunOptions& options)
{
    return def.kind == WorkloadKind::Service ? runService(def, options)
                                             : runMc(def, options);
}

} // namespace mcbench
