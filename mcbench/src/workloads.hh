/**
 * @file
 * The benchmark's workloads: input generation from a seed, the timed
 * run, the traced per-layer run, and the correctness checks.
 *
 * Every workload exercises the Monte-Carlo evaluation pipeline
 * (circuit build -> set-up -> noise tape -> replay -> decode ->
 * failure count) through the library's public entry points, with at
 * most two exec workers.  Each stresses a different layer; see
 * README.md in this directory for why each was chosen.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "checks.hh"
#include "qec/noise_model.hh"

namespace mcbench {

/** Exec workers every workload runs with. */
inline constexpr unsigned kWorkers = 2;

/** Shape of a Monte-Carlo (memory or streaming) workload. */
struct McShape
{
    std::size_t distance = 3;
    std::size_t rounds = 3;
    hetarch::qec::CircuitNoise noise;
    std::size_t shotsPerRep = 1024;
    std::size_t window = 0; ///< streaming window in rounds (0 = batch)
    std::size_t commit = 0;
    /** Recorded reference logical failures / shots at this shape. */
    std::size_t refFailures = 0;
    std::size_t refShots = 0;
};

enum class WorkloadKind
{
    Memory,  ///< qec::runMemoryExperiment, repeated at fresh seeds
    Stream,  ///< qec::runStreamingMemoryExperiment, sliding window
    Service, ///< hetarch-job-v1 sweep drained by a JobService
};

struct WorkloadDef
{
    std::string name;
    WorkloadKind kind;
    McShape shape; ///< Memory/Stream: the workload; Service: unused
};

const std::vector<WorkloadDef>& workloadDefs();
const WorkloadDef* findWorkload(const std::string& name);

/** Seed of the @p rep-th Monte-Carlo repetition of run @p seed. */
std::uint64_t repSeed(std::uint64_t seed, std::size_t rep);

/**
 * The service-sweep's request lines for sweep pass @p pass of run
 * @p seed: fresh sweep points (new p2 per pass, so each pays a cold
 * set-up), repeat memory jobs at new seeds on one circuit (setup-cache
 * hits), analysis jobs on inline candidate circuits at fresh noise
 * (lint caches miss) and over the builder registry (lint caches miss
 * on the first pass, hit afterwards), and distillation jobs.
 */
std::vector<std::string> sweepRequestLines(std::uint64_t seed,
                                           std::size_t pass);

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct RunOptions
{
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Chrome trace output (traced runs); empty = do not write. */
    std::string traceOut;
};

struct RunReport
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<Check> checks;
    /** End-to-end metrics (untraced run). */
    std::vector<Metric> endToEnd;
    /** Per-layer metrics (traced run). */
    std::vector<Metric> perLayer;
    /** Human-readable notes printed before the result line. */
    std::vector<std::string> notes;

    bool correct() const;
};

RunReport runWorkload(const WorkloadDef& def, const RunOptions& options);

} // namespace mcbench
