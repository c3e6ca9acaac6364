/**
 * @file
 * Low-overhead observability: counters, histograms, timers and trace
 * spans, aggregated through registry snapshots.
 *
 * The layer has a two-tier determinism contract that mirrors the exec
 * engine's:
 *
 *   - **Counters** record logical progress (shots sampled, cells
 *     evaluated, cache hits).  Every counter MUST be thread-count
 *     invariant: the same seeded workload produces bit-identical
 *     counter values at any worker count, because counts are sums of
 *     per-task contributions whose partition never depends on
 *     scheduling (see exec/thread_pool.hh).  CI gates on counters.
 *
 *   - **Histograms** may additionally record timing- or scheduling-
 *     dependent events (task wall time, queue wait).  Their contents
 *     are advisory.  Value histograms fed from deterministic data
 *     (e.g. qec.syndrome_weight) are thread-count invariant too, but
 *     only counters are contractually pinned.
 *
 * Overhead contract: with no sink attached (the default), a counter
 * event costs exactly one relaxed atomic add; a histogram record costs
 * three (bucket, count, sum); hot loops can batch through a
 * LocalHistogram and flush once per chunk.  Timers and spans read the
 * clock only while timing/tracing is enabled — disabled, a ScopedTimer
 * is one relaxed atomic load and a branch.
 *
 * Handles are registered once (typically as file-scope references via
 * obs::counter / obs::histogram) and are valid for the process
 * lifetime; Registry::reset() zeroes values but never invalidates
 * handles.
 */

#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace hetarch {
namespace obs {

class Registry;
class LocalHistogram;

/** Monotone event count; handle to one registry slot. */
class Counter
{
  public:
    /** Record @p n events: a single relaxed atomic add. */
    void add(std::uint64_t n = 1) noexcept
    {
        value.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t load() const noexcept
    {
        return value.load(std::memory_order_relaxed);
    }

    Counter(const Counter&) = delete;
    Counter& operator=(const Counter&) = delete;

  private:
    friend class Registry;
    Counter() = default;
    void reset() noexcept { value.store(0, std::memory_order_relaxed); }

    std::atomic<std::uint64_t> value{0};
};

/**
 * Power-of-two-bucketed distribution of unsigned values (durations in
 * ns, syndrome weights, ...).  Bucket 0 holds the value 0; bucket i
 * holds [2^(i-1), 2^i).
 */
class Histogram
{
  public:
    static constexpr std::size_t kBuckets = 65;

    /** Bucket index of @p v: 0 for 0, else bit_width(v). */
    static std::size_t bucketIndex(std::uint64_t v) noexcept
    {
        return static_cast<std::size_t>(std::bit_width(v));
    }

    /** Smallest value landing in bucket @p i. */
    static std::uint64_t bucketLowerBound(std::size_t i) noexcept
    {
        return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
    }

    /** Record one value: three relaxed atomic adds. */
    void record(std::uint64_t v) noexcept
    {
        buckets[bucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
        n.fetch_add(1, std::memory_order_relaxed);
        total.fetch_add(v, std::memory_order_relaxed);
    }

    /** Fold a thread-private batch in (one add per non-empty bucket). */
    void merge(const LocalHistogram& local) noexcept;

    std::uint64_t count() const noexcept
    {
        return n.load(std::memory_order_relaxed);
    }
    std::uint64_t sum() const noexcept
    {
        return total.load(std::memory_order_relaxed);
    }
    std::uint64_t bucket(std::size_t i) const noexcept
    {
        return buckets[i].load(std::memory_order_relaxed);
    }

    Histogram(const Histogram&) = delete;
    Histogram& operator=(const Histogram&) = delete;

  private:
    friend class Registry;
    Histogram() = default;
    void reset() noexcept;

    std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
    std::atomic<std::uint64_t> n{0};
    std::atomic<std::uint64_t> total{0};
};

/**
 * Thread-private histogram for hot loops: record without atomics,
 * flush once per chunk via Histogram::merge.
 */
class LocalHistogram
{
  public:
    void record(std::uint64_t v) noexcept
    {
        buckets[Histogram::bucketIndex(v)] += 1;
        n += 1;
        total += v;
    }

    std::uint64_t count() const noexcept { return n; }
    std::uint64_t sum() const noexcept { return total; }

  private:
    friend class Histogram;
    std::array<std::uint64_t, Histogram::kBuckets> buckets{};
    std::uint64_t n = 0;
    std::uint64_t total = 0;
};

/** Steady-clock time in nanoseconds, for measuring durations. */
inline std::uint64_t
nowNs() noexcept
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Whether timers read the clock (off by default). */
bool timingEnabled() noexcept;
void setTimingEnabled(bool on) noexcept;

/** Whether spans are captured into the trace log (off by default). */
bool tracingEnabled() noexcept;
void setTracingEnabled(bool on) noexcept;

/**
 * RAII wall-time measurement into a histogram (nanoseconds).  When
 * timing is disabled the constructor is a relaxed load and a branch;
 * no clock is read.
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(Histogram& h) noexcept
        : hist(timingEnabled() ? &h : nullptr)
    {
        if (hist)
            start = std::chrono::steady_clock::now();
    }

    ~ScopedTimer()
    {
        if (hist)
            hist->record(static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - start)
                    .count()));
    }

    ScopedTimer(const ScopedTimer&) = delete;
    ScopedTimer& operator=(const ScopedTimer&) = delete;

  private:
    Histogram* hist;
    std::chrono::steady_clock::time_point start;
};

/** One captured trace span. */
struct SpanRecord
{
    std::string name;
    std::uint64_t startNs = 0; ///< ns since the registry epoch
    std::uint64_t durNs = 0;
    std::uint32_t thread = 0;  ///< small per-thread tag, not an OS id
};

/**
 * RAII trace span.  When tracing is disabled construction is a relaxed
 * load and a branch; enabled, the span lands in the registry's bounded
 * trace log at destruction.
 */
class Span
{
  public:
    explicit Span(const char* name) noexcept;
    ~Span();

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

  private:
    const char* label;
    std::uint64_t startNs = 0;
    bool active;
};

/** Point-in-time copy of every registered metric (stable ordering). */
struct Snapshot
{
    struct HistogramEntry
    {
        std::string name;
        std::uint64_t count = 0;
        std::uint64_t sum = 0;
        /** (bucket lower bound, count) for non-empty buckets, ascending. */
        std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;
    };

    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<HistogramEntry> histograms;
    std::vector<SpanRecord> spans;
};

/**
 * Estimate the @p q quantile (0..1) of a snapshotted histogram by
 * linear interpolation inside its power-of-two buckets.  Display-time
 * estimation only: quantiles are derived from the stored buckets, never
 * serialized, so the v1 snapshot schema (and the determinism contract —
 * histograms stay advisory) is unchanged.  Returns 0 for an empty
 * histogram; the relative error is bounded by the 2x bucket width.
 */
double histogramQuantile(const Snapshot::HistogramEntry& h, double q);

/**
 * Per-counter difference @p after minus @p before, name-sorted, with
 * zero-delta counters dropped.  Counters absent from @p before are
 * treated as zero (registration interleaves with recording).  Used by
 * the job service to attach "what this job recorded" deltas to
 * results; when other work shares the registry concurrently a delta
 * attributes that work too, so deltas are advisory telemetry, never
 * part of a determinism contract.
 */
std::vector<std::pair<std::string, std::uint64_t>>
counterDeltas(const Snapshot& before, const Snapshot& after);

/**
 * Process-wide metric registry.  Registration interns by name (two
 * lookups of the same name return the same slot); snapshots copy the
 * current values without pausing writers.
 */
class Registry
{
  public:
    static Registry& instance();

    Counter& counter(const std::string& name);
    Histogram& histogram(const std::string& name);

    /** Append a span to the bounded trace log (drops when full). */
    void addSpan(const char* name, std::uint64_t start_ns,
                 std::uint64_t dur_ns);

    /** Nanoseconds since the registry was created (span timebase). */
    std::uint64_t nowNs() const;

    /** Copy of all metrics, name-sorted; spans in capture order. */
    Snapshot snapshot() const;

    /** Zero every counter/histogram and clear the trace log. */
    void reset();

  private:
    Registry();
    ~Registry();
    struct Impl;
    std::unique_ptr<Impl> impl;
};

/** Registry::instance().counter(name) — for file-scope registration. */
Counter& counter(const std::string& name);

/** Registry::instance().histogram(name). */
Histogram& histogram(const std::string& name);

} // namespace obs
} // namespace hetarch
