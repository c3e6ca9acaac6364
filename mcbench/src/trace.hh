/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * Spans are recorded by the benchmark around its calls into the
 * library's public functions (never inside the library): name, start,
 * end, the enclosing span, and an operation id shared by every span
 * of one operation.  They stay in memory until the run ends, when
 * they are reduced to per-layer self times and written once as Chrome
 * trace-event JSON (opens in Perfetto or chrome://tracing).
 *
 * A span's layer is its name up to the first '.', e.g. "stab.sample"
 * belongs to layer "stab".  Not thread-safe: record from one thread.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mcbench {

struct Span
{
    std::string name;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    int parent = -1; ///< index of the enclosing span, -1 for a root
    std::uint64_t op = 0;

    std::uint64_t durationNs() const { return endNs - startNs; }
    std::string layer() const { return name.substr(0, name.find('.')); }
};

class Tracer
{
  public:
    /** A disabled tracer records nothing and costs one branch a span. */
    explicit Tracer(bool enabled);

    bool enabled() const { return on; }

    /** Fresh operation id; spans opened until the next call share it. */
    std::uint64_t newOp() { return ++curOp; }

    /** Open a span nested in the innermost open one; -1 if disabled. */
    int begin(const std::string& name);
    void end(int span);

    const std::vector<Span>& spans() const { return log; }

  private:
    std::uint64_t nowNs() const;

    bool on;
    std::chrono::steady_clock::time_point epoch;
    std::uint64_t curOp = 0;
    std::vector<Span> log;
    std::vector<int> open;
};

/** RAII span; a no-op on a disabled tracer. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer& tracer, const std::string& name)
        : t(tracer), idx(tracer.begin(name))
    {
    }
    ~ScopedSpan() { t.end(idx); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    Tracer& t;
    int idx;
};

/**
 * Self time of every span: its duration minus the part of its
 * interval covered by the union of its direct children (children
 * clipped to the parent, overlaps counted once).
 */
std::vector<std::uint64_t> selfTimesNs(const std::vector<Span>& spans);

/** Self time summed per layer. */
std::map<std::string, std::uint64_t>
layerSelfNs(const std::vector<Span>& spans);

/** Durations (ns) of every span named exactly @p name, in order. */
std::vector<double> durationsNs(const std::vector<Span>& spans,
                                const std::string& name);

/** Total duration (ns) of spans named exactly @p name. */
double totalNs(const std::vector<Span>& spans, const std::string& name);

/**
 * Write @p spans as Chrome trace-event JSON ("X" complete events, µs
 * timestamps; op id and parent span in args).  Returns false if the
 * file cannot be written.
 */
bool writeChromeTrace(const std::string& path,
                      const std::vector<Span>& spans,
                      const std::string& process_name);

} // namespace mcbench
