/**
 * @file
 * The benchmark binary:
 *
 *   mcbench --workload NAME --seed N --seconds S --trace 0|1
 *           [--trace-out FILE]
 *
 * Runs one workload, prints every metric by name with its unit and
 * every correctness check, and ends with one JSON line:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * With --trace 0 the metrics are the end-to-end ones; with --trace 1
 * the per-layer ones (and --trace-out receives a Chrome trace).  Exit
 * status is 0 only when every check passed.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "workloads.hh"

namespace {

int
usage(const char* why)
{
    std::cerr << "mcbench: " << why << "\n"
              << "usage: mcbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\nworkloads:";
    for (const auto& def : mcbench::workloadDefs())
        std::cerr << " " << def.name;
    std::cerr << "\n";
    return 2;
}

bool
parseNumber(const std::string& text, double& out)
{
    char* end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return !text.empty() && end != nullptr && *end == '\0' &&
           std::isfinite(out);
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

void
printMetrics(const char* heading, const std::vector<mcbench::Metric>& ms)
{
    if (ms.empty())
        return;
    std::printf("%s\n", heading);
    for (const auto& m : ms)
        std::printf("  %-40s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

} // namespace

int
main(int argc, char** argv)
{
    std::string workload, trace_out;
    double seed = -1, seconds = -1, trace = -1;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        if (flag == "--workload") {
            workload = value;
        } else if (flag == "--trace-out") {
            trace_out = value;
        } else if (flag == "--seed" || flag == "--seconds" ||
                   flag == "--trace") {
            double v = 0;
            if (!parseNumber(value, v) || v < 0)
                return usage(("bad value for " + flag).c_str());
            (flag == "--seed" ? seed : flag == "--seconds" ? seconds : trace) = v;
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
    }
    const mcbench::WorkloadDef* def = mcbench::findWorkload(workload);
    if (def == nullptr)
        return usage(("unknown workload '" + workload + "'").c_str());
    if (seed < 0 || seconds <= 0 || (trace != 0 && trace != 1))
        return usage("--seed, --seconds > 0 and --trace 0|1 are required");

    mcbench::RunOptions options;
    options.seed = static_cast<std::uint64_t>(seed);
    options.seconds = seconds;
    options.trace = trace == 1;
    options.traceOut = trace_out;
    const mcbench::RunReport report = mcbench::runWorkload(*def, options);

    // A run whose correctness check fails counts as failed throughout.
    const bool correct = report.correct();
    const std::size_t failed = correct ? report.failed : report.attempted;

    std::printf("workload %s seed %llu seconds %g trace %d\n",
                def->name.c_str(), static_cast<unsigned long long>(options.seed),
                seconds, options.trace ? 1 : 0);
    for (const auto& note : report.notes)
        std::printf("note: %s\n", note.c_str());
    for (const auto& c : report.checks)
        std::printf("check %s: %s — %s\n", c.pass ? "PASS" : "FAIL",
                    c.name.c_str(), c.detail.c_str());
    printMetrics("end-to-end metrics:", report.endToEnd);
    printMetrics("per-layer metrics:", report.perLayer);
    std::printf("failed_share %.6g (%zu of %zu operations)\n",
                report.attempted ? static_cast<double>(failed) /
                                       static_cast<double>(report.attempted)
                                 : 0.0,
                failed, report.attempted);

    const auto& metrics = options.trace ? report.perLayer : report.endToEnd;
    std::string json = std::string("{\"correct\": ") +
                       (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(report.attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
                jsonNumber(metrics[i].value) + ", \"unit\": \"" +
                metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
