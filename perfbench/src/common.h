#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

/**
 * @file
 * Small helpers shared by the benchmark's workloads: a monotonic clock,
 * order statistics, a flat metrics record printed as one JSON line,
 * the per-layer record every workload fills, and /proc readers for
 * peak RSS and CPU time.
 */

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <sys/types.h>

namespace perfbench {

/// CLOCK_MONOTONIC in seconds.
double now();

/// Linear-interpolated q-quantile (0 <= q <= 1); 0 for an empty sample.
double quantile(std::vector<double> v, double q);

/// Median shorthand.
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Chained 64-bit FNV-1a over raw bytes.
uint64_t fnv(const void *data, std::size_t size, uint64_t h);

/// Peak resident set (VmHWM) of `pid` (0: self) in MB; -1 if unreadable.
double peakRssMb(pid_t pid = 0);

/// utime + stime of `pid` in seconds from /proc/<pid>/stat; -1 if
/// unreadable.
double processCpuS(pid_t pid);

/// CPU time of the calling process in seconds.
double selfCpuS();

/**
 * What a workload hands back to run.py: operation counts, the
 * correctness verdict, named metrics and free-form notes. Printed as
 * one JSON object on stdout.
 */
struct Report
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::pair<std::string, double>> metrics;
    std::vector<std::string> errors;

    void set(const std::string &name, double value)
    {
        metrics.emplace_back(name, value);
    }
    /// Count one gate as an operation; a false gate fails it.
    void check(bool ok, const std::string &what);
    void print() const;
};

/**
 * The spans every workload's traced run reports, summed over `passes`
 * passes of its fixed unit of work (a grid batch, the serve stream, the
 * sweep's cells). They become the per-layer metrics of BENCHMARK.json;
 * a workload's other spans go out as detail metrics.
 */
struct Layers
{
    double passes = 0.0;
    double traceGenS = 0.0; ///< workloads: trace generation
    uint64_t traces = 0;
    double rebuildS = 0.0; ///< core: tail-table rebuild path
    uint64_t rebuilds = 0;
    std::vector<double> rebuildMs; ///< per span that rebuilt
    double decideS = 0.0;          ///< policies: frequency decisions
    uint64_t decisions = 0;
    double tracedS = 0.0;   ///< traced passes, wall
    double untracedS = 0.0; ///< the same passes untraced, wall

    /// Sets every per-layer metric of BENCHMARK.json except
    /// process.cpu_s, per pass.
    void report(Report &rep) const;
};

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
