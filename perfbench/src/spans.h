#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

/**
 * @file
 * Spans timed around library calls, and a digest over the bits of
 * simulated results, shared by the in-process workloads (`grid` and the
 * traced half of `sweep`).
 */

#include <cstdint>
#include <vector>

#include "common.h"
#include "policies/replay.h"
#include "sim/simulation.h"

namespace perfbench {

/// A timed layer: total seconds and call count.
struct Span
{
    double s = 0.0;
    uint64_t n = 0;
};

/// Times `fn` into `span` when tracing (span != nullptr).
template <class F>
auto
timed(Span *span, F &&fn)
{
    if (!span)
        return fn();
    const double t0 = now();
    auto r = fn();
    span->s += now() - t0;
    ++span->n;
    return r;
}

struct Digest
{
    uint64_t h = 14695981039346656037ull;
    void add(double v) { h = fnv(&v, sizeof v, h); }
    void add(const std::vector<double> &v)
    {
        add(static_cast<double>(v.size()));
        h = fnv(v.data(), v.size() * sizeof(double), h);
    }
    void add(const rubik::ReplayResult &r)
    {
        add(r.latencies);
        add(r.coreActiveEnergy);
        add(r.makespan);
    }
    void add(const rubik::SimResult &r)
    {
        add(r.latencies());
        add(r.coreActiveEnergy());
        add(r.simTime);
        add(static_cast<double>(r.core.numTransitions));
    }
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
