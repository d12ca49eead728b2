#ifndef PERFBENCH_TRACED_POLICY_H
#define PERFBENCH_TRACED_POLICY_H

/**
 * @file
 * A DvfsPolicy decorator that times every call into the wrapped policy
 * from the benchmark's side of the interface, so the `core` and
 * `policies` layers get spans without tracing anything inside the
 * library. It forwards all seven virtuals unchanged; results with and
 * without it are bitwise identical (the grid workload checks this).
 */

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "core/rubik_controller.h"
#include "sim/policy.h"

namespace perfbench {

/// Accumulated spans of the calls one or more decorators forwarded.
struct CoreTrace
{
    double decideS = 0.0;     ///< selectFrequency
    uint64_t decisions = 0;
    double profileS = 0.0;    ///< onCompletion (profiler feed)
    uint64_t completions = 0;
    double periodicS = 0.0;   ///< periodicUpdate, rebuilding or not
    uint64_t periodicCalls = 0;
    uint64_t rebuilds = 0;    ///< tableRebuilds() advances
    std::vector<double> rebuildMs; ///< per call that rebuilt

    /// Time spent inside the wrapped policy (the simulator's children).
    double childS() const { return decideS + profileS + periodicS; }
};

class TracedPolicy final : public rubik::DvfsPolicy
{
  public:
    /// `rubik` (may be null) is read for its rebuild counter; it is
    /// normally the same object as `inner`.
    TracedPolicy(rubik::DvfsPolicy &inner, const rubik::RubikController *rubik,
                 CoreTrace &trace)
        : inner_(inner), rubik_(rubik), trace_(trace)
    {
    }

    void reset() override
    {
        inner_.reset();
    }

    double selectFrequency(const rubik::CoreView &core) override
    {
        const double t0 = now();
        const double f = inner_.selectFrequency(core);
        trace_.decideS += now() - t0;
        ++trace_.decisions;
        return f;
    }

    void onCompletion(const rubik::CompletedRequest &done,
                      const rubik::CoreView &core) override
    {
        const double t0 = now();
        inner_.onCompletion(done, core);
        trace_.profileS += now() - t0;
        ++trace_.completions;
    }

    double nextPeriodicUpdate() const override
    {
        return inner_.nextPeriodicUpdate();
    }

    void periodicUpdate(const rubik::CoreView &core) override
    {
        const uint64_t before = rubik_ ? rubik_->tableRebuilds() : 0;
        const double t0 = now();
        inner_.periodicUpdate(core);
        const double dt = now() - t0;
        trace_.periodicS += dt;
        ++trace_.periodicCalls;
        const uint64_t after = rubik_ ? rubik_->tableRebuilds() : 0;
        if (after != before) {
            trace_.rebuilds += after - before;
            trace_.rebuildMs.push_back(dt * 1e3);
        }
    }

    void onThermalSample(double t, double core_temp,
                         double package_temp) override
    {
        inner_.onThermalSample(t, core_temp, package_temp);
    }

    void setPowerCap(double watts) override
    {
        rubik::DvfsPolicy::setPowerCap(watts);
        inner_.setPowerCap(watts);
    }

  private:
    rubik::DvfsPolicy &inner_;
    const rubik::RubikController *rubik_;
    CoreTrace &trace_;
};

/**
 * Check that the decorator forwards each of the seven virtuals with its
 * arguments and return value intact. Returns an empty string on success,
 * else the first virtual that was not forwarded.
 */
std::string tracedPolicySelfTest();

} // namespace perfbench

#endif // PERFBENCH_TRACED_POLICY_H
