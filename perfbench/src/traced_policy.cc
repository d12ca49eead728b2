#include "traced_policy.h"

using namespace rubik;

namespace perfbench {

std::string
tracedPolicySelfTest()
{
    // A fake inner policy that records what reached it.
    struct Probe final : DvfsPolicy
    {
        int resets = 0, selects = 0, completions = 0, periodics = 0,
            thermals = 0, caps = 0;
        mutable int nexts = 0;
        double lastCap = 0.0, lastTemp = 0.0;
        uint64_t lastId = 0;
        void reset() override { ++resets; }
        double selectFrequency(const CoreView &) override
        {
            ++selects;
            return 1.7e9;
        }
        void onCompletion(const CompletedRequest &done,
                          const CoreView &) override
        {
            ++completions;
            lastId = done.id;
        }
        double nextPeriodicUpdate() const override
        {
            ++nexts;
            return 0.25;
        }
        void periodicUpdate(const CoreView &) override { ++periodics; }
        void onThermalSample(double, double core_temp, double) override
        {
            ++thermals;
            lastTemp = core_temp;
        }
        void setPowerCap(double watts) override
        {
            ++caps;
            lastCap = watts;
        }
    } probe;
    CoreTrace trace;
    TracedPolicy traced(probe, nullptr, trace);
    const CoreView view;
    CompletedRequest done;
    done.id = 77;
    traced.reset();
    if (probe.resets != 1)
        return "reset";
    if (traced.selectFrequency(view) != 1.7e9 || probe.selects != 1)
        return "selectFrequency";
    traced.onCompletion(done, view);
    if (probe.completions != 1 || probe.lastId != 77)
        return "onCompletion";
    if (traced.nextPeriodicUpdate() != 0.25 || probe.nexts != 1)
        return "nextPeriodicUpdate";
    traced.periodicUpdate(view);
    if (probe.periodics != 1)
        return "periodicUpdate";
    traced.onThermalSample(1.0, 61.5, 50.0);
    if (probe.thermals != 1 || probe.lastTemp != 61.5)
        return "onThermalSample";
    traced.setPowerCap(3.25);
    if (probe.caps != 1 || probe.lastCap != 3.25 ||
        traced.powerCap() != 3.25)
        return "setPowerCap";
    if (trace.decisions != 1 || trace.completions != 1 ||
        trace.periodicCalls != 1)
        return "span counters";
    return "";
}

} // namespace perfbench
