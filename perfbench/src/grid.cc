/**
 * @file
 * The `grid` workload: a batch paper reproduction in one process with
 * one worker thread — the Fig. 9 cell grid (5 apps x 9 loads, five
 * schemes per cell), the Fig. 16 datacenter model over its six LC
 * loads, and one 10,080-core fleet run uncapped and at budget fraction
 * 0.6. The batch repeats on fresh per-rep seeds until the run's time is
 * used; wall_s is the median batch time.
 *
 * With tracing on, the same batches run a second time with every call
 * into a layer timed from here (TracedPolicy around each Rubik
 * controller, spans around trace loads, replays, oracles, simulate,
 * evaluate and runFleet), and the traced digests must equal the
 * untraced ones. The spans every workload shares become the per-layer
 * metrics; the grid's own (oracles, sim, coloc, fleet) are details.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "coloc/datacenter.h"
#include "common.h"
#include "core/rubik_controller.h"
#include "fleet/fleet_sim.h"
#include "policies/dynamic_oracle.h"
#include "policies/replay.h"
#include "policies/static_oracle.h"
#include "power/dvfs_model.h"
#include "power/power_model.h"
#include "sim/simulation.h"
#include "spans.h"
#include "traced_policy.h"
#include "workloads/apps.h"
#include "workloads/trace_store.h"

using namespace rubik;

namespace perfbench {

namespace {

// Sizing: one batch takes 1.5-2 s on the host in README.md.
constexpr double kRequestScale = 0.05;  ///< of max(paperRequests, 5000)
constexpr int kDatacenterRequests = 100; ///< per LC sub-simulation
constexpr int kFleetCores = 10080;
constexpr int kSetupReps = 10; ///< set-ups timed before each batch
constexpr int kMinReps = 3; ///< reps always run, and pinned by digest
const double kLoads[] = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};
const double kLcLoads[] = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6};

/// Everything the traced batches record, summed over reps.
struct GridTrace
{
    Span traceLoad, replayFixed, staticOracle, dynamicOracle, simulate,
        evaluate, fleet;
    CoreTrace core;
    uint64_t requests = 0;
    uint64_t groupsSimulated = 0;

    double topLevelS() const
    {
        return traceLoad.s + replayFixed.s + staticOracle.s +
               dynamicOracle.s + simulate.s + evaluate.s + fleet.s;
    }
};

struct AppSetup
{
    AppProfile app;
    int n = 0;
    double bound = 0.0;
};

struct Setup
{
    DvfsModel dvfs = DvfsModel::haswell(4e-6);
    PowerModel power{dvfs};
    std::vector<AppSetup> apps;
};

/// Platform, app profiles and per-app bounds (fixed-nominal tail of
/// the 50%-load trace), as fig09 derives them.
std::unique_ptr<Setup>
makeSetup(uint64_t seed)
{
    auto s = std::make_unique<Setup>();
    TraceStore store;
    const double nominal = s->dvfs.nominalFrequency();
    for (AppId id : allApps()) {
        AppSetup a;
        a.app = makeApp(id);
        a.n = static_cast<int>(std::max(a.app.paperRequests, 5000) *
                               kRequestScale);
        const auto t50 = store.loadTrace(a.app, 0.5, a.n, nominal, seed);
        a.bound = replayFixed(*t50, nominal, s->power).tailLatency(0.95);
        s->apps.push_back(std::move(a));
    }
    return s;
}

/// Runs a Rubik controller through the simulator, decorated when
/// tracing.
SimResult
runRubik(const Trace &t, double bound, bool feedback, const Setup &s,
         GridTrace *tr)
{
    RubikConfig cfg;
    cfg.latencyBound = bound;
    cfg.feedback = feedback;
    RubikController rubik(s.dvfs, cfg);
    if (!tr)
        return simulate(t, rubik, s.dvfs, s.power);
    TracedPolicy traced(rubik, &rubik, tr->core);
    tr->requests += t.size();
    return timed(&tr->simulate,
                 [&] { return simulate(t, traced, s.dvfs, s.power); });
}

/// One batch on per-rep seed `seed`; returns its digest.
uint64_t
runBatch(const Setup &s, uint64_t seed, GridTrace *tr)
{
    Digest d;
    const double nominal = s.dvfs.nominalFrequency();
    TraceStore store;
    auto span = [&](Span GridTrace::*m) { return tr ? &(tr->*m) : nullptr; };

    for (const AppSetup &a : s.apps) {
        for (double load : kLoads) {
            const auto trace = timed(span(&GridTrace::traceLoad), [&] {
                return store.loadTrace(a.app, load, a.n, nominal, seed);
            });
            const Trace &t = *trace;
            d.add(timed(span(&GridTrace::replayFixed),
                        [&] { return replayFixed(t, nominal, s.power); }));
            const StaticOracleResult so =
                timed(span(&GridTrace::staticOracle), [&] {
                    return staticOracle(t, a.bound, 0.95, s.dvfs, s.power);
                });
            d.add(so.frequency);
            d.add(so.replay);
            const DynamicOracleResult dyn =
                timed(span(&GridTrace::dynamicOracle), [&] {
                    return dynamicOracle(t, a.bound, 0.95, s.dvfs,
                                         s.power);
                });
            d.add(dyn.frequencies);
            d.add(dyn.replay);
            d.add(runRubik(t, a.bound, false, s, tr));
            d.add(runRubik(t, a.bound, true, s, tr));
        }
    }

    DatacenterConfig dc_cfg;
    dc_cfg.lcRequestsPerSim = kDatacenterRequests;
    dc_cfg.seed = seed;
    DatacenterModel dc(s.dvfs, s.power, dc_cfg);
    for (double load : kLcLoads) {
        const DatacenterEval e = timed(span(&GridTrace::evaluate),
                                       [&] { return dc.evaluate(load); });
        for (const DatacenterTally &t : {e.segregated, e.colocated}) {
            d.add(t.power);
            d.add(t.batchPower);
            d.add(t.servers);
            d.add(t.batchServers);
        }
    }

    FleetConfig fc;
    fc.coresPerMachine = 6;
    fc.machines = kFleetCores / fc.coresPerMachine;
    fc.seed = seed;
    const double nominal_w = s.power.coreActivePower(nominal, 0.0);
    for (double frac : {0.0, 0.6}) {
        fc.budgetWatts = frac * kFleetCores * nominal_w;
        const FleetResult r = timed(span(&GridTrace::fleet),
                                    [&] { return runFleet(fc, 1); });
        if (tr)
            tr->groupsSimulated += static_cast<uint64_t>(r.groupsSimulated);
        d.add(static_cast<double>(r.groupsSimulated));
        d.add(r.worstTail);
        d.add(r.peakPower);
        d.add(r.energyPerRequest);
        d.add(r.shedFraction);
        for (const FleetEpochResult &e : r.epochs) {
            d.add(e.tailLatency);
            d.add(e.meanPower);
            d.add(e.capPower);
        }
    }
    return d.h;
}

/// Pinned digests: lines of "<seed> <rep> <16-hex digest>".
std::map<std::pair<uint64_t, int>, uint64_t>
loadPinned(const std::string &path)
{
    std::map<std::pair<uint64_t, int>, uint64_t> pinned;
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read pinned digests " + path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        uint64_t seed = 0;
        int rep = 0;
        std::string hex;
        if (ls >> seed >> rep >> hex)
            pinned[{seed, rep}] = std::stoull(hex, nullptr, 16);
    }
    return pinned;
}

uint64_t
repSeed(uint64_t seed, int rep)
{
    return seed * 1000 + 1 + static_cast<uint64_t>(rep);
}

} // anonymous namespace

Report
runGrid(uint64_t seed, double seconds, bool trace,
        const std::string &pinned_path)
{
    Report rep;
    const std::string selftest = tracedPolicySelfTest();
    rep.check(selftest.empty(), "decorator does not forward " + selftest);

    // Set-up is timed kSetupReps times before each batch, so its samples
    // spread over the run instead of catching one phase of the host.
    std::vector<double> setup_s;
    std::unique_ptr<Setup> setup;
    std::vector<double> first_bounds;
    auto set_up = [&] {
        for (int i = 0; i < kSetupReps; ++i) {
            const double t0 = now();
            setup = makeSetup(seed * 1000);
            setup_s.push_back(now() - t0);
            std::vector<double> bounds;
            for (const AppSetup &a : setup->apps)
                bounds.push_back(a.bound);
            if (first_bounds.empty())
                first_bounds = bounds;
            else
                rep.check(bounds == first_bounds,
                          "setup is not deterministic");
        }
    };

    const auto pinned = loadPinned(pinned_path);
    std::vector<uint64_t> digests;
    std::vector<double> walls, cpus;
    double rss = 0.0;
    const double start = now();
    for (int r = 0; r < kMinReps || now() - start < seconds; ++r) {
        set_up();
        const double t0 = now(), c0 = selfCpuS();
        digests.push_back(runBatch(*setup, repSeed(seed, r), nullptr));
        walls.push_back(now() - t0);
        cpus.push_back(selfCpuS() - c0);
        // Read after a fixed amount of work: the allocator's high-water
        // mark creeps up with every further rep, and the rep count
        // follows the host's speed.
        if (r + 1 == kMinReps)
            rss = peakRssMb();
        const auto it = pinned.find({seed, r});
        if (it != pinned.end()) {
            char msg[96];
            std::snprintf(msg, sizeof msg,
                          "grid digest %016llx != pinned for seed %llu rep %d",
                          static_cast<unsigned long long>(digests.back()),
                          static_cast<unsigned long long>(seed), r);
            rep.check(it->second == digests.back(), msg);
        }
        rep.attempted += 45 * 5 + 6 + 2; // cells x schemes, evals, fleets
    }
    for (std::size_t r = 0; r < digests.size(); ++r)
        std::fprintf(stderr, "grid digest %llu %zu %016llx\n",
                     static_cast<unsigned long long>(seed), r,
                     static_cast<unsigned long long>(digests[r]));

    if (!trace) {
        rep.set("setup_s", median(setup_s));
        rep.set("wall_s", median(walls));
        rep.set("peak_rss_mb", rss);
        return rep;
    }

    // Traced pass over the same reps.
    GridTrace tr;
    double traced_wall = 0.0;
    for (std::size_t r = 0; r < digests.size(); ++r) {
        const double t0 = now();
        const uint64_t d =
            runBatch(*setup, repSeed(seed, static_cast<int>(r)), &tr);
        traced_wall += now() - t0;
        rep.check(d == digests[r], "traced digest != untraced digest");
    }
    const double reps = static_cast<double>(digests.size());
    double untraced_wall = 0.0;
    for (double w : walls)
        untraced_wall += w;

    // Per-batch figures. Layer self-times: simulate minus the
    // decorator's child spans; every other span has no traced child.
    const CoreTrace &c = tr.core;
    const double sim_self = tr.simulate.s - c.childS();
    const double unspanned = traced_wall - tr.topLevelS();
    const double layers = tr.traceLoad.s + c.decideS + tr.replayFixed.s +
                          tr.staticOracle.s + tr.dynamicOracle.s +
                          c.periodicS + c.profileS + sim_self +
                          tr.evaluate.s + tr.fleet.s;
    rep.check(sim_self >= 0.0 && unspanned >= 0.0,
              "negative layer self time");
    rep.check(std::abs(layers + unspanned - traced_wall) <=
                  1e-6 * traced_wall,
              "layers + grid.unspanned_s != traced wall_s");

    Layers l;
    l.passes = reps;
    l.traceGenS = tr.traceLoad.s;
    l.traces = tr.traceLoad.n;
    l.rebuildS = c.periodicS;
    l.rebuilds = c.rebuilds;
    l.rebuildMs = c.rebuildMs;
    l.decideS = c.decideS;
    l.decisions = c.decisions;
    l.tracedS = traced_wall;
    l.untracedS = untraced_wall;
    l.report(rep);
    rep.set("process.cpu_s", median(cpus));

    rep.set("core.rebuild_ratio",
            c.periodicCalls ? static_cast<double>(c.rebuilds) /
                                  static_cast<double>(c.periodicCalls)
                            : 0.0);
    rep.set("core.profile_s", c.profileS / reps);
    rep.set("policies.replay_fixed_s", tr.replayFixed.s / reps);
    rep.set("policies.static_oracle_s", tr.staticOracle.s / reps);
    rep.set("policies.dynamic_oracle_s", tr.dynamicOracle.s / reps);
    rep.set("sim.simulate_s", tr.simulate.s / reps);
    rep.set("sim.self_s", sim_self / reps);
    rep.set("sim.requests", static_cast<double>(tr.requests) / reps);
    rep.set("sim.self_ns_per_req",
            tr.requests ? sim_self / static_cast<double>(tr.requests) * 1e9
                        : 0.0);
    rep.set("coloc.evaluate_s", tr.evaluate.s / reps);
    rep.set("fleet.run_s", tr.fleet.s / reps);
    rep.set("fleet.groups_simulated",
            static_cast<double>(tr.groupsSimulated) / reps);
    rep.set("grid.unspanned_s", unspanned / reps);
    return rep;
}

} // namespace perfbench
