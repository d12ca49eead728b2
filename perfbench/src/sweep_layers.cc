/**
 * @file
 * The traced half of the `sweep` workload. A dispatched sweep runs its
 * cells in child processes, out of reach of any span, so a traced sweep
 * run also runs the same spec's cells in this process, one job:
 *
 *   untraced, through sweepCellRows (the execution core every sweep
 *   entry point shares), whose rows must equal the local CSV;
 *   traced, through a replica of its three phases (bounds, prepared
 *   traces, cells) with spans around trace loads, replays and oracles
 *   and a TracedPolicy around each online scheme. Each online cell's
 *   decision stream must equal runPolicy's for the same cell.
 */

#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "common.h"
#include "core/rubik_controller.h"
#include "policies/dynamic_oracle.h"
#include "policies/pegasus.h"
#include "policies/replay.h"
#include "policies/static_oracle.h"
#include "power/dvfs_model.h"
#include "power/power_model.h"
#include "runner/sweep_runner.h"
#include "runner/sweep_spec.h"
#include "sim/decision_log.h"
#include "sim/sim_options.h"
#include "sim/simulation.h"
#include "spans.h"
#include "traced_policy.h"
#include "util/units.h"
#include "workloads/apps.h"
#include "workloads/trace_store.h"

using namespace rubik;

namespace perfbench {

namespace {

constexpr int kPasses = 3; ///< untraced and traced passes each

struct SweepTrace
{
    Span traceLoad, annotate, replayFixed, oracle, simulate;
    CoreTrace rubik;  ///< Rubik controllers
    CoreTrace others; ///< the other online schemes
};

/**
 * One pass over the spec's cells in sweepCellRows' phase order. With
 * `tr`, online cells run decorated and every call is timed; without, they
 * go through runPolicy. Either way each online cell's decision stream is
 * appended to `logs`.
 */
void
replicaPass(const SweepSpec &spec, SweepTrace *tr, std::vector<DecisionLog> &logs)
{
    const DvfsModel dvfs = DvfsModel::haswell(spec.transitionUs * kUs);
    const PowerModel power(dvfs);
    const double nominal = dvfs.nominalFrequency();
    const int n = spec.effectiveRequests();
    const SimOptions opts;
    TraceStore store;
    auto span = [&](Span SweepTrace::*m) { return tr ? &(tr->*m) : nullptr; };
    auto app_of = [](const std::string &name) {
        const auto id = appIdByName(name);
        if (!id)
            throw std::runtime_error("unknown app: " + name);
        return makeApp(*id);
    };

    std::map<std::pair<std::string, uint64_t>, double> bounds;
    for (std::size_t i = 0; i < spec.numCells(); ++i) {
        const SweepCell cell = spec.cell(i);
        const auto key = std::make_pair(cell.app, cell.seed);
        if (bounds.count(key))
            continue;
        if (spec.boundMs > 0.0) {
            bounds[key] = spec.boundMs * kMs;
            continue;
        }
        const auto t50 = timed(span(&SweepTrace::traceLoad), [&] {
            return store.loadTrace(app_of(cell.app), 0.5, n, nominal,
                                   cell.seed);
        });
        bounds[key] = timed(span(&SweepTrace::replayFixed), [&] {
                          return replayFixed(*t50, nominal, power);
                      }).tailLatency(0.95);
    }

    using TripleKey = std::tuple<std::string, double, uint64_t>;
    struct Prepared
    {
        std::shared_ptr<Trace> trace;
        ReplayResult fixed;
    };
    std::map<TripleKey, Prepared> prepared;
    for (std::size_t i = 0; i < spec.numCells(); ++i) {
        const SweepCell cell = spec.cell(i);
        const TripleKey key{cell.app, cell.load, cell.seed};
        if (prepared.count(key))
            continue;
        const auto base = timed(span(&SweepTrace::traceLoad), [&] {
            return store.loadTrace(app_of(cell.app), cell.load, n, nominal,
                                   cell.seed);
        });
        Prepared prep;
        prep.trace = timed(span(&SweepTrace::annotate), [&] {
            auto t = std::make_shared<Trace>(*base);
            annotateClasses(*t, 0.85, nominal);
            return t;
        });
        prep.fixed = timed(span(&SweepTrace::replayFixed), [&] {
            return replayFixed(*prep.trace, nominal, power);
        });
        prepared.emplace(key, std::move(prep));
    }

    for (std::size_t i = 0; i < spec.numCells(); ++i) {
        const SweepCell cell = spec.cell(i);
        const double bound = bounds.at({cell.app, cell.seed});
        const Prepared &prep = prepared.at({cell.app, cell.load, cell.seed});
        const Trace &t = *prep.trace;
        const bool online = cell.policy == "pegasus" ||
                            cell.policy == "rubik" ||
                            cell.policy == "rubik-nofb";
        if (online && !tr) {
            PolicyRunRequest req;
            req.trace = &t;
            req.bound = bound;
            req.dvfs = &dvfs;
            req.power = &power;
            req.fixedBaseline = &prep.fixed;
            req.decisionLog = &logs.emplace_back();
            runPolicy(cell.policy, req);
            continue;
        }
        auto run_online = [&](DvfsPolicy &scheme, const RubikController *rubik,
                              CoreTrace &core) {
            scheme.setPowerCap(0.0);
            TracedPolicy traced(scheme, rubik, core);
            DecisionRecordingPolicy recorder(traced, logs.emplace_back());
            timed(&tr->simulate, [&] {
                return simulate(t, recorder, dvfs, power, opts.engine,
                                opts.thermal);
            });
        };
        if (cell.policy == "fixed") {
            // runPolicy reuses the prepared fixed-nominal replay.
        } else if (cell.policy == "static") {
            timed(span(&SweepTrace::oracle), [&] {
                return staticOracle(t, bound, 0.95, dvfs, power);
            });
        } else if (cell.policy == "dynamic") {
            timed(span(&SweepTrace::oracle), [&] {
                return dynamicOracle(t, bound, 0.95, dvfs, power);
            });
        } else if (cell.policy == "pegasus") {
            PegasusConfig cfg;
            cfg.latencyBound = bound;
            PegasusPolicy scheme(dvfs, cfg);
            run_online(scheme, nullptr, tr->others);
        } else if (online) {
            RubikConfig cfg;
            cfg.latencyBound = bound;
            cfg.feedback = cell.policy == "rubik";
            cfg.table = opts.tableConfig();
            RubikController scheme(dvfs, cfg);
            run_online(scheme, &scheme, tr->rubik);
        } else {
            throw std::runtime_error("sweep-layers: no replica for policy " +
                                     cell.policy);
        }
    }
}

std::vector<std::string>
csvRows(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::vector<std::string> rows;
    std::string line;
    std::getline(in, line); // header
    while (std::getline(in, line))
        rows.push_back(line);
    return rows;
}

} // anonymous namespace

Report
runSweepLayers(const std::string &spec_path, const std::string &csv_path)
{
    Report rep;
    const SweepSpec spec = SweepSpec::parseFile(spec_path);
    const std::vector<std::string> reference = csvRows(csv_path);

    std::vector<DecisionLog> ref_logs;
    replicaPass(spec, nullptr, ref_logs);

    SweepTrace tr;
    double untraced_s = 0.0, traced_s = 0.0;
    for (int pass = 0; pass < kPasses; ++pass) {
        std::vector<std::string> rows(spec.numCells());
        globalTraceStore().clear(); // every pass generates its traces
        double t0 = now();
        sweepCellRows(spec, 0, spec.numCells(), 1,
                      [&](std::size_t i, const std::string &row) {
                          rows[i] = row.substr(0, row.size() - 1);
                      });
        untraced_s += now() - t0;
        rep.check(rows == reference, "in-process rows != local sweep CSV");

        std::vector<DecisionLog> logs;
        t0 = now();
        replicaPass(spec, &tr, logs);
        traced_s += now() - t0;
        bool same = logs.size() == ref_logs.size();
        for (std::size_t i = 0; same && i < logs.size(); ++i)
            same = logs[i].count == ref_logs[i].count &&
                   logs[i].hash == ref_logs[i].hash;
        rep.check(same, "replica decisions != runPolicy decisions");
    }

    const double passes = kPasses;
    const CoreTrace &r = tr.rubik, &o = tr.others;
    const double sim_self = tr.simulate.s - r.childS() - o.childS();
    const double unspanned =
        traced_s - tr.traceLoad.s - tr.annotate.s - tr.replayFixed.s -
        tr.oracle.s - tr.simulate.s;
    rep.check(sim_self >= 0.0 && unspanned >= 0.0,
              "negative layer self time");

    Layers l;
    l.passes = passes;
    l.traceGenS = tr.traceLoad.s;
    l.traces = tr.traceLoad.n;
    l.rebuildS = r.periodicS;
    l.rebuilds = r.rebuilds;
    l.rebuildMs = r.rebuildMs;
    l.decideS = r.decideS + o.decideS;
    l.decisions = r.decisions + o.decisions;
    l.tracedS = traced_s;
    l.untracedS = untraced_s;
    l.report(rep);

    rep.set("core.rebuild_ratio",
            r.periodicCalls ? static_cast<double>(r.rebuilds) /
                                  static_cast<double>(r.periodicCalls)
                            : 0.0);
    rep.set("core.profile_s", r.profileS / passes);
    rep.set("policies.replay_fixed_s", tr.replayFixed.s / passes);
    rep.set("policies.oracle_s", tr.oracle.s / passes);
    rep.set("sim.simulate_s", tr.simulate.s / passes);
    rep.set("sim.self_s", sim_self / passes);
    rep.set("sweep.unspanned_s", unspanned / passes);
    return rep;
}

} // namespace perfbench
