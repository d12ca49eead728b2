#ifndef RUBIK_SERVE_SERVE_ENGINE_H
#define RUBIK_SERVE_SERVE_ENGINE_H

/**
 * @file
 * The live controller behind `rubik_cli serve` (ROADMAP item 1).
 *
 * Where the simulator owns time and synthesizes events, ServeEngine is
 * driven by an external request stream — arrival and completion
 * telemetry as a production power manager would receive it from
 * per-request CPI-stack counters (paper Sec. 4.2). It keeps the live
 * queue in a compacting arrival-lane ring (bounded memory no matter
 * how long it runs), feeds completions to the exact Rubik profiler,
 * rebuilds tail tables on the controller's own periodic path, and
 * answers every event with a frequency decision — optionally via the
 * distilled LUT fast path with exact fallback and auto-retrain.
 *
 * Every decision flows through a DecisionRecordingPolicy, so the
 * engine's stream carries the same (count, chained-hash) identity and
 * per-decision latency histogram the replay/CI machinery compares.
 * The daemon (serve/daemon.h) is a thin socket front-end over this
 * class; tests drive the engine directly.
 */

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/rubik_controller.h"
#include "policies/distilled.h"
#include "power/dvfs_model.h"
#include "sim/decision_log.h"
#include "stats/latency_histogram.h"

namespace rubik {

/// Configuration for a live serving session.
struct ServeConfig
{
    /// Tail latency bound L (seconds). Required.
    double latencyBound = 0.0;
    /// Target percentile.
    double percentile = 0.95;
    /// Table rebuild period (s).
    double updatePeriod = 100e-3;
    /**
     * PI feedback on the measured tail. Off by default in serve mode:
     * feedback moves the internal target every period, which forces a
     * re-distillation each time to keep the fast path faithful.
     */
    bool feedback = false;
    /// Table shape (rows, positions, buckets...).
    TailTableConfig table;
    /// Serve decisions from a distilled LUT (trained automatically
    /// after each table rebuild) with exact fallback.
    bool distill = false;
    /// Distillation shape for the auto-trained models.
    DistilledConfig distillConfig;
    /// Optional pre-trained model file (rubik_cli distill) to serve
    /// from before the first in-daemon training.
    std::string modelPath;
    /// Reject arrivals beyond this many in-flight requests (bounded
    /// memory; a real server sheds load long before this).
    std::size_t maxQueue = 1 << 16;
    /// Time each decision (CLOCK_MONOTONIC) into the histogram.
    bool timeDecisions = true;
};

/// One live event's outcome.
struct ServeDecision
{
    double frequency = 0.0;
    bool ok = true;
    const char *error = nullptr; ///< Set when !ok (static string).
};

/**
 * Long-running controller: ingests events, emits decisions, keeps
 * observable statistics. Single-threaded by design — the daemon's
 * socket loop serializes clients.
 */
class ServeEngine
{
  public:
    /// Throws std::runtime_error for an unloadable `modelPath` or a
    /// distilled shape over DistilledModel::kMaxLutBytes.
    ServeEngine(const DvfsModel &dvfs, const ServeConfig &config);
    ~ServeEngine();

    /**
     * Request arrival at time `t` (seconds, monotone per stream).
     * `elapsedCycles` optionally reports the running request's
     * executed cycles at `t` (0 when unknown); `classHint` is the
     * Adrenaline-style class (-1: none). Returns the frequency
     * decision; a non-finite `t` or `elapsedCycles` is refused with an
     * error and changes nothing.
     */
    ServeDecision onArrival(double t, double elapsedCycles = 0.0,
                            int classHint = -1);

    /**
     * Completion of the oldest in-flight request at time `t` with its
     * measured compute cycles and memory time. Returns the frequency
     * decision for the remaining queue; a non-finite argument is
     * refused with an error and changes nothing.
     */
    ServeDecision onCompletion(double t, double computeCycles,
                               double memoryTime);

    /// One-line JSON stats snapshot (daemon `stats` / `--stats`).
    std::string statsJson() const;

    /// @name Introspection (tests)
    /// @{
    std::size_t queueDepth() const { return arrivals_.size() - head_; }
    const DecisionLog &decisionLog() const { return log_; }
    const LatencyHistogram &decisionLatency() const { return latency_; }
    uint64_t transitions() const { return transitions_; }
    uint64_t tableRebuilds() const { return exact_->tableRebuilds(); }
    bool warm() const { return exact_->warm(); }
    double frequency() const { return frequency_; }
    const RubikController &controller() const { return *exact_; }
    const DistilledPolicy *distilled() const { return distilled_.get(); }
    const ServeConfig &config() const { return cfg_; }
    /// @}

  private:
    /// A refused event: `why` as the error, the frequency unchanged.
    ServeDecision refuse(const char *why) const;
    CoreView view(double now) const;
    /// Run due periodic updates, then advance the stream clock.
    void advanceTo(double t);
    double decide(double now);

    ServeConfig cfg_;
    DvfsModel dvfs_;

    // Live queue: [head_, arrivals_.size()) are in-flight, oldest
    // first. Compaction keeps the lane contiguous (CoreView wants a
    // plain pointer) and the footprint proportional to the live queue.
    std::vector<double> arrivals_;
    std::vector<int> classHints_;
    std::size_t head_ = 0;

    double now_ = 0.0;
    double elapsedCycles_ = 0.0;
    double frequency_ = 0.0;

    std::unique_ptr<RubikController> exact_;
    std::unique_ptr<DistilledPolicy> distilled_;
    std::unique_ptr<DecisionRecordingPolicy> recorder_;

    DecisionLog log_;
    LatencyHistogram latency_;
    uint64_t transitions_ = 0;
    uint64_t arrivalsSeen_ = 0;
    uint64_t completionsSeen_ = 0;
    uint64_t rejected_ = 0;
    uint64_t wallStartNs_ = 0; ///< CLOCK_MONOTONIC at first event.
};

} // namespace rubik

#endif // RUBIK_SERVE_SERVE_ENGINE_H
