#ifndef RUBIK_CORE_RUBIK_CONTROLLER_H
#define RUBIK_CORE_RUBIK_CONTROLLER_H

/**
 * @file
 * Rubik: the paper's fine-grain analytical DVFS controller (Sec. 4).
 *
 * On every request arrival and completion, Rubik evaluates, for every
 * request i currently in the system, the constraint
 *
 *     f >= c_i / (L - (t_i + m_i))                           (Eq. 2)
 *
 * where c_i / m_i come from the precomputed target tail tables, t_i is how
 * long request i has been in the system, and L is the (internal) latency
 * target. It picks the smallest grid frequency satisfying all constraints.
 * The tables are rebuilt every 100 ms from online profiles (each rebuild
 * recomputes every convolution chain; nothing is cached across
 * rebuilds, since the profile drifts between them), and a PI feedback
 * loop on the measured tail trims Rubik's conservatism.
 */

#include <cstdint>
#include <optional>

#include "core/pi_controller.h"
#include "core/profiler.h"
#include "core/target_tail_table.h"
#include "power/dvfs_model.h"
#include "sim/policy.h"
#include "stats/rolling_tail.h"

namespace rubik {

/// Rubik configuration. Defaults follow Sec. 4.2.
struct RubikConfig
{
    /// Tail latency bound L (seconds). Must be set.
    double latencyBound = 0.0;
    /// Target percentile (paper: 95th).
    double percentile = 0.95;
    /// Table rebuild period (paper: 100 ms).
    double updatePeriod = 100e-3;
    /// Enable the PI feedback fine-tuning stage.
    bool feedback = true;
    /// Rolling window for the measured tail (paper: 1 s).
    double feedbackWindow = 1.0;
    /// PI gains on the relative tail error; output is the multiplier
    /// applied to L to form the internal target.
    double kp = 0.3;
    double ki = 1.0;
    /// Clamp on the internal-target multiplier.
    double targetMultMin = 0.4;
    double targetMultMax = 2.5;
    /// Completed requests profiled before the first table build; until
    /// then Rubik conservatively runs at maximum frequency.
    std::size_t warmupSamples = 64;
    /// Sliding profile window (requests).
    std::size_t profileWindow = 4096;
    /// Skip a periodic rebuild when fewer than this many requests
    /// completed since the last one (the sliding-window distributions
    /// would be nearly unchanged). 0 forces a rebuild every period.
    std::size_t minNewSamplesPerRebuild = 32;
    /// Table shape.
    TailTableConfig table;
};

/**
 * The Rubik DVFS policy.
 */
class RubikController : public DvfsPolicy
{
  public:
    RubikController(const DvfsModel &dvfs, const RubikConfig &config);

    void reset() override;
    double selectFrequency(const CoreView &core) override;
    void onCompletion(const CompletedRequest &done,
                      const CoreView &core) override;
    double nextPeriodicUpdate() const override { return nextUpdate_; }
    void periodicUpdate(const CoreView &core) override;

    /**
     * Scheduled updates a catch-up must be behind before it may jump:
     * 2^20 periods (29 hours of stream time at 100 ms).
     */
    static constexpr double kJumpPeriods = 1048576.0;

    /**
     * Skip the periodic updates scheduled at or before `t` when more
     * than kJumpPeriods of them are due and every one would change
     * nothing but the schedule: no rebuild can come due before the
     * next completion, and the feedback window is empty. One
     * multiply-add then moves the schedule past `t` in O(1) instead of
     * one update per period (its rounding differs from the add loop's,
     * so shorter gaps never take it). A driver that runs each due
     * update at its scheduled instant calls this after each one.
     */
    void skipIdleUpdates(double t);

    /// @name Introspection (tests, benches)
    /// @{
    bool warm() const { return table_.has_value(); }
    const TargetTailTable *table() const
    {
        return table_ ? &*table_ : nullptr;
    }
    double internalTarget() const { return internalTarget_; }
    const RubikConfig &config() const { return cfg_; }
    uint64_t tableRebuilds() const { return tableRebuilds_; }
    /// @}

  private:
    /// Frequency floor from Eq. 2 over all requests in the system.
    double analyticalFloor(const CoreView &core) const;

    /// True when a periodicUpdate can change nothing but the schedule
    /// until the next completion arrives.
    bool updatesIdle() const;

    /// Move nextUpdate_ past `now` (+1e-12): one period at a time, as
    /// the schedule always has, unless more than kJumpPeriods are due.
    void advanceSchedule(double now);

    const DvfsModel &dvfs_;
    RubikConfig cfg_;
    Profiler profiler_;
    std::optional<TargetTailTable> table_;
    double internalTarget_;
    RollingTail measured_;
    PiController pi_;
    double nextUpdate_;
    uint64_t tableRebuilds_ = 0;
    uint64_t completionsSeen_ = 0;
    uint64_t completionsAtLastBuild_ = 0;
};

} // namespace rubik

#endif // RUBIK_CORE_RUBIK_CONTROLLER_H
