#include "core/rubik_controller.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace rubik {

RubikController::RubikController(const DvfsModel &dvfs,
                                 const RubikConfig &config)
    : dvfs_(dvfs), cfg_(config),
      profiler_(config.profileWindow, config.table.buckets),
      internalTarget_(config.latencyBound),
      measured_(config.feedbackWindow),
      pi_(config.kp, config.ki, config.targetMultMin, config.targetMultMax,
          1.0),
      nextUpdate_(config.updatePeriod)
{
    RUBIK_ASSERT(config.latencyBound > 0, "latency bound must be set");
    cfg_.table.percentile = config.percentile;
}

void
RubikController::reset()
{
    profiler_.clear();
    table_.reset();
    internalTarget_ = cfg_.latencyBound;
    measured_ = RollingTail(cfg_.feedbackWindow);
    pi_.reset(1.0);
    nextUpdate_ = cfg_.updatePeriod;
    tableRebuilds_ = 0;
    completionsSeen_ = 0;
    completionsAtLastBuild_ = 0;
}

double
RubikController::analyticalFloor(const CoreView &core) const
{
    const double now = core.now;
    const std::size_t row = table_->rowForElapsed(core.elapsedCycles);

    double needed = 0.0;
    std::size_t position = 0;
    bool saturated = false;

    auto add_constraint = [&](double arrival_time) {
        const double t_i = now - arrival_time;
        const double m_i = table_->tailMemTime(row, position);
        const double slack = internalTarget_ - t_i - m_i;
        if (slack <= 0.0) {
            // Already past the bound for this request's tail: all we can
            // do is run flat out.
            saturated = true;
        } else {
            const double c_i = table_->tailCycles(row, position);
            needed = std::max(needed, c_i / slack);
        }
        ++position;
    };

    // Lane walk over the contiguous arrival-time window: position 0 is
    // the in-service request, the rest the FIFO queue.
    for (std::size_t i = 0; i < core.count; ++i) {
        if (saturated)
            break;
        add_constraint(core.arrivals[i]);
    }

    return saturated ? dvfs_.maxFrequency() : needed;
}

double
RubikController::selectFrequency(const CoreView &core)
{
    // A coordinator-assigned power cap bounds every choice below,
    // including the warmup and saturated max-frequency paths: meeting
    // the global budget outranks the latency bound (Sec. 7 of FastCap;
    // the tail cost shows up in the fleet results instead).
    const double ceiling = capCeiling(core);

    if (!core.busy) // idle: frequency is moot
        return std::min(core.frequency, ceiling);

    if (!table_) // warming up: be conservative
        return std::min(dvfs_.maxFrequency(), ceiling);

    return std::min(dvfs_.quantizeUp(analyticalFloor(core)), ceiling);
}

void
RubikController::onCompletion(const CompletedRequest &done,
                              const CoreView &core)
{
    (void)core;
    profiler_.record(done.computeCycles, done.memoryTime);
    measured_.add(done.completionTime, done.latency());
    ++completionsSeen_;
}

bool
RubikController::updatesIdle() const
{
    const uint64_t fresh = completionsSeen_ - completionsAtLastBuild_;
    const bool can_rebuild =
        profiler_.numSamples() >= cfg_.warmupSamples &&
        (!table_ || fresh >= cfg_.minNewSamplesPerRebuild);
    // Expiring an empty window changes nothing, and the PI stage does
    // not run without samples.
    const bool can_feed_back = cfg_.feedback && table_ && !measured_.empty();
    return !can_rebuild && !can_feed_back;
}

void
RubikController::advanceSchedule(double now)
{
    const double due = now + 1e-12;
    const double period = cfg_.updatePeriod;
    const double behind = (due - nextUpdate_) / period;
    if (behind > kJumpPeriods && std::isfinite(behind)) {
        // Land a couple of periods short, so the adds below finish.
        nextUpdate_ += (std::floor(behind) - 2.0) * period;
    }
    while (nextUpdate_ <= due) {
        const double next = nextUpdate_ + period;
        // Far enough out, adding a period no longer moves the value.
        nextUpdate_ = next > nextUpdate_ ? next : std::nextafter(due, kNever);
    }
}

void
RubikController::skipIdleUpdates(double t)
{
    if ((t - nextUpdate_) / cfg_.updatePeriod > kJumpPeriods &&
        updatesIdle())
        advanceSchedule(t);
}

void
RubikController::periodicUpdate(const CoreView &core)
{
    // Keep the schedule strictly advancing even if the loop stalls.
    advanceSchedule(core.now);

    const uint64_t fresh = completionsSeen_ - completionsAtLastBuild_;
    const bool enough_new =
        !table_ || fresh >= cfg_.minNewSamplesPerRebuild;
    if (profiler_.numSamples() >= cfg_.warmupSamples && enough_new) {
        table_ = TargetTailTable::build(profiler_.computeDistribution(),
                                        profiler_.memoryDistribution(),
                                        cfg_.table);
        ++tableRebuilds_;
        completionsAtLastBuild_ = completionsSeen_;
    }

    if (cfg_.feedback && table_) {
        measured_.expire(core.now);
        if (measured_.size() >= 32) {
            const double tail = measured_.tail(cfg_.percentile);
            // Positive error: measured tail is below the bound, i.e. we
            // are conservative and can relax the internal target.
            const double error =
                (cfg_.latencyBound - tail) / cfg_.latencyBound;
            const double mult = pi_.update(error, cfg_.updatePeriod);
            internalTarget_ = mult * cfg_.latencyBound;
        }
    }
}

} // namespace rubik
