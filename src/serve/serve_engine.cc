#include "serve/serve_engine.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <ctime>

#include "util/error.h"

namespace rubik {

namespace {

uint64_t
monotonicNs()
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<uint64_t>(ts.tv_nsec);
}

} // anonymous namespace

ServeEngine::ServeEngine(const DvfsModel &dvfs, const ServeConfig &config)
    : cfg_(config), dvfs_(dvfs)
{
    RUBIK_ASSERT(cfg_.latencyBound > 0.0,
                 "serve: latency bound must be set");
    // A zero period would make RubikController::periodicUpdate's
    // catch-up loop (nextUpdate_ += period) spin forever.
    RUBIK_ASSERT(cfg_.updatePeriod > 0.0,
                 "serve: update period must be positive");
    RubikConfig rc;
    rc.latencyBound = cfg_.latencyBound;
    rc.percentile = cfg_.percentile;
    rc.updatePeriod = cfg_.updatePeriod;
    rc.feedback = cfg_.feedback;
    rc.table = cfg_.table;
    exact_ = std::make_unique<RubikController>(dvfs_, rc);

    if (cfg_.distill || !cfg_.modelPath.empty()) {
        // The auto-trained models take the table's shape: refuse one
        // too large now, not at the first retrain.
        if (cfg_.distill)
            DistilledModel::checkShape(cfg_.table.rows, cfg_.distillConfig);
        DistilledModel model; // untrained: every decision falls back
        if (!cfg_.modelPath.empty())
            model = DistilledModel::load(cfg_.modelPath);
        distilled_ = std::make_unique<DistilledPolicy>(
            std::move(model), *exact_, dvfs_,
            /*autoRetrain=*/cfg_.distill);
    }
    DvfsPolicy &active =
        distilled_ ? static_cast<DvfsPolicy &>(*distilled_) : *exact_;
    log_.latency = cfg_.timeDecisions ? &latency_ : nullptr;
    recorder_ = std::make_unique<DecisionRecordingPolicy>(active, log_);

    frequency_ = dvfs_.maxFrequency(); // conservative until warm
    arrivals_.reserve(1024);
    classHints_.reserve(1024);
}

ServeEngine::~ServeEngine() = default;

CoreView
ServeEngine::view(double now) const
{
    CoreView v;
    v.now = now;
    v.frequency = frequency_;
    v.elapsedCycles = elapsedCycles_;
    v.count = arrivals_.size() - head_;
    v.busy = v.count > 0;
    v.arrivals = arrivals_.data() + head_;
    v.classHints = classHints_.data() + head_;
    v.dvfs = &dvfs_;
    return v;
}

void
ServeEngine::advanceTo(double t)
{
    if (wallStartNs_ == 0)
        wallStartNs_ = monotonicNs();
    // Run table rebuilds that came due before this event, at their
    // scheduled instants — the same ordering the simulator enforces.
    // Once the updates go idle, a far-future event (`a 1e9`) skips the
    // rest of its gap in O(1). The distilled layer retrains only when
    // the table or the internal target moved, and an idle exact
    // controller moves neither.
    while (recorder_->nextPeriodicUpdate() <= t) {
        recorder_->periodicUpdate(view(recorder_->nextPeriodicUpdate()));
        exact_->skipIdleUpdates(t);
    }
    if (t > now_)
        now_ = t;
}

double
ServeEngine::decide(double now)
{
    const double f = recorder_->selectFrequency(view(now));
    if (f != frequency_)
        ++transitions_;
    frequency_ = f;
    return f;
}

ServeDecision
ServeEngine::refuse(const char *why) const
{
    ServeDecision d;
    d.ok = false;
    d.error = why;
    d.frequency = frequency_;
    return d;
}

ServeDecision
ServeEngine::onArrival(double t, double elapsedCycles, int classHint)
{
    // A non-finite time would never pass the periodic-update catch-up
    // in advanceTo (inf) or compare at all (nan).
    if (!std::isfinite(t) || !std::isfinite(elapsedCycles))
        return refuse("non-finite arrival time or elapsed cycles");
    if (queueDepth() >= cfg_.maxQueue) {
        ++rejected_;
        return refuse("queue full");
    }
    ServeDecision d;
    advanceTo(t);
    // Compact the consumed ring prefix once it dominates the lane, so
    // the live window stays a contiguous pointer for CoreView and the
    // footprint stays bounded by the live queue, not stream length.
    if (head_ > 1024 && head_ > arrivals_.size() / 2) {
        arrivals_.erase(arrivals_.begin(),
                        arrivals_.begin() +
                            static_cast<std::ptrdiff_t>(head_));
        classHints_.erase(classHints_.begin(),
                          classHints_.begin() +
                              static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
    }
    arrivals_.push_back(t);
    classHints_.push_back(classHint);
    elapsedCycles_ = elapsedCycles;
    ++arrivalsSeen_;
    d.frequency = decide(now_);
    return d;
}

ServeDecision
ServeEngine::onCompletion(double t, double computeCycles,
                          double memoryTime)
{
    if (!std::isfinite(t) || !std::isfinite(computeCycles) ||
        !std::isfinite(memoryTime))
        return refuse("non-finite completion time, cycles or memory time");
    if (queueDepth() == 0)
        return refuse("completion with empty queue");
    ServeDecision d;
    advanceTo(t);
    CompletedRequest done;
    done.arrivalTime = arrivals_[head_];
    done.completionTime = t;
    done.computeCycles = computeCycles;
    done.memoryTime = memoryTime;
    done.classHint = classHints_[head_];
    ++head_;
    elapsedCycles_ = 0.0; // next request starts fresh
    recorder_->onCompletion(done, view(now_));
    ++completionsSeen_;
    d.frequency = decide(now_);
    return d;
}

std::string
ServeEngine::statsJson() const
{
    const uint64_t wallNs =
        wallStartNs_ ? monotonicNs() - wallStartNs_ : 0;
    const double wallS = static_cast<double>(wallNs) * 1e-9;
    const double rate =
        wallS > 0.0 ? static_cast<double>(log_.count) / wallS : 0.0;
    const uint64_t fast = distilled_ ? distilled_->fastDecisions() : 0;
    const uint64_t fallback =
        distilled_ ? distilled_->fallbackDecisions() : 0;
    const double hitRate =
        fast + fallback > 0
            ? static_cast<double>(fast) /
                  static_cast<double>(fast + fallback)
            : 0.0;
    const std::size_t window = exact_->config().profileWindow;
    const uint64_t occupancy =
        completionsSeen_ < window ? completionsSeen_ : window;

    char buf[1024];
    std::snprintf(
        buf, sizeof(buf),
        "{\"table_version\":%" PRIu64 ",\"warm\":%s,"
        "\"internal_target_ms\":%.6g,"
        "\"profiler_window\":%zu,\"profiler_occupancy\":%" PRIu64 ","
        "\"queue_depth\":%zu,\"frequency_ghz\":%.6g,"
        "\"decisions\":%" PRIu64 ",\"decisions_per_sec\":%.6g,"
        "\"decision_hash\":\"%016" PRIx64 "\","
        "\"transitions\":%" PRIu64 ",\"arrivals\":%" PRIu64 ","
        "\"completions\":%" PRIu64 ",\"rejected\":%" PRIu64 ","
        "\"latency_ns\":{\"p50\":%.6g,\"p99\":%.6g,\"max\":%" PRIu64
        ",\"mean\":%.6g},"
        "\"distilled\":{\"enabled\":%s,\"trained\":%s,"
        "\"fast_decisions\":%" PRIu64 ",\"fallback_decisions\":%" PRIu64
        ",\"fast_hit_rate\":%.6g,\"retrains\":%" PRIu64
        ",\"lut_bytes\":%zu}}",
        exact_->tableRebuilds(), exact_->warm() ? "true" : "false",
        exact_->internalTarget() * 1e3, window, occupancy, queueDepth(),
        frequency_ * 1e-9, log_.count, rate, log_.hash, transitions_,
        arrivalsSeen_, completionsSeen_, rejected_,
        latency_.percentileNs(0.5), latency_.percentileNs(0.99),
        latency_.maxNs(), latency_.meanNs(),
        distilled_ ? "true" : "false",
        distilled_ && distilled_->model().trained() ? "true" : "false",
        fast, fallback, hitRate,
        distilled_ ? distilled_->retrains() : 0,
        distilled_ ? distilled_->model().lutBytes() : 0);
    return buf;
}

} // namespace rubik
