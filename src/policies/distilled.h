#ifndef RUBIK_POLICIES_DISTILLED_H
#define RUBIK_POLICIES_DISTILLED_H

/**
 * @file
 * Distilled fast-path frequency policy (ROADMAP item 1; Lin et al.'s
 * decision-tree power monitoring applied to Rubik).
 *
 * The exact controller's per-decision work is a row search plus, per
 * queued request, two table lookups, a division and a max — ~20 ns at
 * typical depths. But for a *fixed* table and internal target, the
 * decision at queue position i is a pure function of the request's age
 * t_i: quantizeUp(c_i / (L - t_i - m_i)) is non-decreasing in t_i, so
 * it is a step function with at most |grid| steps. Distillation finds
 * those step boundaries once, offline, by bisecting the exact
 * controller as a black box, and compiles them into a flat quantized
 * lookup: one byte per (row, position, age-bucket). The hot path is
 * then, per request, a multiply, a clamp, a byte load and a max —
 * single-digit ns for realistic depths.
 *
 * Two knobs trade accuracy for size/speed (the ext_distill sweep):
 *   - `leaves`: the frequency subset decisions are rounded up into
 *     (fewer leaves = coarser, conservative = never slower than exact);
 *   - `ageBuckets`: age quantization (boundary buckets carry an
 *     "ambiguous" bit; with an exact controller attached those fall
 *     back to the analytical path, otherwise the conservative upper
 *     decision is served).
 *
 * Models serialize to a versioned, checksummed binary format ("RDTM",
 * same conventions as .rtrace): thresholds are stored, the lookup
 * table is rebuilt deterministically on load, so a round-tripped model
 * makes bitwise-identical decisions.
 */

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/rubik_controller.h"
#include "power/dvfs_model.h"
#include "sim/policy.h"

namespace rubik {

/// Distillation shape. Defaults match the shipped `rubik_cli distill`.
struct DistilledConfig
{
    /// Queue depths covered by the table; deeper views fall back (to
    /// the exact controller when attached, else max frequency).
    std::size_t maxPositions = 64;
    /// Decision leaves = allowed output frequencies. 0 means the full
    /// DVFS grid; k < grid size keeps k evenly-spaced frequencies
    /// (always including the grid max, so rounding up is total).
    std::size_t leaves = 0;
    /// Age-axis quantization per (row, position).
    std::size_t ageBuckets = 4096;
    /// Extra buckets on each side of a decision boundary also marked
    /// ambiguous (fallback band width). 0 = only the crossing bucket.
    std::size_t fallbackBand = 0;
};

/**
 * The trained model: step thresholds + flat age-bucket LUT, plus the
 * grid and target it was trained for.
 */
class DistilledModel
{
  public:
    DistilledModel() = default;

    /**
     * Train against `exact` (must be warm — table built) by black-box
     * bisection on synthetic uniform-age core views. `dvfs` must be
     * the model `exact` was constructed with.
     */
    static DistilledModel distill(RubikController &exact,
                                  const DvfsModel &dvfs,
                                  const DistilledConfig &config);

    bool trained() const { return !lut_.empty(); }

    /// Largest LUT (rows x positions x age buckets, one byte each) a
    /// model may have: the default shape needs 2 MiB.
    static constexpr std::size_t kMaxLutBytes = std::size_t(64) << 20;

    /**
     * Throws std::runtime_error("distilled model: LUT too large") when
     * a model of `rows` table rows and `config`'s shape would need a
     * LUT over kMaxLutBytes. distill() and deserialize() check this
     * before allocating; the daemon checks it at startup.
     */
    static void checkShape(std::size_t rows, const DistilledConfig &config);

    /**
     * Fast-path decision. Pure LUT walk; no fallback here — when a
     * boundary bucket or an out-of-range view is hit, `*needExact` is
     * set and the conservative answer is returned (the caller decides
     * whether to consult the exact controller instead).
     */
    double decide(const CoreView &core, bool *needExact) const
    {
        if (core.count > maxPositions_ || rowBounds_.empty()) {
            *needExact = true;
            return maxLeafFreq_;
        }
        // Row search (TargetTailTable::rowForBounds semantics: index
        // of the last bound <= elapsed): the bounds are tiny (paper: 8
        // octiles) and a fresh request sits in the first rows, so an
        // early-out linear scan is branch-predicted essentially free.
        const double omega = core.elapsedCycles;
        std::size_t row = 0;
        for (std::size_t r = 1; r < rowBounds_.size(); ++r) {
            if (rowBounds_[r] > omega)
                break;
            row = r;
        }
        const uint8_t *cell = lut_.data() + row * rowStride_;
        const double now = core.now;
        // Hoist members into locals: `arrivals` is a double*, so
        // without copies the compiler must re-load every double member
        // each iteration (same-type aliasing).
        const double target = trainedTarget_;
        const double invWidth = invBucketWidth_;
        const uint32_t lastBucket = lastBucket_;
        const uint32_t maxLeaf = maxLeaf_;
        const std::size_t stride = ageBuckets_;
        const std::size_t count = core.count;
        const double *arrivals = core.arrivals;
        uint32_t best = 0;
        uint32_t amb = 0;
        for (std::size_t i = 0; i < count; ++i, cell += stride) {
            double age = now - arrivals[i];
            // Clamp before the cast (negative/huge doubles -> uint is
            // UB); age >= target lands in the last bucket, whose upper
            // edge is the target — the saturated run-flat-out leaf.
            if (!(age > 0.0)) // also catches NaN
                age = 0.0;
            else if (age > target)
                age = target;
            uint32_t bucket = static_cast<uint32_t>(age * invWidth);
            if (bucket > lastBucket)
                bucket = lastBucket;
            const uint32_t e = cell[bucket];
            amb |= e; // high bit accumulates ambiguity
            const uint32_t leaf = e & kLeafMask;
            if (leaf >= best) {
                best = leaf;
                if (best == maxLeaf)
                    break; // nothing can raise the max further
            }
        }
        *needExact = (amb & kAmbiguous) != 0;
        return leafFreqs_[best];
    }

    /// @name Introspection
    /// @{
    const DistilledConfig &config() const { return cfg_; }
    const std::vector<double> &leafFrequencies() const { return leafFreqs_; }
    const std::vector<double> &rowBounds() const { return rowBounds_; }
    /// Internal latency target (s) the model was trained against.
    double trainedTarget() const { return trainedTarget_; }
    std::size_t maxPositions() const { return maxPositions_; }
    /// LUT bytes (bounded-memory accounting for the daemon stats).
    std::size_t lutBytes() const { return lut_.size(); }
    /// Step thresholds for (row, position): ascending ages at which the
    /// decision leaves each leaf index (tests, serialization).
    const std::vector<double> &thresholds(std::size_t row,
                                          std::size_t position) const
    {
        return thresholds_[row * maxPositions_ + position];
    }
    /// @}

    /// @name Versioned binary model format ("RDTM" + fnv1a64 checksum)
    /// @{
    std::string serialize() const;
    /// Throws std::runtime_error on bad magic/version/checksum/shape.
    static DistilledModel deserialize(const std::string &bytes);
    void save(const std::string &path) const;
    static DistilledModel load(const std::string &path);
    /// @}

    static constexpr uint8_t kAmbiguous = 0x80;
    static constexpr uint8_t kLeafMask = 0x7f;

  private:
    /// Rebuild the LUT from thresholds (deterministic; used by both
    /// distill() and deserialize(), so round-trips are bitwise stable).
    void buildLut();

    DistilledConfig cfg_;
    std::size_t maxPositions_ = 0;
    std::size_t ageBuckets_ = 0;
    std::size_t rowStride_ = 0; ///< maxPositions * ageBuckets
    uint32_t lastBucket_ = 0;
    uint32_t maxLeaf_ = 0;
    double trainedTarget_ = 0.0;
    double invBucketWidth_ = 0.0;
    double maxLeafFreq_ = 0.0;
    std::vector<double> leafFreqs_;
    std::vector<double> rowBounds_;
    /// [row * maxPositions + position] -> leaves-1 threshold ages:
    /// entry k is the last age decided as leaf k (-1: never visited).
    std::vector<std::vector<double>> thresholds_;
    std::vector<uint8_t> lut_;
};

/**
 * DVFS policy serving a distilled model, with optional exact fallback.
 *
 * Without an exact controller the policy is static: decisions come
 * from the LUT alone (ambiguous buckets serve the conservative upper
 * leaf) and profiling hooks are no-ops. With one attached, ambiguous /
 * out-of-range views are answered by the analytical path, completions
 * keep the profiler warm, and — when `autoRetrain` — every exact table
 * rebuild triggers re-distillation so the fast path tracks the
 * workload.
 */
class DistilledPolicy final : public DvfsPolicy
{
  public:
    /// Static model, no fallback.
    explicit DistilledPolicy(DistilledModel model);

    /**
     * Model + exact fallback. `exact` must outlive the policy and use
     * `dvfs`. When `autoRetrain`, periodicUpdate() re-distills after
     * each exact table rebuild.
     */
    DistilledPolicy(DistilledModel model, RubikController &exact,
                    const DvfsModel &dvfs, bool autoRetrain);

    void reset() override;

    double selectFrequency(const CoreView &core) override
    {
        const double ceiling = capCeiling(core);
        if (!core.busy)
            return core.frequency < ceiling ? core.frequency : ceiling;
        bool needExact = false;
        const double fast = model_.decide(core, &needExact);
        if (needExact && exact_) {
            ++fallbackDecisions_;
            return exact_->selectFrequency(core);
        }
        ++fastDecisions_;
        return fast < ceiling ? fast : ceiling;
    }

    void onCompletion(const CompletedRequest &done,
                      const CoreView &core) override;
    double nextPeriodicUpdate() const override;
    void periodicUpdate(const CoreView &core) override;
    void setPowerCap(double watts) override;

    const DistilledModel &model() const { return model_; }
    /// Swap in a new model (daemon retrain path).
    void setModel(DistilledModel model) { model_ = std::move(model); }

    /// @name Fast-vs-fallback accounting (daemon stats "cache hits")
    /// @{
    uint64_t fastDecisions() const { return fastDecisions_; }
    uint64_t fallbackDecisions() const { return fallbackDecisions_; }
    uint64_t retrains() const { return retrains_; }
    /// @}

  private:
    DistilledModel model_;
    RubikController *exact_ = nullptr;
    const DvfsModel *dvfs_ = nullptr;
    bool autoRetrain_ = false;
    uint64_t rebuildsSeen_ = 0;
    uint64_t fastDecisions_ = 0;
    uint64_t fallbackDecisions_ = 0;
    uint64_t retrains_ = 0;
};

} // namespace rubik

#endif // RUBIK_POLICIES_DISTILLED_H
