#include "policies/distilled.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "sim/trace.h" // fnv1a64
#include "util/error.h"

namespace rubik {

namespace {

constexpr char kModelMagic[4] = {'R', 'D', 'T', 'M'};
constexpr uint32_t kModelVersion = 1;
constexpr std::size_t kModelHeaderBytes = 16; // magic+version+checksum
// More leaves cannot be encoded in the 7 payload bits of a LUT byte.
constexpr std::size_t kMaxLeaves = 128;
constexpr std::size_t kBisectIters = 60;

template <typename T>
void
appendRaw(std::string &out, const T &value)
{
    char buf[sizeof(T)];
    std::memcpy(buf, &value, sizeof(T));
    out.append(buf, sizeof(T));
}

template <typename T>
T
readRaw(const char *data)
{
    T value;
    std::memcpy(&value, data, sizeof(T));
    return value;
}

/// Shape actually trained: distill() rounds 0 positions up to 1 and
/// fewer than 2 age buckets up to 2.
std::size_t
effectivePositions(const DistilledConfig &config)
{
    return std::max<std::size_t>(1, config.maxPositions);
}

std::size_t
effectiveBuckets(const DistilledConfig &config)
{
    return std::max<std::size_t>(2, config.ageBuckets);
}

} // anonymous namespace

void
DistilledModel::checkShape(std::size_t rows, const DistilledConfig &config)
{
    // Divide instead of multiplying, so no product can overflow.
    std::size_t room = kMaxLutBytes / effectiveBuckets(config);
    room /= effectivePositions(config);
    if (rows > room)
        throw std::runtime_error("distilled model: LUT too large");
}

DistilledModel
DistilledModel::distill(RubikController &exact, const DvfsModel &dvfs,
                        const DistilledConfig &config)
{
    RUBIK_ASSERT(exact.warm(),
                 "distill: exact controller must be warm (table built)");
    checkShape(exact.table()->rowBounds().size(), config);
    // Train against the uncapped decision: the cap is a decide-time
    // clamp (capCeiling re-applies it in DistilledPolicy), not a table
    // property — and the probe views below carry no power model, so a
    // capped selectFrequency would dereference null. Clear the cap for
    // the probes and restore it before returning.
    const double savedCap = exact.powerCap();
    exact.setPowerCap(0.0);

    DistilledModel m;
    m.cfg_ = config;
    m.maxPositions_ = effectivePositions(config);
    m.ageBuckets_ = effectiveBuckets(config);
    m.trainedTarget_ = exact.internalTarget();
    RUBIK_ASSERT(m.trainedTarget_ > 0.0, "distill: latency target not set");
    m.rowBounds_ = exact.table()->rowBounds();

    // Leaf set: the full grid, or `leaves` evenly spaced grid points
    // always including min and max (so rounding up is total and the
    // saturated decision is representable).
    const std::vector<double> &grid = dvfs.frequencies();
    const std::size_t want =
        config.leaves == 0 ? grid.size()
                           : std::min(config.leaves, grid.size());
    RUBIK_ASSERT(grid.size() <= kMaxLeaves || want < kMaxLeaves,
                 "distill: frequency grid exceeds 128 leaves");
    if (want >= grid.size()) {
        m.leafFreqs_ = grid;
    } else if (want <= 1) {
        m.leafFreqs_ = {grid.back()};
    } else {
        m.leafFreqs_.reserve(want);
        std::size_t prev = static_cast<std::size_t>(-1);
        for (std::size_t j = 0; j < want; ++j) {
            const std::size_t idx = (j * (grid.size() - 1)) / (want - 1);
            if (idx != prev)
                m.leafFreqs_.push_back(grid[idx]);
            prev = idx;
        }
    }
    m.maxLeaf_ = static_cast<uint32_t>(m.leafFreqs_.size() - 1);
    m.maxLeafFreq_ = m.leafFreqs_.back();

    // Black-box probe: `count` requests, all aged `t`, elapsed work at
    // the row's lower bound. The per-position tails are non-decreasing
    // in queue position, so the uniform-age decision *is* position
    // count-1's constraint — one probe isolates one table cell.
    std::vector<double> arrivals(m.maxPositions_, 0.0);
    const double probeNow = 16.0 * m.trainedTarget_;
    CoreView view;
    view.frequency = dvfs.maxFrequency();
    view.busy = true;
    view.arrivals = arrivals.data();
    view.dvfs = &dvfs;

    auto leafIndexFor = [&](double freq) -> std::size_t {
        for (std::size_t k = 0; k + 1 < m.leafFreqs_.size(); ++k) {
            if (freq <= m.leafFreqs_[k] * (1.0 + 1e-12))
                return k;
        }
        return m.leafFreqs_.size() - 1;
    };
    auto probe = [&](std::size_t row, std::size_t position,
                     double age) -> std::size_t {
        view.now = probeNow;
        view.elapsedCycles = m.rowBounds_[row];
        view.count = position + 1;
        std::fill(arrivals.begin(), arrivals.begin() + view.count,
                  probeNow - age);
        return leafIndexFor(exact.selectFrequency(view));
    };

    // For every (row, position, non-max leaf k): bisect the age where
    // the decision leaves leaf k. The decision is a non-decreasing step
    // function of age (slack shrinks monotonically), and it is the max
    // leaf at age == target (slack <= 0 saturates), so the boundary
    // lives in [0, target]. -1 marks leaves the decision never visits.
    const std::size_t nRows = m.rowBounds_.size();
    const std::size_t nThresh = m.leafFreqs_.size() - 1;
    m.thresholds_.assign(nRows * m.maxPositions_, {});
    for (std::size_t row = 0; row < nRows; ++row) {
        // Duplicate row bounds alias to the same probed row; training
        // them is harmless (the runtime row search can't reach them).
        for (std::size_t pos = 0; pos < m.maxPositions_; ++pos) {
            std::vector<double> &bounds =
                m.thresholds_[row * m.maxPositions_ + pos];
            bounds.assign(nThresh, -1.0);
            const std::size_t atZero = probe(row, pos, 0.0);
            double warmLo = 0.0;
            for (std::size_t k = atZero; k < nThresh; ++k) {
                double lo = warmLo; // thresholds ascend with k
                double hi = m.trainedTarget_;
                for (std::size_t it = 0; it < kBisectIters; ++it) {
                    const double mid = 0.5 * (lo + hi);
                    if (probe(row, pos, mid) <= k)
                        lo = mid;
                    else
                        hi = mid;
                }
                bounds[k] = lo;
                warmLo = lo;
            }
        }
    }

    exact.setPowerCap(savedCap);
    m.buildLut();
    return m;
}

void
DistilledModel::buildLut()
{
    const std::size_t nRows = rowBounds_.size();
    rowStride_ = maxPositions_ * ageBuckets_;
    lastBucket_ = static_cast<uint32_t>(ageBuckets_ - 1);
    invBucketWidth_ =
        static_cast<double>(ageBuckets_) / trainedTarget_;
    const double width = trainedTarget_ / static_cast<double>(ageBuckets_);
    lut_.assign(nRows * rowStride_, 0);

    for (std::size_t row = 0; row < nRows; ++row) {
        for (std::size_t pos = 0; pos < maxPositions_; ++pos) {
            const std::vector<double> &bounds =
                thresholds_[row * maxPositions_ + pos];
            auto leafAt = [&](double age) -> uint32_t {
                for (std::size_t k = 0; k < bounds.size(); ++k) {
                    if (bounds[k] >= 0.0 && age <= bounds[k])
                        return static_cast<uint32_t>(k);
                }
                return maxLeaf_;
            };
            uint8_t *cell =
                lut_.data() + row * rowStride_ + pos * ageBuckets_;
            const double band =
                static_cast<double>(cfg_.fallbackBand) * width;
            for (std::size_t b = 0; b < ageBuckets_; ++b) {
                const double lo = static_cast<double>(b) * width;
                const double hi = static_cast<double>(b + 1) * width;
                // Decisions grow with age, so the bucket's upper edge
                // is the conservative (never-slower) representative.
                uint8_t e = static_cast<uint8_t>(leafAt(hi));
                // A boundary inside the (band-widened) bucket means
                // the LUT answer can disagree with exact: mark it so
                // an attached controller can take over.
                if (leafAt(std::max(0.0, lo - band)) !=
                    leafAt(std::min(trainedTarget_, hi + band)))
                    e |= kAmbiguous;
                cell[b] = e;
            }
        }
    }
}

std::string
DistilledModel::serialize() const
{
    RUBIK_ASSERT(trained(), "serialize: model not trained");
    std::string payload;
    appendRaw(payload, static_cast<uint64_t>(maxPositions_));
    appendRaw(payload, static_cast<uint64_t>(ageBuckets_));
    appendRaw(payload, static_cast<uint64_t>(cfg_.fallbackBand));
    appendRaw(payload, static_cast<uint64_t>(cfg_.leaves));
    appendRaw(payload, static_cast<uint64_t>(leafFreqs_.size()));
    appendRaw(payload, static_cast<uint64_t>(rowBounds_.size()));
    appendRaw(payload, trainedTarget_);
    for (double f : leafFreqs_)
        appendRaw(payload, f);
    for (double b : rowBounds_)
        appendRaw(payload, b);
    // Thresholds are fixed-shape: rows * positions vectors of
    // (leaves - 1) doubles each — no per-vector framing needed.
    for (const std::vector<double> &bounds : thresholds_)
        for (double t : bounds)
            appendRaw(payload, t);

    std::string out;
    out.reserve(kModelHeaderBytes + payload.size());
    out.append(kModelMagic, sizeof(kModelMagic));
    appendRaw(out, kModelVersion);
    appendRaw(out, fnv1a64(payload.data(), payload.size()));
    out += payload;
    return out;
}

DistilledModel
DistilledModel::deserialize(const std::string &bytes)
{
    if (bytes.size() < kModelHeaderBytes + 7 * sizeof(uint64_t))
        throw std::runtime_error("distilled model: truncated header");
    if (std::memcmp(bytes.data(), kModelMagic, sizeof(kModelMagic)) != 0)
        throw std::runtime_error("distilled model: bad magic");
    const auto version = readRaw<uint32_t>(bytes.data() + 4);
    if (version != kModelVersion) {
        throw std::runtime_error("distilled model: unsupported version " +
                                 std::to_string(version));
    }
    const auto checksum = readRaw<uint64_t>(bytes.data() + 8);
    const char *p = bytes.data() + kModelHeaderBytes;
    const std::size_t payloadBytes = bytes.size() - kModelHeaderBytes;
    if (fnv1a64(p, payloadBytes) != checksum)
        throw std::runtime_error("distilled model: checksum mismatch");

    DistilledModel m;
    m.maxPositions_ = readRaw<uint64_t>(p);
    m.ageBuckets_ = readRaw<uint64_t>(p + 8);
    m.cfg_.fallbackBand = readRaw<uint64_t>(p + 16);
    m.cfg_.leaves = readRaw<uint64_t>(p + 24);
    const uint64_t nLeaves = readRaw<uint64_t>(p + 32);
    const uint64_t nRows = readRaw<uint64_t>(p + 40);
    m.trainedTarget_ = readRaw<double>(p + 48);
    m.cfg_.maxPositions = m.maxPositions_;
    m.cfg_.ageBuckets = m.ageBuckets_;
    p += 56;

    if (m.maxPositions_ == 0 || m.ageBuckets_ < 2 || nLeaves == 0 ||
        nLeaves > kMaxLeaves || nRows == 0 || nRows > (1u << 20) ||
        m.maxPositions_ > (1u << 20) || m.ageBuckets_ > (1u << 24) ||
        !(m.trainedTarget_ > 0.0) || !std::isfinite(m.trainedTarget_))
        throw std::runtime_error("distilled model: shape corrupt");
    checkShape(nRows, m.cfg_);
    const uint64_t doubles =
        nLeaves + nRows +
        nRows * m.maxPositions_ * (nLeaves - 1);
    if (payloadBytes != 56 + doubles * sizeof(double))
        throw std::runtime_error("distilled model: size mismatch");

    m.leafFreqs_.resize(nLeaves);
    for (uint64_t i = 0; i < nLeaves; ++i, p += 8)
        m.leafFreqs_[i] = readRaw<double>(p);
    m.rowBounds_.resize(nRows);
    for (uint64_t i = 0; i < nRows; ++i, p += 8)
        m.rowBounds_[i] = readRaw<double>(p);
    m.maxLeaf_ = static_cast<uint32_t>(nLeaves - 1);
    m.maxLeafFreq_ = m.leafFreqs_.back();
    m.thresholds_.assign(nRows * m.maxPositions_, {});
    for (std::vector<double> &bounds : m.thresholds_) {
        bounds.resize(nLeaves - 1);
        for (uint64_t k = 0; k + 1 < nLeaves; ++k, p += 8)
            bounds[k] = readRaw<double>(p);
    }

    // The LUT is rebuilt, not stored: the rebuild is a deterministic
    // function of the thresholds, so load(save(m)) decides bitwise
    // identically to m — and the file stays small.
    m.buildLut();
    return m;
}

void
DistilledModel::save(const std::string &path) const
{
    const std::string bytes = serialize();
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        throw std::runtime_error("distilled model: cannot write " + path);
    const std::size_t wrote =
        std::fwrite(bytes.data(), 1, bytes.size(), f);
    const bool ok = wrote == bytes.size() && std::fclose(f) == 0;
    if (!ok)
        throw std::runtime_error("distilled model: short write to " + path);
}

DistilledModel
DistilledModel::load(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        throw std::runtime_error("distilled model: cannot read " + path);
    std::string bytes;
    char buf[1 << 16];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof buf, f)) > 0)
        bytes.append(buf, got);
    std::fclose(f);
    return deserialize(bytes);
}

DistilledPolicy::DistilledPolicy(DistilledModel model)
    : model_(std::move(model))
{
}

DistilledPolicy::DistilledPolicy(DistilledModel model,
                                 RubikController &exact,
                                 const DvfsModel &dvfs, bool autoRetrain)
    : model_(std::move(model)), exact_(&exact), dvfs_(&dvfs),
      autoRetrain_(autoRetrain), rebuildsSeen_(exact.tableRebuilds())
{
}

void
DistilledPolicy::reset()
{
    if (exact_)
        exact_->reset();
    rebuildsSeen_ = exact_ ? exact_->tableRebuilds() : 0;
    fastDecisions_ = 0;
    fallbackDecisions_ = 0;
    retrains_ = 0;
}

void
DistilledPolicy::onCompletion(const CompletedRequest &done,
                              const CoreView &core)
{
    if (exact_)
        exact_->onCompletion(done, core);
}

double
DistilledPolicy::nextPeriodicUpdate() const
{
    return exact_ ? exact_->nextPeriodicUpdate() : kNever;
}

void
DistilledPolicy::periodicUpdate(const CoreView &core)
{
    if (!exact_)
        return;
    exact_->periodicUpdate(core);
    // Retrain when the table changed — or when feedback moved the
    // internal target, which silently invalidates every threshold.
    const bool stale =
        exact_->tableRebuilds() != rebuildsSeen_ ||
        (model_.trained() &&
         model_.trainedTarget() != exact_->internalTarget());
    if (autoRetrain_ && stale && exact_->warm()) {
        model_ = DistilledModel::distill(*exact_, *dvfs_, model_.config());
        rebuildsSeen_ = exact_->tableRebuilds();
        ++retrains_;
    }
}

void
DistilledPolicy::setPowerCap(double watts)
{
    DvfsPolicy::setPowerCap(watts);
    if (exact_)
        exact_->setPowerCap(watts);
}

} // namespace rubik
