/**
 * @file
 * Fidelity suite for the distilled decision model (policies/distilled.h):
 * agreement with the exact controller on randomized queue-state grids
 * (training-like and held-out), bitwise round-trip stability of the
 * versioned model format, rejection of corrupt/truncated/mis-tagged
 * bytes, and the DistilledPolicy fallback/auto-retrain wiring.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rubik_controller.h"
#include "policies/distilled.h"
#include "power/power_model.h"
#include "serve/serve_engine.h"
#include "sim/core_engine.h"
#include "sim/trace.h"
#include "util/rng.h"
#include "util/units.h"

namespace rubik {
namespace {

/// Warm controller over a lognormal service profile (the micro_model
/// bench shape): 64 completions, then one periodic update builds the
/// table. Feedback off, so the internal target stays put.
RubikController
warmController(const DvfsModel &dvfs, const PowerModel &pm,
               uint64_t seed = 3)
{
    RubikConfig cfg;
    cfg.latencyBound = 1.0 * kMs;
    cfg.feedback = false;
    cfg.warmupSamples = 16;
    RubikController rubik(dvfs, cfg);
    CoreEngine core(dvfs, pm);
    Rng rng(seed);
    for (int i = 0; i < 64; ++i) {
        CompletedRequest done;
        done.computeCycles = rng.lognormal(13.0, 0.3);
        done.memoryTime = rng.lognormal(-9.0, 0.3);
        done.completionTime = i * 1e-4;
        rubik.onCompletion(done, core.view());
    }
    rubik.periodicUpdate(core.view());
    return rubik;
}

/// A synthetic queue state with FIFO-ordered (descending) ages.
struct Probe
{
    std::vector<double> arrivals;
    double now = 0.0;
    double elapsedCycles = 0.0;

    CoreView view(const DvfsModel &dvfs) const
    {
        CoreView v;
        v.now = now;
        v.frequency = dvfs.maxFrequency();
        v.elapsedCycles = elapsedCycles;
        v.count = arrivals.size();
        v.busy = true;
        v.arrivals = arrivals.data();
        v.dvfs = &dvfs;
        return v;
    }
};

std::vector<Probe>
makeProbes(uint64_t seed, double target, double maxRowBound,
           std::size_t count, std::size_t maxDepth)
{
    Rng rng(seed);
    std::vector<Probe> probes(count);
    for (Probe &p : probes) {
        p.now = 10.0 * target;
        p.elapsedCycles = rng.uniform(0.0, 1.5 * maxRowBound);
        const std::size_t depth =
            1 + static_cast<std::size_t>(rng.uniform(0.0, 1.0) *
                                         static_cast<double>(maxDepth));
        std::vector<double> ages(depth);
        for (double &a : ages)
            a = rng.uniform(0.0, 1.2 * target);
        std::sort(ages.begin(), ages.end(),
                  [](double a, double b) { return a > b; });
        p.arrivals.resize(depth);
        for (std::size_t i = 0; i < depth; ++i)
            p.arrivals[i] = p.now - ages[i];
    }
    return probes;
}

class DistillFidelity : public ::testing::Test
{
  protected:
    DistillFidelity()
        : dvfs(DvfsModel::haswell()), pm(dvfs),
          exact(warmController(dvfs, pm))
    {
    }

    DistilledModel train(DistilledConfig cfg = DistilledConfig{})
    {
        return DistilledModel::distill(exact, dvfs, cfg);
    }

    DvfsModel dvfs;
    PowerModel pm;
    RubikController exact;
};

TEST_F(DistillFidelity, GridAgreementAtLeast99Percent)
{
    const DistilledModel model = train();
    ASSERT_TRUE(model.trained());
    const auto probes =
        makeProbes(11, model.trainedTarget(),
                   model.rowBounds().back(), 20000, 16);
    std::size_t agree = 0, safe = 0, exactWithFallback = 0;
    for (const Probe &p : probes) {
        const CoreView v = p.view(dvfs);
        const double want = exact.selectFrequency(v);
        bool needExact = false;
        const double got = model.decide(v, &needExact);
        if (got == want)
            ++agree;
        if (needExact || got == want)
            ++exactWithFallback;
        if (got >= want * (1.0 - 1e-12))
            ++safe;
    }
    const double n = static_cast<double>(probes.size());
    // LUT alone: >= 99% exact agreement (acceptance bar).
    EXPECT_GE(static_cast<double>(agree) / n, 0.99);
    // With the ambiguity fallback the policy is exact by construction.
    EXPECT_EQ(exactWithFallback, probes.size());
    // The model may round up (waste a little energy) but never
    // undershoot the exact constraint.
    EXPECT_EQ(safe, probes.size());
}

TEST_F(DistillFidelity, DistillUnderPowerCapTrainsUncappedAndRestores)
{
    // Fleet runs set a cap on the policy before the table warms, so the
    // first auto-retrain distills from a capped controller. Training
    // must see the uncapped decision (the cap is re-applied at decide
    // time) and must leave the cap in place afterwards.
    const std::string uncappedBytes = train().serialize();
    exact.setPowerCap(3.0);
    const DistilledModel model = train();
    EXPECT_DOUBLE_EQ(exact.powerCap(), 3.0);
    EXPECT_EQ(model.serialize(), uncappedBytes);
}

TEST_F(DistillFidelity, HeldOutAgreementAtLeast99Percent)
{
    // A disjoint probe distribution: deeper queues, different seed.
    const DistilledModel model = train();
    const auto probes =
        makeProbes(1234567, model.trainedTarget(),
                   model.rowBounds().back(), 20000, 48);
    std::size_t agree = 0;
    for (const Probe &p : probes) {
        const CoreView v = p.view(dvfs);
        bool needExact = false;
        const double got = model.decide(v, &needExact);
        if (needExact || got == exact.selectFrequency(v))
            ++agree;
    }
    EXPECT_GE(static_cast<double>(agree) /
                  static_cast<double>(probes.size()),
              0.99);
}

TEST_F(DistillFidelity, ReducedLeafSetNeverUndershoots)
{
    DistilledConfig cfg;
    cfg.leaves = 4;
    const DistilledModel model = train(cfg);
    ASSERT_EQ(model.leafFrequencies().size(), 4u);
    // The leaf subset always contains the grid max, so rounding up
    // stays total.
    EXPECT_DOUBLE_EQ(model.leafFrequencies().back(),
                     dvfs.maxFrequency());
    const auto probes =
        makeProbes(7, model.trainedTarget(), model.rowBounds().back(),
                   5000, 16);
    for (const Probe &p : probes) {
        const CoreView v = p.view(dvfs);
        bool needExact = false;
        const double got = model.decide(v, &needExact);
        const double want = exact.selectFrequency(v);
        ASSERT_GE(got, want * (1.0 - 1e-12));
    }
}

TEST_F(DistillFidelity, RoundTripIsBitwiseIdentical)
{
    const DistilledModel model = train();
    const std::string bytes = model.serialize();
    const DistilledModel copy = DistilledModel::deserialize(bytes);
    // Re-serialization is byte-identical (stable format, no float
    // drift through the LUT rebuild).
    EXPECT_EQ(copy.serialize(), bytes);
    const auto probes =
        makeProbes(42, model.trainedTarget(), model.rowBounds().back(),
                   20000, 32);
    for (const Probe &p : probes) {
        const CoreView v = p.view(dvfs);
        bool a = false, b = false;
        const double da = model.decide(v, &a);
        const double db = copy.decide(v, &b);
        ASSERT_EQ(da, db); // bitwise: same doubles out
        ASSERT_EQ(a, b);   // and the same fallback verdicts
    }
}

TEST_F(DistillFidelity, SaveLoadRoundTripsThroughDisk)
{
    const DistilledModel model = train();
    const std::string path =
        ::testing::TempDir() + "/distill_roundtrip.rdtm";
    model.save(path);
    const DistilledModel loaded = DistilledModel::load(path);
    EXPECT_EQ(loaded.serialize(), model.serialize());
    std::remove(path.c_str());
}

TEST_F(DistillFidelity, RejectsCorruptTruncatedAndMistagged)
{
    const std::string bytes = train().serialize();

    // Every single-byte flip must be caught by the checksum (or the
    // magic/version check when the flip hits the header). Sample a
    // spread of positions instead of all of them for test speed.
    for (std::size_t pos = 0; pos < bytes.size();
         pos += 1 + bytes.size() / 97) {
        std::string bad = bytes;
        bad[pos] = static_cast<char>(bad[pos] ^ 0x5a);
        EXPECT_THROW(DistilledModel::deserialize(bad),
                     std::runtime_error)
            << "flip at " << pos;
    }

    // Truncations at every structural boundary.
    for (const std::size_t keep :
         {std::size_t(0), std::size_t(3), std::size_t(8),
          std::size_t(15), bytes.size() / 2, bytes.size() - 1}) {
        EXPECT_THROW(DistilledModel::deserialize(bytes.substr(0, keep)),
                     std::runtime_error)
            << "truncate to " << keep;
    }

    // Trailing garbage is not silently ignored.
    EXPECT_THROW(DistilledModel::deserialize(bytes + "x"),
                 std::runtime_error);

    // Wrong magic / wrong version, checksum fixed up or not.
    std::string magic = bytes;
    magic[0] = 'X';
    EXPECT_THROW(DistilledModel::deserialize(magic),
                 std::runtime_error);
    std::string version = bytes;
    version[4] = 99;
    EXPECT_THROW(DistilledModel::deserialize(version),
                 std::runtime_error);

    // Missing file.
    EXPECT_THROW(DistilledModel::load("/nonexistent/path/model.rdtm"),
                 std::runtime_error);
}

/// A minimal RDTM file: one leaf, one row, so no thresholds at all,
/// with a valid checksum over the given shape.
std::string
tinyModelBytes(uint64_t positions, uint64_t buckets, double target)
{
    std::string payload;
    auto put = [&payload](const auto &v) {
        char buf[sizeof(v)];
        std::memcpy(buf, &v, sizeof(v));
        payload.append(buf, sizeof(v));
    };
    put(positions);
    put(buckets);
    put(uint64_t{0}); // fallback band
    put(uint64_t{0}); // configured leaves
    put(uint64_t{1}); // stored leaves
    put(uint64_t{1}); // rows
    put(target);
    put(3.4e9);       // the one leaf frequency
    put(0.0);         // the one row bound
    std::string out = "RDTM";
    const uint32_t version = 1;
    const uint64_t checksum = fnv1a64(payload.data(), payload.size());
    out.append(reinterpret_cast<const char *>(&version), sizeof(version));
    out.append(reinterpret_cast<const char *>(&checksum),
               sizeof(checksum));
    return out + payload;
}

/// The what() of the exception `fn` throws ("" when it throws none).
std::string
thrownMessage(const std::function<void()> &fn)
{
    try {
        fn();
    } catch (const std::exception &e) {
        return e.what();
    }
    return "";
}

// An 88-byte file must not make the loader allocate a LUT of any size
// it names: 4096 positions x 65536 buckets is 256 MiB, 2^20 x 2^24
// overflows into std::bad_alloc.
TEST(DistilledModelShape, LoaderRejectsOversizedLut)
{
    const std::string big = tinyModelBytes(4096, 65536, 1e-3);
    ASSERT_EQ(big.size(), 88u);
    EXPECT_EQ(thrownMessage([&] { DistilledModel::deserialize(big); }),
              "distilled model: LUT too large");
    const std::string huge =
        tinyModelBytes(uint64_t(1) << 20, uint64_t(1) << 24, 1e-3);
    EXPECT_EQ(thrownMessage([&] { DistilledModel::deserialize(huge); }),
              "distilled model: LUT too large");
    // The same shape within the cap loads.
    EXPECT_TRUE(
        DistilledModel::deserialize(tinyModelBytes(64, 4096, 1e-3))
            .trained());
}

TEST(DistilledModelShape, LoaderRejectsNonFiniteTarget)
{
    const double inf = std::numeric_limits<double>::infinity();
    for (const double target :
         {inf, std::numeric_limits<double>::quiet_NaN(), -1e-3, 0.0}) {
        EXPECT_EQ(thrownMessage([&] {
                      DistilledModel::deserialize(
                          tinyModelBytes(64, 4096, target));
                  }),
                  "distilled model: shape corrupt")
            << target;
    }
}

TEST_F(DistillFidelity, OversizedShapeFailsBeforeTraining)
{
    DistilledConfig cfg;
    cfg.maxPositions = 1024;
    cfg.ageBuckets = std::size_t(1) << 24;
    EXPECT_EQ(thrownMessage([&] { train(cfg); }),
              "distilled model: LUT too large");

    // The daemon's engine refuses the shape when it is built, not at
    // its first retrain.
    ServeConfig sc;
    sc.latencyBound = 1.0 * kMs;
    sc.distill = true;
    sc.distillConfig = cfg;
    EXPECT_EQ(thrownMessage([&] { ServeEngine engine(dvfs, sc); }),
              "distilled model: LUT too large");
    sc.distillConfig = DistilledConfig{};
    EXPECT_EQ(thrownMessage([&] { ServeEngine engine(dvfs, sc); }), "");
}

TEST_F(DistillFidelity, UntrainedModelAlwaysFallsBack)
{
    const DistilledModel model; // never trained
    EXPECT_FALSE(model.trained());
    const auto probes = makeProbes(5, 1e-3, 1e6, 100, 8);
    for (const Probe &p : probes) {
        bool needExact = false;
        model.decide(p.view(dvfs), &needExact);
        EXPECT_TRUE(needExact);
    }
}

TEST_F(DistillFidelity, DeeperThanTrainedQueueFallsBack)
{
    DistilledConfig cfg;
    cfg.maxPositions = 8;
    const DistilledModel model = train(cfg);
    const auto probes =
        makeProbes(9, model.trainedTarget(), model.rowBounds().back(),
                   50, 8);
    Probe deep = probes[0];
    deep.arrivals.assign(9, deep.now - 1e-4); // depth 9 > trained 8
    bool needExact = false;
    model.decide(deep.view(dvfs), &needExact);
    EXPECT_TRUE(needExact);
}

TEST_F(DistillFidelity, PolicyFallsBackToExactAndCounts)
{
    DistilledConfig cfg;
    cfg.ageBuckets = 64; // coarse: plenty of ambiguous states
    DistilledPolicy policy(train(cfg), exact, dvfs,
                           /*autoRetrain=*/false);
    const auto probes =
        makeProbes(21, policy.model().trainedTarget(),
                   policy.model().rowBounds().back(), 5000, 16);
    for (const Probe &p : probes) {
        const CoreView v = p.view(dvfs);
        const double got = policy.selectFrequency(v);
        // Fallback or not, the policy answer equals the exact one on
        // ambiguous states and a grid frequency everywhere.
        EXPECT_GE(got, dvfs.frequencies().front());
        EXPECT_LE(got, dvfs.maxFrequency());
    }
    EXPECT_GT(policy.fastDecisions(), 0u);
    EXPECT_GT(policy.fallbackDecisions(), 0u);
    EXPECT_EQ(policy.fastDecisions() + policy.fallbackDecisions(),
              probes.size());
}

TEST_F(DistillFidelity, AutoRetrainFollowsTableRebuilds)
{
    DistilledPolicy policy(DistilledModel(), exact, dvfs,
                           /*autoRetrain=*/true);
    EXPECT_FALSE(policy.model().trained());
    CoreEngine core(dvfs, pm);

    // No fresh completions -> the controller skips the rebuild
    // (minNewSamplesPerRebuild) -> no retrain either.
    policy.periodicUpdate(core.view());
    EXPECT_FALSE(policy.model().trained());
    EXPECT_EQ(policy.retrains(), 0u);

    // Fresh profile data + a periodic update -> table rebuild ->
    // exactly one retrain, and the model comes out trained.
    auto feed = [&](uint64_t seed, double at) {
        Rng rng(seed);
        for (int i = 0; i < 64; ++i) {
            CompletedRequest done;
            done.computeCycles = rng.lognormal(13.2, 0.4);
            done.memoryTime = rng.lognormal(-9.0, 0.3);
            done.completionTime = at + i * 1e-4;
            policy.onCompletion(done, core.view());
        }
    };
    feed(77, 1.0);
    uint64_t before = exact.tableRebuilds();
    policy.periodicUpdate(core.view());
    ASSERT_GT(exact.tableRebuilds(), before);
    EXPECT_TRUE(policy.model().trained());
    EXPECT_EQ(policy.retrains(), 1u);

    // No new rebuild -> the model is left alone.
    policy.periodicUpdate(core.view());
    EXPECT_EQ(policy.retrains(), 1u);

    // Another batch, another rebuild, another retrain.
    feed(78, 2.0);
    before = exact.tableRebuilds();
    policy.periodicUpdate(core.view());
    ASSERT_GT(exact.tableRebuilds(), before);
    EXPECT_EQ(policy.retrains(), 2u);
}

} // namespace
} // namespace rubik
