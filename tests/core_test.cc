/**
 * @file
 * Tests for Rubik's core machinery: discrete distributions (conditioning,
 * convolution, quantiles), target tail tables (including the Gaussian CLT
 * extension), the online profiler, and the PI controller.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/distribution.h"
#include "core/pi_controller.h"
#include "core/profiler.h"
#include "core/rubik_controller.h"
#include "core/target_tail_table.h"
#include "runner/experiment_runner.h"
#include "stats/percentile.h"
#include "util/rng.h"
#include "util/units.h"

namespace rubik {
namespace {

/// Distribution from explicit samples.
DiscreteDistribution
fromSamples(const std::vector<double> &samples, std::size_t buckets = 128)
{
    double max_val = 0.0;
    for (double s : samples)
        max_val = std::max(max_val, s);
    Histogram h(buckets, std::max(max_val * 1.0001, 1e-9));
    for (double s : samples)
        h.add(s);
    return DiscreteDistribution::fromHistogram(h, buckets);
}

TEST(DiscreteDistribution, PointMassBasics)
{
    const auto d = DiscreteDistribution::pointMass(10.0);
    EXPECT_NEAR(d.mean(), 10.0, d.bucketWidth());
    EXPECT_NEAR(d.variance(), 0.0, d.bucketWidth() * d.bucketWidth());
    EXPECT_NEAR(d.totalMass(), 1.0, 1e-12);
    EXPECT_NEAR(d.quantile(0.5), 10.0, d.bucketWidth());
}

TEST(DiscreteDistribution, FromHistogramPreservesMoments)
{
    Rng rng(1);
    std::vector<double> samples;
    for (int i = 0; i < 50000; ++i)
        samples.push_back(rng.lognormal(0.0, 0.5));
    const auto d = fromSamples(samples);
    EXPECT_NEAR(d.mean(), mean(samples), mean(samples) * 0.02);
    EXPECT_NEAR(d.variance(), variance(samples), variance(samples) * 0.05);
}

TEST(DiscreteDistribution, QuantileMatchesSamples)
{
    Rng rng(2);
    std::vector<double> samples;
    for (int i = 0; i < 50000; ++i)
        samples.push_back(rng.exponential(1.0));
    const auto d = fromSamples(samples, 256);
    for (double q : {0.5, 0.9, 0.95}) {
        EXPECT_NEAR(d.quantile(q), percentile(samples, q),
                    percentile(samples, q) * 0.05 + 2 * d.bucketWidth());
    }
}

TEST(DiscreteDistribution, QuantileUpperIsConservative)
{
    Rng rng(3);
    std::vector<double> samples;
    for (int i = 0; i < 10000; ++i)
        samples.push_back(rng.uniform(0.0, 100.0));
    const auto d = fromSamples(samples);
    for (double q : {0.25, 0.5, 0.75, 0.95})
        EXPECT_GE(d.quantileUpper(q), d.quantile(q));
}

TEST(DiscreteDistribution, QuantileBinarySearchMatchesLinearScan)
{
    // quantile()/quantileUpper() are binary searches over the cached
    // CDF; they must return exactly what the original linear scans
    // returned, including on zero-mass runs and at exact CDF values.
    const auto scan_quantile = [](const DiscreteDistribution &d,
                                  double q) {
        q = std::clamp(q, 0.0, 1.0);
        double cum = 0.0;
        for (std::size_t i = 0; i < d.numBuckets(); ++i) {
            if (cum + d.mass(i) >= q) {
                const double frac =
                    d.mass(i) > 0.0 ? (q - cum) / d.mass(i) : 0.0;
                return (static_cast<double>(i) + frac) * d.bucketWidth();
            }
            cum += d.mass(i);
        }
        return d.max();
    };
    const auto scan_upper = [](const DiscreteDistribution &d, double q) {
        q = std::clamp(q, 0.0, 1.0);
        double cum = 0.0;
        for (std::size_t i = 0; i < d.numBuckets(); ++i) {
            cum += d.mass(i);
            if (cum >= q - 1e-12)
                return (static_cast<double>(i) + 1.0) * d.bucketWidth();
        }
        return d.max();
    };

    Rng rng(17);
    std::vector<DiscreteDistribution> dists;
    dists.push_back(DiscreteDistribution::pointMass(42.0));
    {
        // Zero-mass runs: only a few occupied buckets.
        std::vector<double> masses(128, 0.0);
        masses[0] = 0.25;
        masses[63] = 0.5;
        masses[127] = 0.25;
        dists.emplace_back(std::move(masses), 2.0);
    }
    {
        // Long 4096-bucket distribution.
        std::vector<double> samples;
        for (int i = 0; i < 20000; ++i)
            samples.push_back(rng.lognormal(1.0, 0.8));
        dists.push_back(fromSamples(samples, 4096));
    }

    for (const auto &d : dists) {
        std::vector<double> qs = {0.0,  1e-15, 0.1, 0.25, 0.5,
                                  0.75, 0.95,  0.999, 1.0};
        // Exact cumulative values stress the >= boundaries.
        double cum = 0.0;
        for (std::size_t i = 0; i < d.numBuckets(); i += 17) {
            cum += d.mass(i);
            qs.push_back(cum);
        }
        for (double q : qs) {
            EXPECT_EQ(d.quantile(q), scan_quantile(d, q)) << "q=" << q;
            EXPECT_EQ(d.quantileUpper(q), scan_upper(d, q)) << "q=" << q;
        }
    }
}

TEST(DiscreteDistribution, NormalizeSumAccuracyOnLongDistributions)
{
    // normalize() uses a plain running sum. On a 4096-bucket
    // distribution with ~7 decades of dynamic range the result must
    // still agree with a Kahan-compensated reference at ~1 ulp, and
    // totalMass() (the cached CDF tail) must report the same sum a
    // fresh scan would.
    std::vector<double> masses(4096);
    Rng rng(18);
    for (std::size_t i = 0; i < masses.size(); ++i)
        masses[i] = std::exp(-static_cast<double>(i % 1000) / 60.0) *
                    rng.uniform(0.5, 1.5);
    const DiscreteDistribution d(std::move(masses), 0.5);

    double kahan = 0.0, comp = 0.0;
    double plain = 0.0;
    for (std::size_t i = 0; i < d.numBuckets(); ++i) {
        const double m = d.mass(i);
        plain += m;
        const double y = m - comp;
        const double t = kahan + y;
        comp = (t - kahan) - y;
        kahan = t;
    }
    EXPECT_NEAR(kahan, 1.0, 1e-12);
    EXPECT_NEAR(d.totalMass(), kahan, 1e-14);
    EXPECT_EQ(d.totalMass(), plain);
}

TEST(DiscreteDistribution, ConditionalShiftsSupport)
{
    // Uniform on [0, 100): conditioning on 50 elapsed leaves a uniform
    // remainder on [0, 50).
    std::vector<double> masses(100, 1.0);
    const DiscreteDistribution d(std::move(masses), 1.0);
    const auto cond = d.conditionalOnElapsed(50.0);
    EXPECT_NEAR(cond.mean(), 25.0, 1.0);
    EXPECT_NEAR(cond.totalMass(), 1.0, 1e-9);
    EXPECT_NEAR(cond.quantile(0.99), 50.0, 2.0);
}

TEST(DiscreteDistribution, ConditionalZeroElapsedIsIdentity)
{
    Rng rng(4);
    std::vector<double> samples;
    for (int i = 0; i < 10000; ++i)
        samples.push_back(rng.lognormal(1.0, 0.3));
    const auto d = fromSamples(samples);
    const auto cond = d.conditionalOnElapsed(0.0);
    EXPECT_DOUBLE_EQ(cond.mean(), d.mean());
}

TEST(DiscreteDistribution, ConditionalBeyondSupportPredictsCompletion)
{
    const auto d = DiscreteDistribution::pointMass(10.0);
    const auto cond = d.conditionalOnElapsed(1000.0);
    // Degenerates to "about to finish".
    EXPECT_LT(cond.quantile(0.99), d.bucketWidth() * 2.0);
}

TEST(DiscreteDistribution, ConditionalMeanDecreasesForLightTails)
{
    Rng rng(5);
    std::vector<double> samples;
    for (int i = 0; i < 50000; ++i)
        samples.push_back(rng.lognormal(0.0, 0.25));
    const auto d = fromSamples(samples);
    double prev = d.mean();
    for (double w : {0.3, 0.6, 0.9}) {
        const double omega = d.quantile(w);
        const double m = d.conditionalOnElapsed(omega).mean();
        EXPECT_LT(m, prev + d.bucketWidth());
        prev = m;
    }
}

TEST(DiscreteDistribution, ConvolutionAddsMeans)
{
    const auto a = DiscreteDistribution::pointMass(5.0);
    const auto b = DiscreteDistribution::pointMass(7.0);
    const auto c = a.convolveWith(b);
    EXPECT_NEAR(c.mean(), 12.0, c.bucketWidth() * 2.0);
}

TEST(DiscreteDistribution, ConvolutionAddsVariances)
{
    Rng rng(6);
    std::vector<double> s1, s2;
    for (int i = 0; i < 50000; ++i) {
        s1.push_back(rng.lognormal(0.0, 0.4));
        s2.push_back(rng.lognormal(0.5, 0.3));
    }
    const auto a = fromSamples(s1);
    const auto b = fromSamples(s2);
    const auto c = a.convolveWith(b);
    EXPECT_NEAR(c.mean(), a.mean() + b.mean(),
                (a.mean() + b.mean()) * 0.02);
    EXPECT_NEAR(c.variance(), a.variance() + b.variance(),
                (a.variance() + b.variance()) * 0.10);
}

TEST(DiscreteDistribution, FftAndDirectConvolutionAgree)
{
    Rng rng(7);
    std::vector<double> s1, s2;
    for (int i = 0; i < 20000; ++i) {
        s1.push_back(rng.exponential(2.0));
        s2.push_back(rng.uniform(0.0, 5.0));
    }
    const auto a = fromSamples(s1);
    const auto b = fromSamples(s2);
    ConvolveOptions fft_opts, direct_opts;
    fft_opts.useFft = true;
    direct_opts.useFft = false;
    const auto f = a.convolveWith(b, fft_opts);
    const auto d = a.convolveWith(b, direct_opts);
    ASSERT_EQ(f.numBuckets(), d.numBuckets());
    EXPECT_NEAR(f.bucketWidth(), d.bucketWidth(), 1e-12);
    for (std::size_t i = 0; i < f.numBuckets(); ++i)
        EXPECT_NEAR(f.mass(i), d.mass(i), 1e-9);
}

TEST(DiscreteDistribution, ConvolutionChainStaysNormalized)
{
    Rng rng(8);
    std::vector<double> s;
    for (int i = 0; i < 10000; ++i)
        s.push_back(rng.lognormal(0.0, 0.5));
    auto acc = fromSamples(s);
    const auto base = fromSamples(s);
    for (int i = 0; i < 16; ++i) {
        acc = acc.convolveWith(base);
        EXPECT_NEAR(acc.totalMass(), 1.0, 1e-9);
        EXPECT_EQ(acc.numBuckets(), 128u);
    }
    EXPECT_NEAR(acc.mean(), 17.0 * base.mean(), 17.0 * base.mean() * 0.05);
}

TEST(DiscreteDistribution, RebinPreservesMassAndMean)
{
    Rng rng(9);
    std::vector<double> s;
    for (int i = 0; i < 20000; ++i)
        s.push_back(rng.uniform(0.0, 10.0));
    const auto d = fromSamples(s);
    const auto r = d.rebin(d.bucketWidth() * 3.7, 64);
    EXPECT_NEAR(r.totalMass(), 1.0, 1e-9);
    EXPECT_NEAR(r.mean(), d.mean(), d.mean() * 0.02);
}

TEST(TargetTailTable, TailsIncreaseWithQueuePosition)
{
    Rng rng(10);
    std::vector<double> cycles, mems;
    for (int i = 0; i < 20000; ++i) {
        cycles.push_back(rng.lognormal(13.0, 0.3)); // ~ 500K cycles
        mems.push_back(rng.lognormal(-9.0, 0.3));   // ~ 0.1 ms
    }
    TailTableConfig cfg;
    const auto table = TargetTailTable::build(fromSamples(cycles),
                                              fromSamples(mems), cfg);
    for (std::size_t row = 0; row < cfg.rows; ++row) {
        for (std::size_t i = 1; i < cfg.positions + 8; ++i) {
            EXPECT_GT(table.tailCycles(row, i),
                      table.tailCycles(row, i - 1))
                << "row " << row << " position " << i;
        }
    }
}

TEST(TargetTailTable, GaussianExtensionContinuous)
{
    // The CLT extension at position `positions` should be close to the
    // exact convolution value just before it.
    Rng rng(11);
    std::vector<double> cycles;
    for (int i = 0; i < 50000; ++i)
        cycles.push_back(rng.lognormal(13.0, 0.4));
    TailTableConfig cfg;
    cfg.positions = 16;
    const auto table = TargetTailTable::build(
        fromSamples(cycles), DiscreteDistribution::pointMass(0.0), cfg);
    const double exact15 = table.tailCycles(0, 15);
    const double gauss16 = table.tailCycles(0, 16);
    EXPECT_GT(gauss16, exact15);
    EXPECT_LT(gauss16, exact15 * 1.25);
}

TEST(TargetTailTable, RowSelection)
{
    Rng rng(12);
    std::vector<double> cycles;
    for (int i = 0; i < 20000; ++i)
        cycles.push_back(rng.lognormal(13.0, 0.3));
    TailTableConfig cfg;
    const auto table = TargetTailTable::build(
        fromSamples(cycles), DiscreteDistribution::pointMass(0.0), cfg);
    EXPECT_EQ(table.rowForElapsed(0.0), 0u);
    // Far beyond any observed service: the last row.
    EXPECT_EQ(table.rowForElapsed(1e12), cfg.rows - 1);
    // Monotone in omega.
    std::size_t prev = 0;
    for (double w = 0.0; w < 2e6; w += 1e5) {
        const std::size_t r = table.rowForElapsed(w);
        EXPECT_GE(r, prev);
        prev = r;
    }
}

/// Reference implementation: the linear scan rowForElapsed replaced.
std::size_t
scanRowForBounds(const std::vector<double> &bounds, double omega)
{
    std::size_t row = 0;
    for (std::size_t r = 1; r < bounds.size(); ++r) {
        if (omega >= bounds[r])
            row = r;
        else
            break;
    }
    return row;
}

TEST(TargetTailTable, RowForElapsedMatchesLinearScanOnRealTable)
{
    // Equivalence at and around every real row boundary, probed one ulp
    // to each side.
    Rng rng(19);
    std::vector<double> cycles;
    for (int i = 0; i < 20000; ++i)
        cycles.push_back(rng.lognormal(13.0, 0.4));
    TailTableConfig cfg;
    cfg.positions = 4;
    const auto table = TargetTailTable::build(
        fromSamples(cycles), DiscreteDistribution::pointMass(0.0), cfg);
    const std::vector<double> &bounds = table.rowBounds();

    std::vector<double> omegas = {-1.0, 0.0, 1e-9, 1e12};
    for (double b : bounds) {
        omegas.push_back(b);
        omegas.push_back(std::nextafter(b, 0.0));
        omegas.push_back(std::nextafter(b, 1e18));
    }
    for (double w : omegas) {
        EXPECT_EQ(table.rowForElapsed(w), scanRowForBounds(bounds, w))
            << "omega " << w;
    }
}

TEST(TargetTailTable, RowForBoundsHandlesDuplicateBounds)
{
    // Row quantiles are strictly increasing, so duplicate bounds cannot
    // come out of build(); pin the scan-equivalent semantics (a tie
    // selects the LAST row of the duplicate run) on handcrafted vectors
    // through the same search rowForElapsed uses.
    const std::vector<std::vector<double>> cases = {
        {0.0, 5.0, 5.0, 7.0},
        {0.0, 5.0, 5.0, 5.0, 7.0, 7.0},
        {0.0, 0.0, 0.0},
        {0.0},
        {0.0, 1.0, 2.0, 3.0},
    };
    for (const auto &bounds : cases) {
        std::vector<double> omegas = {-1.0, 0.0, 4.999, 5.0, 5.001,
                                      6.999, 7.0, 7.5, 1e12};
        for (double b : bounds) {
            omegas.push_back(std::nextafter(b, -1e18));
            omegas.push_back(b);
            omegas.push_back(std::nextafter(b, 1e18));
        }
        for (double w : omegas) {
            EXPECT_EQ(TargetTailTable::rowForBounds(bounds, w),
                      scanRowForBounds(bounds, w))
                << "omega " << w;
        }
    }
    // The duplicate-run tie lands on the last duplicate, as the old
    // linear scan did.
    EXPECT_EQ(TargetTailTable::rowForBounds({0.0, 5.0, 5.0, 7.0}, 5.0),
              2u);
}

TEST(TargetTailTable, ElapsedWorkShortensRemainingTail)
{
    // For a tight (low-variance) service distribution, a request that has
    // already executed most of its work has a much smaller remaining
    // tail: c_0[last row] << c_0[row 0].
    Rng rng(13);
    std::vector<double> cycles;
    for (int i = 0; i < 50000; ++i)
        cycles.push_back(rng.lognormal(13.0, 0.15));
    TailTableConfig cfg;
    const auto table = TargetTailTable::build(
        fromSamples(cycles), DiscreteDistribution::pointMass(0.0), cfg);
    EXPECT_LT(table.tailCycles(cfg.rows - 1, 0),
              table.tailCycles(0, 0) * 0.6);
}

TEST(TargetTailTable, PercentileRaisesTails)
{
    Rng rng(14);
    std::vector<double> cycles;
    for (int i = 0; i < 20000; ++i)
        cycles.push_back(rng.lognormal(13.0, 0.5));
    const auto dist = fromSamples(cycles);
    TailTableConfig p95, p99;
    p95.percentile = 0.95;
    p99.percentile = 0.99;
    const auto t95 = TargetTailTable::build(
        dist, DiscreteDistribution::pointMass(0.0), p95);
    const auto t99 = TargetTailTable::build(
        dist, DiscreteDistribution::pointMass(0.0), p99);
    for (std::size_t i = 0; i < 20; ++i)
        EXPECT_GE(t99.tailCycles(0, i), t95.tailCycles(0, i));
}

TEST(TargetTailTable, MemoryTailsTrackMemoryDistribution)
{
    Rng rng(15);
    std::vector<double> cycles, mems;
    for (int i = 0; i < 20000; ++i) {
        cycles.push_back(rng.lognormal(13.0, 0.3));
        mems.push_back(rng.lognormal(-8.0, 0.4));
    }
    TailTableConfig cfg;
    const auto table = TargetTailTable::build(fromSamples(cycles),
                                              fromSamples(mems), cfg);
    const auto mem_dist = fromSamples(mems);
    // m_0 at row 0 ~ 95th percentile of the memory distribution.
    EXPECT_NEAR(table.tailMemTime(0, 0), mem_dist.quantileUpper(0.95),
                mem_dist.quantileUpper(0.95) * 0.1);
}

class TableShapeSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(TableShapeSweep, BuildsAndStaysMonotoneAcrossShapes)
{
    // Property sweep over (rows, positions, buckets): every shape must
    // build successfully and produce position-monotone tails.
    const auto [rows, positions, buckets] = GetParam();
    Rng rng(16);
    std::vector<double> cycles, mems;
    for (int i = 0; i < 10000; ++i) {
        cycles.push_back(rng.lognormal(13.0, 0.4));
        mems.push_back(rng.lognormal(-9.0, 0.4));
    }
    TailTableConfig cfg;
    cfg.rows = static_cast<std::size_t>(rows);
    cfg.positions = static_cast<std::size_t>(positions);
    cfg.buckets = static_cast<std::size_t>(buckets);
    const auto table = TargetTailTable::build(
        fromSamples(cycles, cfg.buckets), fromSamples(mems, cfg.buckets),
        cfg);
    for (std::size_t r = 0; r < cfg.rows; ++r) {
        for (std::size_t i = 1; i < cfg.positions + 4; ++i) {
            EXPECT_GE(table.tailCycles(r, i),
                      table.tailCycles(r, i - 1) * 0.999);
            EXPECT_GE(table.tailMemTime(r, i),
                      table.tailMemTime(r, i - 1) * 0.999);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TableShapeSweep,
    ::testing::Combine(::testing::Values(4, 8, 16),
                       ::testing::Values(8, 16),
                       ::testing::Values(64, 128)));

// ------------------------------------------------------------------
// Parallel table build: the boundary chains of a build run on the
// spare-core helpers (ExperimentRunner::parallelForOnSpareCores) when
// the caller owns spare cores, and serially inside a multi-worker
// pool. Either way every table is bitwise the serial one.

/// Every row bound and tail of a table, exact columns and the Gaussian
/// extension alike.
std::vector<double>
tableValues(const TargetTailTable &t)
{
    std::vector<double> v = t.rowBounds();
    for (std::size_t r = 0; r < t.config().rows; ++r) {
        for (std::size_t i = 0; i < 2 * t.config().positions; ++i) {
            v.push_back(t.tailCycles(r, i));
            v.push_back(t.tailMemTime(r, i));
        }
    }
    return v;
}

bool
sameBytes(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// A mixture, two classes (one slot empty between them) and the values
/// of every table build() and buildBatch() make from them, with and
/// without conservativeRowBounds.
struct TableInputs
{
    std::vector<DiscreteDistribution> compute, memory; // [0]: mixture
    TableInputs()
    {
        Rng rng(77);
        for (int k = 0; k < 3; ++k) {
            std::vector<double> c, m;
            for (int i = 0; i < 4000; ++i) {
                c.push_back(rng.lognormal(13.0 + 0.3 * k, 0.2 + 0.3 * k));
                m.push_back(rng.lognormal(-9.0 - 0.2 * k, 0.4));
            }
            compute.push_back(fromSamples(c));
            memory.push_back(fromSamples(m));
        }
    }

    std::vector<std::vector<double>> buildAll() const
    {
        std::vector<std::vector<double>> out;
        for (const bool conservative : {false, true}) {
            TailTableConfig cfg;
            cfg.conservativeRowBounds = conservative;
            out.push_back(tableValues(
                TargetTailTable::build(compute[0], memory[0], cfg)));
            out.push_back(tableValues(TargetTailTable::build(
                compute[1], memory[1], compute[0], memory[0], cfg)));
            const auto batch = TargetTailTable::buildBatch(
                compute[0], memory[0], {&compute[1], nullptr, &compute[2]},
                {&memory[1], nullptr, &memory[2]}, cfg);
            EXPECT_EQ(batch.size(), 4u);
            EXPECT_FALSE(batch[2].has_value());
            for (const std::size_t k : {0, 1, 3})
                out.push_back(tableValues(*batch[k]));
        }
        return out;
    }
};

/// Builds inside a two-worker pool job: serial, since such a pool's
/// cells already use every core.
std::vector<std::vector<double>>
buildInWidePool(const TableInputs &in)
{
    ExperimentRunner pool(2);
    std::vector<std::function<std::vector<std::vector<double>>()>> job = {
        [&in] { return in.buildAll(); }};
    return pool.runBatch(std::move(job))[0];
}

TEST(ParallelTableBuild, HelperBuildsMatchSerialBuildsBitwise)
{
    const TableInputs in;
    const auto serial = buildInWidePool(in);
    const auto helped = in.buildAll(); // main thread: helpers engage
    ASSERT_EQ(serial.size(), helped.size());
    for (std::size_t k = 0; k < serial.size(); ++k)
        EXPECT_TRUE(sameBytes(serial[k], helped[k])) << "table " << k;

    // The batch members are each what an individual build makes.
    EXPECT_TRUE(sameBytes(helped[0], helped[2]));
    EXPECT_TRUE(sameBytes(helped[1], helped[3]));
}

TEST(ParallelTableBuild, ConcurrentBuildsBothMatchSerialBuilds)
{
    const TableInputs in;
    const auto serial = buildInWidePool(in);
    // One caller gets the helpers, the other builds serially; which
    // one varies run to run, and neither may change a byte.
    std::vector<std::vector<double>> a, b;
    std::thread other([&] {
        for (int rep = 0; rep < 3; ++rep)
            b = in.buildAll();
    });
    for (int rep = 0; rep < 3; ++rep)
        a = in.buildAll();
    other.join();
    ASSERT_EQ(a.size(), serial.size());
    ASSERT_EQ(b.size(), serial.size());
    for (std::size_t k = 0; k < serial.size(); ++k) {
        EXPECT_TRUE(sameBytes(serial[k], a[k])) << "table " << k;
        EXPECT_TRUE(sameBytes(serial[k], b[k])) << "table " << k;
    }
}

// A throwing chain task surfaces as the lowest failed index, as a
// serial loop over the chains would have, with or without helpers.
TEST(ParallelTableBuild, LowestFailedTaskIsRethrown)
{
    const auto run = [] {
        try {
            ExperimentRunner::parallelForOnSpareCores(
                32, [](std::size_t i) {
                    if (i == 5 || i == 9 || i == 30)
                        throw std::runtime_error(std::to_string(i));
                });
        } catch (const std::runtime_error &e) {
            return std::string(e.what());
        }
        return std::string("no exception");
    };
    EXPECT_EQ(run(), "5"); // main thread: helpers engage
    ExperimentRunner pool(2);
    std::vector<std::function<std::string()>> job = {run};
    EXPECT_EQ(pool.runBatch(std::move(job))[0], "5"); // serial
}

TEST(Profiler, WindowEviction)
{
    Profiler prof(100, 64);
    for (int i = 0; i < 250; ++i)
        prof.record(1000.0, 1e-6);
    EXPECT_EQ(prof.numSamples(), 100u);
}

TEST(Profiler, DistributionsReflectSamples)
{
    Profiler prof(4096, 128);
    Rng rng(17);
    std::vector<double> cycles;
    for (int i = 0; i < 4000; ++i) {
        const double c = rng.lognormal(13.0, 0.3);
        cycles.push_back(c);
        prof.record(c, 0.5e-3);
    }
    const auto cd = prof.computeDistribution();
    EXPECT_NEAR(cd.mean(), mean(cycles), mean(cycles) * 0.03);
    const auto md = prof.memoryDistribution();
    EXPECT_NEAR(md.mean(), 0.5e-3, 0.5e-3 * 0.05);
}

TEST(Profiler, EmptyYieldsPointMassAtZero)
{
    Profiler prof(100, 64);
    const auto d = prof.computeDistribution();
    EXPECT_NEAR(d.mean(), 0.0, d.bucketWidth());
}

TEST(PiController, ConvergesToStep)
{
    // Track a constant positive error: the integral term must push the
    // output upward until the clamp.
    PiController pi(0.5, 1.0, 0.0, 10.0, 1.0);
    double out = 1.0;
    for (int i = 0; i < 200; ++i)
        out = pi.update(0.5, 0.1);
    EXPECT_GT(out, 9.0);
}

TEST(PiController, ClampsOutput)
{
    PiController pi(1.0, 10.0, 0.5, 2.0, 1.0);
    for (int i = 0; i < 100; ++i)
        pi.update(10.0, 1.0);
    EXPECT_LE(pi.output(), 2.0);
    for (int i = 0; i < 100; ++i)
        pi.update(-10.0, 1.0);
    EXPECT_GE(pi.output(), 0.5);
}

TEST(PiController, ZeroErrorHoldsOutput)
{
    PiController pi(0.5, 0.5, 0.0, 10.0, 3.0);
    pi.update(0.0, 0.1);
    pi.update(0.0, 0.1);
    EXPECT_DOUBLE_EQ(pi.output(), 3.0);
}

TEST(PiController, ResetRestoresInitial)
{
    PiController pi(0.5, 0.5, 0.0, 10.0, 3.0);
    pi.update(1.0, 1.0);
    EXPECT_NE(pi.output(), 3.0);
    pi.reset(3.0);
    EXPECT_DOUBLE_EQ(pi.output(), 3.0);
}

TEST(RubikController, RequiresLatencyBound)
{
    const DvfsModel dvfs = DvfsModel::haswell();
    RubikConfig cfg;
    cfg.latencyBound = 1.0 * kMs;
    RubikController rubik(dvfs, cfg);
    EXPECT_FALSE(rubik.warm());
    EXPECT_DOUBLE_EQ(rubik.internalTarget(), 1.0 * kMs);
}

} // namespace
} // namespace rubik
