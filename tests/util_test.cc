/**
 * @file
 * Unit tests for src/util: RNG determinism and sampling quality, FFT
 * correctness, FFT vs direct convolution equivalence, and the strict
 * number grammar of parseNumber/parseNumberList.
 */

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/fft.h"
#include "util/parse_number.h"
#include "util/rng.h"
#include "util/units.h"

namespace rubik {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(8);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform(3.0, 5.0);
        EXPECT_GE(u, 3.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(Rng, UniformMeanIsHalf)
{
    Rng rng(9);
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.005);
}

TEST(Rng, UniformIntBounds)
{
    Rng rng(10);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.uniformInt(17), 17u);
}

TEST(Rng, UniformIntCoversAllValues)
{
    Rng rng(11);
    std::vector<int> counts(8, 0);
    for (int i = 0; i < 8000; ++i)
        counts[rng.uniformInt(8)]++;
    for (int c : counts)
        EXPECT_GT(c, 800); // each bucket near 1000
}

TEST(Rng, ExponentialMean)
{
    Rng rng(12);
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(2.5);
    EXPECT_NEAR(sum / n, 2.5, 0.03);
}

TEST(Rng, ExponentialMemorylessTail)
{
    // P(X > 2*mean) should be exp(-2) ~ 0.1353.
    Rng rng(13);
    const int n = 100000;
    int over = 0;
    for (int i = 0; i < n; ++i)
        over += rng.exponential(1.0) > 2.0;
    EXPECT_NEAR(static_cast<double>(over) / n, std::exp(-2.0), 0.01);
}

TEST(Rng, NormalMoments)
{
    Rng rng(14);
    const int n = 200000;
    double sum = 0.0, sq = 0.0;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal();
        sum += x;
        sq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.01);
    EXPECT_NEAR(sq / n, 1.0, 0.02);
}

TEST(Rng, NormalShiftScale)
{
    Rng rng(15);
    const int n = 100000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i)
        sum += rng.normal(10.0, 3.0);
    EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, LognormalMean)
{
    // E[exp(N(mu, sigma))] = exp(mu + sigma^2/2).
    Rng rng(16);
    const double mu = 0.5, sigma = 0.4;
    const int n = 200000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i)
        sum += rng.lognormal(mu, sigma);
    EXPECT_NEAR(sum / n, std::exp(mu + sigma * sigma / 2.0), 0.02);
}

TEST(Rng, ParetoSupportAndMean)
{
    Rng rng(17);
    const double xm = 2.0, alpha = 3.0;
    const int n = 200000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i) {
        const double x = rng.pareto(xm, alpha);
        ASSERT_GE(x, xm);
        sum += x;
    }
    // Mean = xm * alpha / (alpha - 1) = 3.
    EXPECT_NEAR(sum / n, 3.0, 0.05);
}

TEST(Rng, SplitStreamsAreIndependent)
{
    Rng a(99);
    Rng b = a.split();
    // Streams should not be identical.
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(ZipfTable, RankOneMostPopular)
{
    ZipfTable table(100, 1.0);
    Rng rng(18);
    std::vector<int> counts(101, 0);
    for (int i = 0; i < 50000; ++i)
        counts[table.sample(rng)]++;
    EXPECT_GT(counts[1], counts[2]);
    EXPECT_GT(counts[2], counts[10]);
    EXPECT_GT(counts[1], counts[100] * 10);
}

TEST(ZipfTable, SamplesInRange)
{
    ZipfTable table(10, 0.8);
    Rng rng(19);
    for (int i = 0; i < 10000; ++i) {
        const auto r = table.sample(rng);
        EXPECT_GE(r, 1u);
        EXPECT_LE(r, 10u);
    }
}

TEST(Fft, ForwardInverseRoundTrip)
{
    Rng rng(20);
    std::vector<std::complex<double>> data(64);
    for (auto &d : data)
        d = {rng.uniform(), rng.uniform()};
    auto copy = data;
    fft(copy, false);
    fft(copy, true);
    for (std::size_t i = 0; i < data.size(); ++i) {
        EXPECT_NEAR(copy[i].real(), data[i].real(), 1e-9);
        EXPECT_NEAR(copy[i].imag(), data[i].imag(), 1e-9);
    }
}

TEST(Fft, DeltaIsConvolutionIdentity)
{
    std::vector<double> delta = {1.0};
    std::vector<double> signal = {0.1, 0.2, 0.3, 0.4};
    const auto out = fftConvolve(signal, delta);
    ASSERT_EQ(out.size(), signal.size());
    for (std::size_t i = 0; i < signal.size(); ++i)
        EXPECT_NEAR(out[i], signal[i], 1e-12);
}

TEST(Fft, MatchesDirectConvolution)
{
    Rng rng(21);
    for (int trial = 0; trial < 10; ++trial) {
        std::vector<double> a(1 + rng.uniformInt(100));
        std::vector<double> b(1 + rng.uniformInt(100));
        for (auto &x : a)
            x = rng.uniform();
        for (auto &x : b)
            x = rng.uniform();
        const auto f = fftConvolve(a, b);
        const auto d = directConvolve(a, b);
        ASSERT_EQ(f.size(), d.size());
        for (std::size_t i = 0; i < f.size(); ++i)
            EXPECT_NEAR(f[i], d[i], 1e-9);
    }
}

TEST(Fft, MatchesDirectConvolutionAtEdgeSizes)
{
    // Explicit size coverage: 1, 2, non-power-of-two output sizes, the
    // model's native 128, and a long 4096 (tolerance scaled: FFT error
    // grows ~log n with values O(n) for uniform inputs).
    Rng rng(22);
    const std::pair<std::size_t, std::size_t> shapes[] = {
        {1, 1}, {1, 2}, {2, 2}, {3, 5}, {7, 100}, {128, 128},
        {128, 37}, {4096, 4096}};
    for (const auto &[na, nb] : shapes) {
        std::vector<double> a(na), b(nb);
        for (auto &x : a)
            x = rng.uniform();
        for (auto &x : b)
            x = rng.uniform();
        const auto f = fftConvolve(a, b);
        const auto d = directConvolve(a, b);
        ASSERT_EQ(f.size(), d.size());
        ASSERT_EQ(f.size(), na + nb - 1);
        const double tol = 1e-12 * static_cast<double>(na + nb);
        for (std::size_t i = 0; i < f.size(); ++i)
            EXPECT_NEAR(f[i], d[i], tol) << na << "x" << nb << " @" << i;
    }
}

TEST(Fft, PointMassTimesPointMass)
{
    // delta_i * delta_j = delta_{i+j}, exactly a single output spike.
    std::vector<double> a(16, 0.0), b(11, 0.0);
    a[5] = 1.0;
    b[7] = 1.0;
    const auto c = fftConvolve(a, b);
    ASSERT_EQ(c.size(), a.size() + b.size() - 1);
    for (std::size_t i = 0; i < c.size(); ++i) {
        if (i == 12)
            EXPECT_NEAR(c[i], 1.0, 1e-12);
        else
            EXPECT_NEAR(c[i], 0.0, 1e-12);
    }
}

TEST(Fft, ConvolutionPreservesMass)
{
    // Probability mass functions convolve to a PMF: total mass 1.
    std::vector<double> a = {0.25, 0.5, 0.25};
    std::vector<double> b = {0.1, 0.9};
    const auto c = fftConvolve(a, b);
    const double total = std::accumulate(c.begin(), c.end(), 0.0);
    EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Fft, ConvolutionShiftsMeans)
{
    // Mean of a convolution = sum of means (index domain).
    std::vector<double> a = {0.0, 1.0};       // mean index 1
    std::vector<double> b = {0.0, 0.0, 1.0};  // mean index 2
    const auto c = fftConvolve(a, b);
    double mean = 0.0;
    for (std::size_t i = 0; i < c.size(); ++i)
        mean += static_cast<double>(i) * c[i];
    EXPECT_NEAR(mean, 3.0, 1e-9);
}

TEST(Units, Conversions)
{
    EXPECT_DOUBLE_EQ(1.0 * kMs, 1e-3);
    EXPECT_DOUBLE_EQ(1.0 * kUs, 1e-6);
    EXPECT_DOUBLE_EQ(2.4 * kGHz, 2.4e9);
}

// ------------------------------------------------------------------
// parseNumber: whole token, decimal, finite, in range.

TEST(ParseNumber, RejectsEverythingButOneDecimalNumber)
{
    // Tokens strtod or strtol read as a number (or as 0), and the
    // one grammar refuses.
    for (const char *tok :
         {"", "+1", " 1", "1 ", "0x10", "0x1p3", "2x", "1e400", "-1e400",
          "1e-400", "inf", "-inf", "nan", "INF", "1,5", "1e", "."}) {
        EXPECT_EQ(parseNumber<double>(tok), std::nullopt) << "'" << tok
                                                          << "'";
    }
    for (const char *tok : {"", "+1", " 1", "0x10", "2x", "1.5", "1e3",
                            "inf", "nan", "2147483648", "-2147483649"})
        EXPECT_EQ(parseNumber<int>(tok), std::nullopt) << "'" << tok << "'";
    for (const char *tok :
         {"-0", "-1", "18446744073709551616", "99999999999999999999"})
        EXPECT_EQ(parseNumber<uint64_t>(tok), std::nullopt) << tok;
}

TEST(ParseNumber, AcceptsDecimalsExactlyAsStrtod)
{
    EXPECT_EQ(parseNumber<int>("2147483647"), 2147483647);
    EXPECT_EQ(parseNumber<int>("-2147483648"),
              std::numeric_limits<int>::min());
    EXPECT_EQ(parseNumber<int>("-0"), 0);
    EXPECT_EQ(parseNumber<int>("007"), 7);
    EXPECT_EQ(parseNumber<uint64_t>("18446744073709551615"), UINT64_MAX);
    // "-0" is the double -0.0; it passes a lower bound of 0 (-0.0 ==
    // 0.0), as it did through strtod.
    const std::optional<double> negZero = parseNumber<double>("-0", 0.0);
    ASSERT_TRUE(negZero);
    EXPECT_TRUE(std::signbit(*negZero));
    // Decimal tokens round exactly as strtod does: bit-identical.
    for (const char *tok :
         {"0.1", "0.4", ".5", "1.", "1e5", "1E+05", "2.5e-3",
          "0.30000000000000004", "4.9e-324", "1.7976931348623157e308",
          "123456789012345678901234567890", "1e-310"}) {
        const std::optional<double> v = parseNumber<double>(tok);
        ASSERT_TRUE(v) << tok;
        EXPECT_EQ(*v, std::strtod(tok, nullptr)) << tok;
    }
}

TEST(ParseNumber, RangeIsClosedAndBaseSixteenIsBareDigits)
{
    EXPECT_EQ(parseNumber<double>("1", 0.0, 1.0), 1.0);
    EXPECT_EQ(parseNumber<double>("0", 0.0, 1.0), 0.0);
    EXPECT_EQ(parseNumber<double>("1.0000001", 0.0, 1.0), std::nullopt);
    EXPECT_EQ(parseNumber<double>("-1e-300", 0.0, 1.0), std::nullopt);
    EXPECT_EQ(parseNumber<int>("0", 1), std::nullopt);
    EXPECT_EQ(parseNumber<int>("1025", 0, 1024), std::nullopt);

    EXPECT_EQ(parseNumber<uint64_t>("ffffffffffffffff", 0, UINT64_MAX, 16),
              UINT64_MAX);
    EXPECT_EQ(parseNumber<uint64_t>("00000000000000aB", 0, UINT64_MAX, 16),
              0xabu);
    EXPECT_EQ(parseNumber<uint64_t>("0x10", 0, UINT64_MAX, 16),
              std::nullopt);
    EXPECT_EQ(parseNumber<uint64_t>("10000000000000000", 0, UINT64_MAX, 16),
              std::nullopt);
}

TEST(ParseNumber, ListsNeedEveryItem)
{
    EXPECT_EQ(parseNumberList<double>("0.3,0.5", ','),
              (std::vector<double>{0.3, 0.5}));
    EXPECT_EQ(parseNumberList<int>("7", ','), std::vector<int>{7});
    EXPECT_EQ(parseNumberList<int>("1/4", '/', 0),
              (std::vector<int>{1, 4}));
    for (const char *list : {"", ",", "0.5,", ",0.5", "0.5,,0.6",
                             "0.5,x", "0.5, 0.6", "0.5,inf"})
        EXPECT_EQ(parseNumberList<double>(list, ','), std::nullopt)
            << "'" << list << "'";
    // Range applies to each item.
    EXPECT_EQ(parseNumberList<int>("96,0", ',', 1), std::nullopt);
}

} // namespace
} // namespace rubik
