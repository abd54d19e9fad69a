#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include "kernel/bandwidth.hpp"
#include "kernel/kde.hpp"
#include "kernel/kernels.hpp"
#include "memory/arena.hpp"
#include "numerics/integration.hpp"
#include "numerics/special_functions.hpp"
#include "stats/descriptive.hpp"
#include "stats/rng.hpp"

namespace wde {
namespace kernel {
namespace {

class KernelSweepTest : public testing::TestWithParam<KernelType> {};

TEST_P(KernelSweepTest, UnitMass) {
  const Kernel k(GetParam());
  const double mass = numerics::IntegrateFunction(
      [&](double u) { return k.Evaluate(u); }, -k.support_radius(),
      k.support_radius(), 4096);
  EXPECT_NEAR(mass, 1.0, 1e-6);
}

TEST_P(KernelSweepTest, Symmetry) {
  const Kernel k(GetParam());
  for (double u : {0.1, 0.33, 0.8, 0.99}) {
    EXPECT_DOUBLE_EQ(k.Evaluate(u), k.Evaluate(-u));
  }
}

TEST_P(KernelSweepTest, CdfEndpointsAndMidpoint) {
  const Kernel k(GetParam());
  EXPECT_DOUBLE_EQ(k.Cdf(-k.support_radius() - 1.0), 0.0);
  EXPECT_DOUBLE_EQ(k.Cdf(k.support_radius() + 1.0), 1.0);
  EXPECT_NEAR(k.Cdf(0.0), 0.5, 1e-6);
}

TEST_P(KernelSweepTest, EvaluateManyBitIdenticalToScalar) {
  const Kernel k(GetParam());
  stats::Rng rng(71);
  std::vector<double> us;
  for (int i = 0; i < 500; ++i) {
    us.push_back(rng.Uniform(-k.support_radius() - 1.0, k.support_radius() + 1.0));
  }
  // The exact branch points of the scalar paths.
  us.push_back(-k.support_radius());
  us.push_back(k.support_radius());
  us.push_back(-1.0);
  us.push_back(0.0);
  us.push_back(1.0);
  std::vector<double> batch(us.size());
  k.EvaluateMany(us, batch);
  for (size_t i = 0; i < us.size(); ++i) {
    EXPECT_EQ(batch[i], k.Evaluate(us[i])) << k.name() << " u=" << us[i];
  }
  k.CdfMany(us, batch);
  for (size_t i = 0; i < us.size(); ++i) {
    EXPECT_EQ(batch[i], k.Cdf(us[i])) << k.name() << " u=" << us[i];
  }
}

// Independently written antiderivatives ∫_{-R}^{u} K, for |u| < R.
double ReferenceCdf(KernelType type, double u) {
  switch (type) {
    case KernelType::kEpanechnikov:
      return (2.0 + 3.0 * u - u * u * u) / 4.0;
    case KernelType::kGaussian:
      return 0.5 * std::erfc(-u / std::sqrt(2.0));
    case KernelType::kBiweight:
      return (8.0 + 15.0 * u - 10.0 * std::pow(u, 3) + 3.0 * std::pow(u, 5)) / 16.0;
    case KernelType::kTriangular:
      return u < 0.0 ? (1.0 + u) * (1.0 + u) / 2.0 : 1.0 - (1.0 - u) * (1.0 - u) / 2.0;
  }
  return 0.0;
}

TEST_P(KernelSweepTest, CdfIsTheClosedFormAntiderivative) {
  const Kernel k(GetParam());
  const double r = k.support_radius();
  double prev = 0.0;
  for (int i = -1000; i <= 1000; ++i) {
    const double u = r * static_cast<double>(i) / 1000.0;
    const double c = k.Cdf(u);
    if (std::fabs(u) < r) {
      EXPECT_NEAR(c, ReferenceCdf(GetParam(), u), 1e-15) << k.name() << " u=" << u;
    }
    EXPECT_GE(c, prev) << k.name() << " u=" << u;  // monotone
    prev = c;
  }
  // Exact saturation at ±R, continuous into it.
  EXPECT_EQ(k.Cdf(-r), 0.0);
  EXPECT_EQ(k.Cdf(r), 1.0);
  EXPECT_NEAR(k.Cdf(std::nextafter(r, 0.0)), 1.0, 1e-14);
  EXPECT_NEAR(k.Cdf(std::nextafter(-r, 0.0)), 0.0, 1e-14);
  // The CDF's derivative is the kernel.
  for (double u : {-0.7 * r, -0.2 * r, 0.1 * r, 0.55 * r}) {
    const double d = 1e-6;
    EXPECT_NEAR((k.Cdf(u + d) - k.Cdf(u - d)) / (2.0 * d), k.Evaluate(u), 1e-8)
        << k.name() << " u=" << u;
  }
}

TEST_P(KernelSweepTest, SelfConvolutionIsADensity) {
  const Kernel k(GetParam());
  const double mass = numerics::IntegrateFunction(
      [&](double t) { return k.SelfConvolution(t); }, -2.0 * k.support_radius(),
      2.0 * k.support_radius(), 4096);
  EXPECT_NEAR(mass, 1.0, 1e-4);
  EXPECT_GT(k.Roughness(), 0.0);
  // K*K peaks at 0 for symmetric unimodal kernels.
  EXPECT_GE(k.SelfConvolution(0.0), k.SelfConvolution(0.5));
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelSweepTest,
                         testing::Values(KernelType::kEpanechnikov,
                                         KernelType::kGaussian, KernelType::kBiweight,
                                         KernelType::kTriangular));

TEST(EpanechnikovTest, ClosedFormValues) {
  const Kernel k(KernelType::kEpanechnikov);
  EXPECT_DOUBLE_EQ(k.Evaluate(0.0), 0.75);
  EXPECT_DOUBLE_EQ(k.Evaluate(0.5), 0.75 * 0.75);
  EXPECT_DOUBLE_EQ(k.Evaluate(1.1), 0.0);
  // CDF closed form: (2 + 3u − u³)/4.
  for (double u : {-0.5, 0.0, 0.3, 0.9}) {
    EXPECT_NEAR(k.Cdf(u), 0.25 * (2.0 + 3.0 * u - u * u * u), 1e-15);
  }
  // Roughness ∫K² = 3/5.
  EXPECT_NEAR(k.Roughness(), 0.6, 1e-5);
}

TEST(EpanechnikovTest, SelfConvolutionClosedForm) {
  const Kernel k(KernelType::kEpanechnikov);
  // (K*K)(t) = (3/160)(2−|t|)³(t² + 6|t| + 4) on |t| ≤ 2.
  for (double t : {0.0, 0.4, 1.0, 1.7}) {
    const double a = std::fabs(t);
    const double expected =
        3.0 / 160.0 * std::pow(2.0 - a, 3.0) * (a * a + 6.0 * a + 4.0);
    EXPECT_NEAR(k.SelfConvolution(t), expected, 1e-5) << "t=" << t;
    EXPECT_NEAR(k.SelfConvolution(-t), expected, 1e-5);
  }
  EXPECT_NEAR(k.SelfConvolution(2.1), 0.0, 1e-12);
}

TEST(GaussianKernelTest, SelfConvolutionIsWiderGaussian) {
  const Kernel k(KernelType::kGaussian);
  // K*K for N(0,1) is the N(0,2) density.
  for (double t : {0.0, 0.7, 1.9}) {
    EXPECT_NEAR(k.SelfConvolution(t),
                numerics::NormalPdf(t / std::sqrt(2.0)) / std::sqrt(2.0), 1e-6);
  }
}

// ---------------------------------------------------------------------- KDE

TEST(KdeTest, RejectsBadInput) {
  const Kernel k(KernelType::kEpanechnikov);
  EXPECT_FALSE(KernelDensityEstimator::Create(k, 0.1, {}).ok());
  const std::vector<double> xs{1.0, 2.0};
  EXPECT_FALSE(KernelDensityEstimator::Create(k, 0.0, xs).ok());
  EXPECT_FALSE(KernelDensityEstimator::Create(k, -1.0, xs).ok());
}

TEST(KdeTest, IntegratesToOne) {
  stats::Rng rng(3);
  std::vector<double> xs(500);
  for (double& x : xs) x = rng.UniformDouble();
  const auto kde = KernelDensityEstimator::Create(
      Kernel(KernelType::kEpanechnikov), 0.1, xs);
  ASSERT_TRUE(kde.ok());
  const double mass = numerics::IntegrateFunction(
      [&](double x) { return kde->Evaluate(x); }, -0.5, 1.5, 4096);
  EXPECT_NEAR(mass, 1.0, 1e-3);
  EXPECT_NEAR(kde->IntegrateRange(-0.5, 1.5), 1.0, 1e-6);
}

TEST(KdeTest, SinglePointMass) {
  const std::vector<double> xs{0.5};
  const auto kde = KernelDensityEstimator::Create(
      Kernel(KernelType::kEpanechnikov), 0.25, xs);
  ASSERT_TRUE(kde.ok());
  EXPECT_NEAR(kde->Evaluate(0.5), 0.75 / 0.25, 1e-12);  // K(0)/h
  EXPECT_DOUBLE_EQ(kde->Evaluate(0.76), 0.0);
  EXPECT_DOUBLE_EQ(kde->Evaluate(0.24), 0.0);
}

TEST(KdeTest, RecoversGaussianDensity) {
  stats::Rng rng(5);
  std::vector<double> xs(8000);
  for (double& x : xs) x = rng.Gaussian();
  const double h = RuleOfThumbBandwidth(xs);
  const auto kde =
      KernelDensityEstimator::Create(Kernel(KernelType::kEpanechnikov), h, xs);
  ASSERT_TRUE(kde.ok());
  for (double x : {-1.0, 0.0, 1.0}) {
    EXPECT_NEAR(kde->Evaluate(x), numerics::NormalPdf(x), 0.03) << "x=" << x;
  }
}

TEST(KdeTest, IntegrateRangeMatchesQuadrature) {
  stats::Rng rng(7);
  std::vector<double> xs(300);
  for (double& x : xs) x = rng.UniformDouble();
  const auto kde =
      KernelDensityEstimator::Create(Kernel(KernelType::kEpanechnikov), 0.07, xs);
  ASSERT_TRUE(kde.ok());
  const double direct = numerics::IntegrateFunction(
      [&](double x) { return kde->Evaluate(x); }, 0.2, 0.7, 4096);
  EXPECT_NEAR(kde->IntegrateRange(0.2, 0.7), direct, 1e-5);
}

TEST(KdeTest, GridEvaluationMatchesPointwise) {
  const std::vector<double> xs{0.2, 0.5, 0.8};
  const auto kde =
      KernelDensityEstimator::Create(Kernel(KernelType::kEpanechnikov), 0.2, xs);
  ASSERT_TRUE(kde.ok());
  const std::vector<double> grid = kde->EvaluateOnGrid(0.0, 1.0, 11);
  for (size_t i = 0; i < grid.size(); ++i) {
    EXPECT_DOUBLE_EQ(grid[i], kde->Evaluate(0.1 * static_cast<double>(i)));
  }
}

// ------------------------------------------------- KDE CDF vs long double

// The O(n) oracle: every sample's closed-form Epanechnikov CDF term in long
// double, saturating at |u| >= 1.
double OracleEpanechnikovCdf(const std::vector<double>& data, double h,
                             double x) {
  long double acc = 0.0L;
  for (double xi : data) {
    const long double u =
        (static_cast<long double>(x) - static_cast<long double>(xi)) / h;
    if (u >= 1.0L) {
      acc += 1.0L;
    } else if (u > -1.0L) {
      acc += 0.5L + 0.75L * u - 0.25L * u * u * u;
    }
  }
  return static_cast<double>(acc / static_cast<long double>(data.size()));
}

// Uniform probes overhanging the data's range by a fifth on each side, plus
// queries exactly at samples and at x_i ± h (the saturation boundaries),
// from a spread subset of the samples.
std::vector<double> OracleQueries(const std::vector<double>& data, double h,
                                  size_t uniform, size_t per_sample) {
  stats::Rng rng(41);
  const auto [min, max] = std::minmax_element(data.begin(), data.end());
  const double margin = 0.2 * (*max - *min);
  std::vector<double> xs;
  for (size_t i = 0; i < uniform; ++i) {
    xs.push_back(rng.Uniform(*min - margin, *max + margin));
  }
  const size_t stride = std::max<size_t>(1, data.size() / per_sample);
  for (size_t i = 0; i < data.size(); i += stride) {
    xs.push_back(data[i]);
    xs.push_back(data[i] + h);
    xs.push_back(data[i] - h);
  }
  return xs;
}

void ExpectCdfMatchesOracle(const std::vector<double>& data, double h,
                            size_t uniform, size_t per_sample) {
  const auto kde =
      KernelDensityEstimator::Create(Kernel(KernelType::kEpanechnikov), h, data);
  ASSERT_TRUE(kde.ok());
  double worst = 0.0;
  for (double x : OracleQueries(data, h, uniform, per_sample)) {
    const double got = kde->CdfAt(x);
    worst = std::max(worst, std::fabs(got - OracleEpanechnikovCdf(data, h, x)));
    EXPECT_GE(got, 0.0);
    EXPECT_LE(got, 1.0);
  }
  EXPECT_LE(worst, 1e-12) << "n=" << data.size() << " h=" << h;
}

std::vector<double> UniformSample(uint64_t seed, size_t n) {
  stats::Rng rng(seed);
  std::vector<double> xs(n);
  for (double& x : xs) x = rng.UniformDouble();
  return xs;
}

TEST(KdeCdfOracleTest, BlockBoundarySizes) {
  // Below, at and around one block of 64, and a few blocks plus a tail.
  for (size_t n : {4u, 63u, 64u, 65u, 199u}) {
    const std::vector<double> data = UniformSample(n, n);
    for (double h : {RuleOfThumbBandwidth(data), 0.02, 0.3, 2.0}) {
      ExpectCdfMatchesOracle(data, h, 200, 64);
    }
  }
}

TEST(KdeCdfOracleTest, LargeSample) {
  const std::vector<double> data = UniformSample(7, 100000);
  for (double h : {RuleOfThumbBandwidth(data), 0.2}) {
    ExpectCdfMatchesOracle(data, h, 100, 40);
  }
}

TEST(KdeCdfOracleTest, TieHeavyData) {
  // Nine distinct values: whole blocks of ties, windows that start and end
  // inside runs of equal samples.
  stats::Rng rng(43);
  std::vector<double> data(5000);
  for (double& x : data) x = static_cast<double>(rng.UniformInt(9)) / 8.0;
  for (double h : {RuleOfThumbBandwidth(data), 0.05, 0.125}) {
    ExpectCdfMatchesOracle(data, h, 200, 60);
  }
}

TEST(KdeCdfOracleTest, AllEqualButOne) {
  // Zero IQR: the rule-of-thumb falls back to the tiny standard deviation,
  // the hardest case for cancellation (domain spread / h is large).
  std::vector<double> data(4096, 0.3);
  data.push_back(0.9);
  for (double h : {RuleOfThumbBandwidth(data), 0.01, 0.7}) {
    ExpectCdfMatchesOracle(data, h, 200, 60);
  }
}

TEST(KdeCdfOracleTest, SamplesAtTheDomainEdges) {
  stats::Rng rng(47);
  std::vector<double> data(3000);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = i % 3 == 0 ? 0.0 : (i % 3 == 1 ? 1.0 : rng.UniformDouble());
  }
  for (double h : {RuleOfThumbBandwidth(data), 0.03}) {
    ExpectCdfMatchesOracle(data, h, 200, 60);
  }
}

TEST(KdeCdfOracleTest, ShiftedAndScaledData) {
  // Far from the origin and on a wide scale: the moments are centred on the
  // data, so neither costs accuracy.
  std::vector<double> data = UniformSample(61, 20000);
  for (double& x : data) x = 1e6 + 250.0 * x;
  for (double h : {RuleOfThumbBandwidth(data), 3.0}) {
    ExpectCdfMatchesOracle(data, h, 200, 60);
  }
}

TEST(KdeCdfOracleTest, ExtremeScalesFallBackToTheWindowSum) {
  // Spread over 1e8 bandwidths, and a bandwidth below 1e-60: no moment
  // index, the window is summed sample by sample — still exact.
  std::vector<double> wide = UniformSample(67, 5000);
  for (double& x : wide) x *= 1e8;
  ExpectCdfMatchesOracle(wide, 1.0, 200, 60);
  std::vector<double> tiny = UniformSample(71, 5000);
  for (double& x : tiny) x *= 1e-70;
  ExpectCdfMatchesOracle(tiny, RuleOfThumbBandwidth(tiny), 200, 60);
}

TEST(KdeCdfOracleTest, OtherKernelsMatchThePerSampleSum) {
  const std::vector<double> data = UniformSample(53, 3000);
  for (KernelType type :
       {KernelType::kGaussian, KernelType::kBiweight, KernelType::kTriangular}) {
    const auto kde = KernelDensityEstimator::Create(Kernel(type), 0.04, data);
    ASSERT_TRUE(kde.ok());
    for (double x : OracleQueries(data, 0.04, 100, 30)) {
      EXPECT_NEAR(kde->CdfAt(x),
                  kde->IntegrateRange(-std::numeric_limits<double>::infinity(), x),
                  1e-13)
          << kde->kernel().name() << " x=" << x;
    }
  }
}

TEST(KdeCdfOracleTest, RestoredFromSortedAnswersBitwise) {
  // The index is derived from the sorted buffer alone, so an estimator
  // adopting the same buffer (snapshot restore) answers bit-identically.
  const std::vector<double> data = UniformSample(59, 10000);
  const double h = RuleOfThumbBandwidth(data);
  const auto live =
      KernelDensityEstimator::Create(Kernel(KernelType::kEpanechnikov), h, data);
  ASSERT_TRUE(live.ok());
  const auto sorted_column = [&live](bool reversed) {
    const memory::ColumnSpec specs[] = {
        {memory::ColumnKind::kF64, live->sample_size()}};
    memory::Arena column = memory::Arena::Create(specs);
    std::copy(live->samples().begin(), live->samples().end(),
              column.MutableF64(0).begin());
    if (reversed) std::reverse(column.MutableF64(0).begin(), column.MutableF64(0).end());
    return column;
  };
  const auto restored = KernelDensityEstimator::AdoptSorted(
      Kernel(KernelType::kEpanechnikov), h, sorted_column(false));
  ASSERT_TRUE(restored.ok());
  EXPECT_FALSE(KernelDensityEstimator::AdoptSorted(Kernel(KernelType::kEpanechnikov),
                                                   h, sorted_column(true))
                   .ok());
  const KernelDensityEstimator copy = *live;
  for (double x : OracleQueries(data, h, 200, 50)) {
    EXPECT_EQ(restored->CdfAt(x), live->CdfAt(x)) << "x=" << x;
    EXPECT_EQ(copy.CdfAt(x), live->CdfAt(x)) << "x=" << x;
  }
}

/// An arena holding one F64 column of `values`, copied as is.
memory::Arena ColumnOf(std::span<const double> values) {
  const memory::ColumnSpec specs[] = {{memory::ColumnKind::kF64, values.size()}};
  memory::Arena column = memory::Arena::CreateForOverwrite(specs);
  std::copy(values.begin(), values.end(), column.MutableF64(0).begin());
  return column;
}

TEST(KdeAdoptSortedTest, RejectsEveryKindOfDisorderInOneSweep) {
  // 5 whole blocks of 64 and a trailing partial block of 17. The index
  // sweep reads whole blocks and the tail separately, so each seam gets a
  // swap of its own; NaN fails every comparison wherever it sits.
  std::vector<double> sorted = UniformSample(61, 64 * 5 + 17);
  std::sort(sorted.begin(), sorted.end());
  const size_t n = sorted.size();
  const auto swapped = [&sorted](size_t i) {
    std::vector<double> xs = sorted;
    std::swap(xs[i], xs[i + 1]);
    return xs;
  };
  const auto with_nan = [&sorted](size_t i) {
    std::vector<double> xs = sorted;
    xs[i] = std::numeric_limits<double>::quiet_NaN();
    return xs;
  };
  const std::vector<std::vector<double>> bad = {
      swapped(0),            // first pair
      swapped(64 * 2 + 10),  // inside a block
      swapped(64 * 3 - 1),   // across the block boundary 64·3 − 1 / 64·3
      swapped(64 * 5 - 1),   // across the last whole block into the tail
      swapped(n - 3),        // inside the trailing partial block
      swapped(n - 2),        // the last pair
      with_nan(0),
      with_nan(n / 2),
      with_nan(64 * 4),  // a block's first sample
      with_nan(n - 1)};
  for (const KernelType type : {KernelType::kEpanechnikov, KernelType::kGaussian}) {
    ASSERT_TRUE(
        KernelDensityEstimator::AdoptSorted(Kernel(type), 0.05, ColumnOf(sorted)).ok());
    for (size_t c = 0; c < bad.size(); ++c) {
      const auto adopted =
          KernelDensityEstimator::AdoptSorted(Kernel(type), 0.05, ColumnOf(bad[c]));
      ASSERT_FALSE(adopted.ok()) << "case " << c << " kernel " << static_cast<int>(type);
      EXPECT_EQ(adopted.status().code(), StatusCode::kInvalidArgument);
    }
  }
  // Ties are ascending, and so is a lone NaN-free value.
  std::vector<double> ties(200, 0.25);
  ties.back() = 0.5;
  EXPECT_TRUE(KernelDensityEstimator::AdoptSorted(Kernel(KernelType::kEpanechnikov), 0.05,
                                                  ColumnOf(ties))
                  .ok());
  const std::vector<double> lone_nan = {std::numeric_limits<double>::quiet_NaN()};
  EXPECT_FALSE(KernelDensityEstimator::AdoptSorted(Kernel(KernelType::kEpanechnikov),
                                                   0.05, ColumnOf(lone_nan))
                   .ok());
}

TEST(KdeAdoptSortedTest, AdoptedColumnAnswersLikeCreate) {
  // AdoptSorted builds the block-moment index in its order-check sweep;
  // Create() builds it lazily at the first CdfAt. Same bits either way: at
  // sizes around a block, with duplicates and both zeros, and with a
  // bandwidth too small for any index (range > 1e6·h).
  for (const size_t n :
       {size_t{63}, size_t{64}, size_t{65}, size_t{1000}, size_t{4097}}) {
    std::vector<double> data = UniformSample(67 + n, n);
    for (size_t i = 0; i + 7 < n; i += 7) data[i + 1] = data[i];
    data[n / 3] = 0.0;
    data[n / 2] = -0.0;
    for (const double h : {0.04, 1e-8}) {
      const auto live =
          KernelDensityEstimator::Create(Kernel(KernelType::kEpanechnikov), h, data);
      ASSERT_TRUE(live.ok());
      const auto adopted = KernelDensityEstimator::AdoptSorted(
          Kernel(KernelType::kEpanechnikov), h, ColumnOf(live->samples()));
      ASSERT_TRUE(adopted.ok());
      const std::vector<double> xs = OracleQueries(data, h, 100, 40);
      std::vector<double> live_many(xs.size()), adopted_many(xs.size());
      adopted->CdfAtMany(xs, adopted_many);  // the adopted index, never rebuilt
      live->CdfAtMany(xs, live_many);
      for (size_t i = 0; i < xs.size(); ++i) {
        EXPECT_EQ(std::bit_cast<uint64_t>(adopted_many[i]),
                  std::bit_cast<uint64_t>(live_many[i]))
            << "n=" << n << " h=" << h << " x=" << xs[i];
      }
    }
  }
}

// ---------------------------------------------------------------- bandwidth

TEST(BandwidthTest, RuleOfThumbFormula) {
  // Deterministic sample with known MATLAB quartiles.
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(static_cast<double>(i));
  const double q1 = stats::Quantile(xs, 0.25, stats::QuantileMethod::kMatlab);
  const double q3 = stats::Quantile(xs, 0.75, stats::QuantileMethod::kMatlab);
  const double expected =
      (q3 - q1) / (2.0 * 0.6745) * std::pow(4.0 / (3.0 * 100.0), 0.2);
  EXPECT_NEAR(RuleOfThumbBandwidth(xs), expected, 1e-12);
}

TEST(BandwidthTest, RuleOfThumbShrinksWithN) {
  stats::Rng rng(11);
  std::vector<double> small(100), large(10000);
  for (double& x : small) x = rng.Gaussian();
  for (double& x : large) x = rng.Gaussian();
  EXPECT_GT(RuleOfThumbBandwidth(small), RuleOfThumbBandwidth(large));
}

TEST(BandwidthTest, SortedRuleOfThumbOrZeroAgreesWhereTheCheckedOneFits) {
  stats::Rng rng(12);
  std::vector<double> xs(1000);
  for (double& x : xs) x = rng.Gaussian();
  std::sort(xs.begin(), xs.end());
  const double h = RuleOfThumbBandwidthSorted(xs);
  EXPECT_EQ(std::bit_cast<uint64_t>(internal::RuleOfThumbBandwidthSortedOrZero(xs)),
            std::bit_cast<uint64_t>(h));
  // Where the checked rule aborts, the other answers 0: no spread, or a
  // column holding NaN (a restored one, before its order is proven).
  const std::vector<double> constant(8, 2.5);
  EXPECT_DEATH(RuleOfThumbBandwidthSorted(constant), "zero spread");
  EXPECT_EQ(internal::RuleOfThumbBandwidthSortedOrZero(constant), 0.0);
  xs[xs.size() / 4] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(internal::RuleOfThumbBandwidthSortedOrZero(xs), 0.0);
}

TEST(BandwidthTest, LscvCriterionMatchesBruteForce) {
  stats::Rng rng(17);
  std::vector<double> xs(60);
  for (double& x : xs) x = rng.UniformDouble();
  std::sort(xs.begin(), xs.end());
  const Kernel k(KernelType::kEpanechnikov);
  const double h = 0.08;
  // Brute force: ∫f̂² by quadrature, leave-one-out by the double loop.
  const auto kde = KernelDensityEstimator::Create(k, h, xs);
  ASSERT_TRUE(kde.ok());
  const double int_f2 = numerics::IntegrateFunction(
      [&](double x) {
        const double f = kde->Evaluate(x);
        return f * f;
      },
      -0.5, 1.5, 8192);
  double loo = 0.0;
  const double n = static_cast<double>(xs.size());
  for (size_t i = 0; i < xs.size(); ++i) {
    double fi = 0.0;
    for (size_t j = 0; j < xs.size(); ++j) {
      if (i == j) continue;
      fi += k.Evaluate((xs[i] - xs[j]) / h);
    }
    loo += fi / ((n - 1.0) * h);
  }
  const double brute = int_f2 - 2.0 * loo / n;
  EXPECT_NEAR(LeastSquaresCvCriterion(k, xs, h), brute, 5e-4);
}

TEST(BandwidthTest, LscvPicksSmallerBandwidthForBimodalData) {
  // The rule of thumb oversmooths a sharp mixture; LSCV should undercut it.
  stats::Rng rng(19);
  std::vector<double> xs(1500);
  for (double& x : xs) {
    x = rng.Bernoulli(0.5) ? rng.Gaussian(0.3, 0.03) : rng.Gaussian(0.7, 0.03);
  }
  const Kernel k(KernelType::kEpanechnikov);
  const double rot = RuleOfThumbBandwidth(xs);
  const double lscv = LeastSquaresCvBandwidth(k, xs);
  EXPECT_LT(lscv, 0.8 * rot);
}

TEST(BandwidthTest, LscvNearOptimalForGaussian) {
  // For Gaussian data LSCV should land within a factor ~2 of the asymptotic
  // optimum h_AMISE = (40√π)^{1/5} σ n^{-1/5} for the Epanechnikov kernel.
  stats::Rng rng(23);
  std::vector<double> xs(2000);
  for (double& x : xs) x = rng.Gaussian();
  const Kernel k(KernelType::kEpanechnikov);
  const double lscv = LeastSquaresCvBandwidth(k, xs);
  const double amise =
      std::pow(40.0 * std::sqrt(M_PI), 0.2) * std::pow(2000.0, -0.2);
  EXPECT_GT(lscv, amise / 2.0);
  EXPECT_LT(lscv, amise * 2.0);
}

}  // namespace
}  // namespace kernel
}  // namespace wde
