#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "numerics/special_functions.hpp"
#include "stats/autocovariance.hpp"
#include "stats/descriptive.hpp"
#include "stats/empirical.hpp"
#include "stats/loss.hpp"
#include "stats/rng.hpp"

namespace wde {
namespace stats {
namespace {

// --------------------------------------------------------------------- RNG

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.NextUint64() == b.NextUint64());
  EXPECT_LT(same, 2);
}

TEST(RngTest, ForkIsDeterministicAndDecorrelated) {
  Rng root(99);
  Rng f1 = root.Fork(7);
  Rng f2 = Rng(99).Fork(7);
  EXPECT_EQ(f1.NextUint64(), f2.NextUint64());
  Rng g = root.Fork(8);
  EXPECT_NE(root.Fork(7).NextUint64(), g.NextUint64());
}

TEST(RngTest, UniformMomentsAndRange) {
  Rng rng(5);
  const int n = 200000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double u = rng.UniformDouble();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
    sum2 += u * u;
  }
  EXPECT_NEAR(sum / n, 0.5, 5e-3);
  EXPECT_NEAR(sum2 / n - 0.25, 1.0 / 12.0, 5e-3);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  const int n = 200000;
  double sum = 0.0, sum2 = 0.0, sum3 = 0.0, sum4 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double z = rng.Gaussian();
    sum += z;
    sum2 += z * z;
    sum3 += z * z * z;
    sum4 += z * z * z * z;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
  EXPECT_NEAR(sum3 / n, 0.0, 0.05);
  EXPECT_NEAR(sum4 / n, 3.0, 0.12);
}

TEST(RngTest, GaussianDistributionKs) {
  Rng rng(13);
  std::vector<double> sample(5000);
  for (double& x : sample) x = rng.Gaussian();
  const double d = KolmogorovSmirnovDistance(
      sample, [](double x) { return numerics::NormalCdf(x); });
  EXPECT_LT(d, 0.03);  // ~1.63/sqrt(5000) at the 1% level
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, UniformIntIsUnbiased) {
  Rng rng(19);
  std::vector<int> counts(7, 0);
  const int n = 70000;
  for (int i = 0; i < n; ++i) ++counts[static_cast<size_t>(rng.UniformInt(7))];
  for (int c : counts) EXPECT_NEAR(static_cast<double>(c), 10000.0, 450.0);
}

// ------------------------------------------------------------- descriptive

TEST(DescriptiveTest, MeanVarianceKnown) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(Mean(xs), 5.0);
  EXPECT_NEAR(Variance(xs), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(StdDev(xs), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(DescriptiveTest, VarianceOfSingleton) {
  const std::vector<double> xs{3.0};
  EXPECT_DOUBLE_EQ(Variance(xs), 0.0);
}

TEST(DescriptiveTest, QuantileType7MatchesR) {
  // R: quantile(1:5, c(.25,.5,.75)) -> 2.0, 3.0, 4.0
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_NEAR(Quantile(xs, 0.25), 2.0, 1e-12);
  EXPECT_NEAR(Quantile(xs, 0.5), 3.0, 1e-12);
  EXPECT_NEAR(Quantile(xs, 0.75), 4.0, 1e-12);
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 1.0), 5.0);
}

TEST(DescriptiveTest, QuantileMatlabConvention) {
  // MATLAB: quantile(1:4, 0.5) = 2.5; quantile(1:4, 0.25) = 1.5.
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_NEAR(Quantile(xs, 0.5, QuantileMethod::kMatlab), 2.5, 1e-12);
  EXPECT_NEAR(Quantile(xs, 0.25, QuantileMethod::kMatlab), 1.5, 1e-12);
  EXPECT_NEAR(Quantile(xs, 0.75, QuantileMethod::kMatlab), 3.5, 1e-12);
}

TEST(DescriptiveTest, QuantileUnsortedInput) {
  const std::vector<double> xs{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_NEAR(Quantile(xs, 0.5), 3.0, 1e-12);
}

TEST(DescriptiveTest, IqrMatlab) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_NEAR(Iqr(xs), 2.0, 1e-12);
}

// ---------------------------------------------------------------- empirical

TEST(KsTest, ZeroForPerfectFit) {
  // Sample at the exact quantiles of U[0,1]: KS = 1/(2n).
  std::vector<double> xs;
  const int n = 100;
  for (int i = 0; i < n; ++i) xs.push_back((i + 0.5) / n);
  const double d = KolmogorovSmirnovDistance(xs, [](double x) { return x; });
  EXPECT_NEAR(d, 0.005, 1e-12);
}

TEST(KsTest, DetectsWrongDistribution) {
  Rng rng(3);
  std::vector<double> xs(2000);
  for (double& x : xs) x = rng.UniformDouble() * rng.UniformDouble();  // not uniform
  const double d = KolmogorovSmirnovDistance(xs, [](double x) { return x; });
  EXPECT_GT(d, 0.1);
}

// ------------------------------------------------------------ autocovariance

TEST(AutocovarianceTest, WhiteNoiseDecorrelated) {
  Rng rng(31);
  std::vector<double> xs(20000);
  for (double& x : xs) x = rng.Gaussian();
  const std::vector<double> gamma = Autocovariance(xs, 5);
  EXPECT_NEAR(gamma[0], 1.0, 0.05);
  for (int r = 1; r <= 5; ++r) EXPECT_NEAR(gamma[static_cast<size_t>(r)], 0.0, 0.03);
}

TEST(AutocovarianceTest, Ar1GeometricDecay) {
  Rng rng(37);
  const double rho = 0.6;
  std::vector<double> xs(50000);
  double y = 0.0;
  for (double& x : xs) {
    y = rho * y + rng.Gaussian();
    x = y;
  }
  const std::vector<double> acf = Autocorrelation(xs, 4);
  for (int r = 1; r <= 4; ++r) {
    EXPECT_NEAR(acf[static_cast<size_t>(r)], std::pow(rho, r), 0.03) << "lag " << r;
  }
}

TEST(AutocovarianceTest, TransformApplied) {
  const std::vector<double> xs{-1.0, 1.0, -1.0, 1.0};
  // g = |.| makes the series constant: all covariances vanish.
  const std::vector<double> gamma =
      AutocovarianceOfTransform(xs, [](double x) { return std::fabs(x); }, 1);
  EXPECT_NEAR(gamma[0], 0.0, 1e-15);
  EXPECT_NEAR(gamma[1], 0.0, 1e-15);
}

// --------------------------------------------------------------------- loss

TEST(LossTest, IseOfKnownDifference) {
  // estimate - truth = 1 everywhere on [0,1] -> ISE = 1.
  const std::vector<double> est(101, 2.0);
  const std::vector<double> tru(101, 1.0);
  EXPECT_NEAR(IntegratedSquaredError(est, tru, 0.01), 1.0, 1e-12);
}

TEST(LossTest, LpErrorPowScalesCorrectly) {
  const std::vector<double> est(101, 3.0);
  const std::vector<double> tru(101, 1.0);
  // ∫ |2|^p = 2^p over a unit interval.
  EXPECT_NEAR(LpErrorPow(est, tru, 0.01, 1.0), 2.0, 1e-12);
  EXPECT_NEAR(LpErrorPow(est, tru, 0.01, 3.0), 8.0, 1e-12);
}

}  // namespace
}  // namespace stats
}  // namespace wde
