#include <gtest/gtest.h>

#include <cmath>

#include "diagnostics/covariance_decay.hpp"
#include "processes/ar1_process.hpp"
#include "processes/logistic_map.hpp"
#include "processes/lsv_map.hpp"

namespace wde {
namespace diagnostics {
namespace {

TEST(CovarianceDecayTest, Ar1IsExponentialWithKnownRate) {
  const processes::Ar1GaussianProcess process(0.6);
  const CovarianceDecayReport report = MeasureCovarianceDecay(
      [&](stats::Rng& rng) { return process.Path(20000, rng); },
      [](double x) { return x; }, 8, 8, /*seed=*/5);
  EXPECT_TRUE(report.exponential_preferred);
  // Cov(X_0, X_r) = σ_X² ρ^r -> rate = −log ρ ≈ 0.511.
  EXPECT_NEAR(report.exponential.rate, -std::log(0.6), 0.08);
  EXPECT_GT(report.exponential.r_squared, 0.98);
}

TEST(CovarianceDecayTest, CovariancesDecreaseForAr1) {
  const processes::Ar1GaussianProcess process(0.8);
  const CovarianceDecayReport report = MeasureCovarianceDecay(
      [&](stats::Rng& rng) { return process.Path(8000, rng); },
      [](double x) { return x; }, 6, 4, 7);
  for (size_t i = 1; i < report.covariance.size(); ++i) {
    EXPECT_LT(report.covariance[i], report.covariance[i - 1] * 1.1);
  }
}

TEST(CovarianceDecayTest, LsvMapDecaysPolynomially) {
  // For α' = 0.8 the covariances decay like r^{1−1/α'} = r^{-0.25}: slow,
  // so the power-law model should dominate the exponential one over a long
  // lag window. Indicator observable avoids the unbounded density near 0.
  const processes::LsvMapProcess process(0.8);
  const CovarianceDecayReport report = MeasureCovarianceDecay(
      [&](stats::Rng& rng) { return process.Path(40000, rng); },
      [](double x) { return x < 0.2 ? 1.0 : 0.0; }, 30, 10, 11);
  EXPECT_FALSE(report.exponential_preferred);
}

TEST(CovarianceDecayTest, LogisticMapDecaysFast) {
  // The logistic map (through a bounded-variation observable) has
  // exponentially decaying correlations — Assumption (D) holds.
  const processes::LogisticMapProcess process;
  const CovarianceDecayReport report = MeasureCovarianceDecay(
      [&](stats::Rng& rng) { return process.Path(20000, rng); },
      [](double x) { return x < 0.25 ? 1.0 : 0.0; }, 10, 8, 13);
  // Fast decay: by lag 5 the covariance is tiny relative to lag 1.
  ASSERT_GE(report.covariance.size(), 5u);
  EXPECT_LT(report.covariance[4], 0.2 * report.covariance[0] + 1e-4);
}

TEST(CovarianceDecayTest, IidStreamIsNegligible) {
  const CovarianceDecayReport report = MeasureCovarianceDecay(
      [](stats::Rng& rng) {
        std::vector<double> xs(8000);
        for (double& x : xs) x = rng.UniformDouble();
        return xs;
      },
      [](double x) { return x; }, 6, 6, 19);
  EXPECT_FALSE(report.dependence_detected);
  EXPECT_STREQ(report.Verdict(), "negligible");
  EXPECT_NEAR(report.variance, 1.0 / 12.0, 0.01);
}

TEST(CovarianceDecayTest, Ar1VerdictIsExponential) {
  const processes::Ar1GaussianProcess process(0.7);
  const CovarianceDecayReport report = MeasureCovarianceDecay(
      [&](stats::Rng& rng) { return process.Path(20000, rng); },
      [](double x) { return x; }, 8, 6, 23);
  EXPECT_TRUE(report.dependence_detected);
  EXPECT_STREQ(report.Verdict(), "exponential");
}

}  // namespace
}  // namespace diagnostics
}  // namespace wde
