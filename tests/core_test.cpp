#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "core/adaptive.hpp"
#include "core/coefficients.hpp"
#include "core/cross_validation.hpp"
#include "core/estimator.hpp"
#include "core/thresholding.hpp"
#include "numerics/integration.hpp"
#include "processes/target_density.hpp"
#include "stats/loss.hpp"
#include "stats/rng.hpp"
#include "wavelet/scaled_function.hpp"

namespace wde {
namespace core {
namespace {

const wavelet::WaveletBasis& Sym8Basis() {
  static const wavelet::WaveletBasis basis = []() {
    Result<wavelet::WaveletBasis> b =
        wavelet::WaveletBasis::Create(*wavelet::WaveletFilter::Symmlet(8), 12);
    WDE_CHECK(b.ok());
    return *b;
  }();
  return basis;
}

const wavelet::WaveletBasis& Db4Basis() {
  static const wavelet::WaveletBasis basis = []() {
    Result<wavelet::WaveletBasis> b =
        wavelet::WaveletBasis::Create(*wavelet::WaveletFilter::Daubechies(4), 12);
    WDE_CHECK(b.ok());
    return *b;
  }();
  return basis;
}

std::vector<double> UniformData(size_t n, uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<double> xs(n);
  for (double& x : xs) x = rng.UniformDouble();
  return xs;
}

// ----------------------------------------------------------- level defaults

TEST(LevelDefaultsTest, PaperPrimaryLevel) {
  // n = 1024, N = 8: ln(1024)/9 ≈ 0.77 -> j0 = 1 (the paper's setting).
  EXPECT_EQ(DefaultPrimaryLevel(1024, 8), 1);
  // Larger n raises j0 slowly.
  EXPECT_EQ(DefaultPrimaryLevel(1 << 20, 8), 2);
  // Lower regularity raises j0.
  EXPECT_EQ(DefaultPrimaryLevel(1024, 1), 4);
}

TEST(LevelDefaultsTest, TopLevelIsLog2) {
  EXPECT_EQ(DefaultTopLevel(1024), 10);
  EXPECT_EQ(DefaultTopLevel(1023), 9);
  EXPECT_EQ(DefaultTopLevel(2), 1);
}

// -------------------------------------------------------------- coefficients

TEST(CoefficientsTest, CreateValidatesLevels) {
  EXPECT_FALSE(EmpiricalCoefficients::Create(Sym8Basis(), -1, 3).ok());
  EXPECT_FALSE(EmpiricalCoefficients::Create(Sym8Basis(), 4, 3).ok());
  EXPECT_TRUE(EmpiricalCoefficients::Create(Sym8Basis(), 2, 6).ok());
}

TEST(CoefficientsTest, StreamingMatchesDirectComputation) {
  const std::vector<double> xs = UniformData(200, 31);
  Result<EmpiricalCoefficients> coeffs = EmpiricalCoefficients::Create(Sym8Basis(), 2, 6);
  ASSERT_TRUE(coeffs.ok());
  coeffs->AddAll(xs);
  const double n = static_cast<double>(xs.size());
  for (int j : {2, 4, 6}) {
    const wavelet::TranslationWindow window = Sym8Basis().LevelWindow(j);
    for (int k = window.lo; k <= window.hi; k += 3) {
      double direct = 0.0;
      for (double x : xs) direct += Sym8Basis().PsiJk(j, k, x);
      EXPECT_NEAR(coeffs->BetaHat(j, k), direct / n, 1e-12)
          << "j=" << j << " k=" << k;
    }
  }
  const wavelet::TranslationWindow w0 = Sym8Basis().LevelWindow(2);
  for (int k = w0.lo; k <= w0.hi; ++k) {
    double direct = 0.0;
    for (double x : xs) direct += Sym8Basis().PhiJk(2, k, x);
    EXPECT_NEAR(coeffs->AlphaHat(k), direct / n, 1e-12);
  }
}

TEST(CoefficientsTest, CrossValidationTermMatchesPairwiseSum) {
  const std::vector<double> xs = UniformData(60, 37);
  Result<EmpiricalCoefficients> coeffs = EmpiricalCoefficients::Create(Sym8Basis(), 2, 4);
  ASSERT_TRUE(coeffs.ok());
  coeffs->AddAll(xs);
  const double n = static_cast<double>(xs.size());
  for (int j : {2, 3, 4}) {
    const wavelet::TranslationWindow window = Sym8Basis().LevelWindow(j);
    for (int k = window.lo; k <= window.hi; k += 2) {
      // Brute force: β̂² − 2/(n(n−1)) Σ_{i≠h} ψ(X_i)ψ(X_h).
      double beta = 0.0;
      for (double x : xs) beta += Sym8Basis().PsiJk(j, k, x);
      beta /= n;
      double pair_sum = 0.0;
      for (size_t i = 0; i < xs.size(); ++i) {
        for (size_t h = 0; h < xs.size(); ++h) {
          if (i == h) continue;
          pair_sum += Sym8Basis().PsiJk(j, k, xs[i]) * Sym8Basis().PsiJk(j, k, xs[h]);
        }
      }
      const double expected = beta * beta - 2.0 * pair_sum / (n * (n - 1.0));
      EXPECT_NEAR(coeffs->CrossValidationTerm(j, k), expected, 1e-10)
          << "j=" << j << " k=" << k;
    }
  }
}

TEST(CoefficientsTest, OutOfWindowCoefficientsAreZero) {
  Result<EmpiricalCoefficients> coeffs = EmpiricalCoefficients::Create(Sym8Basis(), 2, 4);
  ASSERT_TRUE(coeffs.ok());
  coeffs->Add(0.5);
  EXPECT_EQ(coeffs->BetaHat(3, 1000), 0.0);
  EXPECT_EQ(coeffs->AlphaHat(-500), 0.0);
}

TEST(CoefficientsTest, EmptySpansAreNoOps) {
  Result<EmpiricalCoefficients> coeffs = EmpiricalCoefficients::Create(Sym8Basis(), 2, 5);
  ASSERT_TRUE(coeffs.ok());
  coeffs->AddAll({});
  coeffs->AddAll(std::span<const double>(static_cast<const double*>(nullptr), 0));
  EXPECT_EQ(coeffs->count(), 0u);
  coeffs->Add(0.5);
  const double before = coeffs->AlphaHat(1);
  coeffs->AddAll({});
  EXPECT_EQ(coeffs->count(), 1u);
  EXPECT_EQ(coeffs->AlphaHat(1), before);
}

TEST(CoefficientsDeathTest, RejectsOutOfRangeObservation) {
  Result<EmpiricalCoefficients> coeffs = EmpiricalCoefficients::Create(Sym8Basis(), 2, 3);
  ASSERT_TRUE(coeffs.ok());
  EXPECT_DEATH(coeffs->Add(1.5), "unit interval");
  EXPECT_DEATH(coeffs->Add(-0.1), "unit interval");
}

// -------------------------------------------------------------- thresholding

TEST(ThresholdTest, HardThreshold) {
  EXPECT_DOUBLE_EQ(ApplyThreshold(ThresholdKind::kHard, 0.5, 0.3), 0.5);
  EXPECT_DOUBLE_EQ(ApplyThreshold(ThresholdKind::kHard, -0.5, 0.3), -0.5);
  EXPECT_DOUBLE_EQ(ApplyThreshold(ThresholdKind::kHard, 0.2, 0.3), 0.0);
  EXPECT_DOUBLE_EQ(ApplyThreshold(ThresholdKind::kHard, 0.3, 0.3), 0.0);  // strict >
}

TEST(ThresholdTest, SoftThresholdShrinks) {
  EXPECT_DOUBLE_EQ(ApplyThreshold(ThresholdKind::kSoft, 0.5, 0.3), 0.2);
  EXPECT_DOUBLE_EQ(ApplyThreshold(ThresholdKind::kSoft, -0.5, 0.3), -0.2);
  EXPECT_DOUBLE_EQ(ApplyThreshold(ThresholdKind::kSoft, 0.2, 0.3), 0.0);
  EXPECT_DOUBLE_EQ(ApplyThreshold(ThresholdKind::kSoft, 0.3, 0.3), 0.0);
}

TEST(ThresholdTest, InfiniteLambdaKills) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(ApplyThreshold(ThresholdKind::kHard, 100.0, inf), 0.0);
  EXPECT_DOUBLE_EQ(ApplyThreshold(ThresholdKind::kSoft, 100.0, inf), 0.0);
}

TEST(ThresholdTest, TheoreticalScheduleShape) {
  const ThresholdSchedule schedule = TheoreticalSchedule(2.0, 1, 5, 1024);
  EXPECT_EQ(schedule.j0, 1);
  EXPECT_EQ(schedule.j_max(), 5);
  for (int j = 1; j <= 5; ++j) {
    EXPECT_NEAR(schedule.LevelLambda(j), 2.0 * std::sqrt(j / 1024.0), 1e-12);
  }
  // Outside the schedule the level is dead.
  EXPECT_TRUE(std::isinf(schedule.LevelLambda(0)));
  EXPECT_TRUE(std::isinf(schedule.LevelLambda(6)));
}

TEST(ThresholdKindTest, Names) {
  EXPECT_STREQ(ThresholdKindName(ThresholdKind::kHard), "hard");
  EXPECT_STREQ(ThresholdKindName(ThresholdKind::kSoft), "soft");
}

// ----------------------------------------------------------------- estimator

TEST(EstimatorTest, FitValidatesInput) {
  EXPECT_FALSE(WaveletDensityFit::Fit(Sym8Basis(), std::vector<double>{0.5}).ok());
  FitOptions bad;
  bad.domain_lo = 1.0;
  bad.domain_hi = 0.0;
  const std::vector<double> xs{0.1, 0.2};
  EXPECT_FALSE(WaveletDensityFit::Fit(Sym8Basis(), xs, bad).ok());
  FitOptions narrow;
  narrow.domain_lo = 0.0;
  narrow.domain_hi = 0.15;
  EXPECT_FALSE(WaveletDensityFit::Fit(Sym8Basis(), xs, narrow).ok());  // 0.2 outside
}

TEST(EstimatorTest, PaperDefaultLevels) {
  const std::vector<double> xs = UniformData(1024, 41);
  Result<WaveletDensityFit> fit = WaveletDensityFit::Fit(Sym8Basis(), xs);
  ASSERT_TRUE(fit.ok());
  EXPECT_EQ(fit->coefficients().j0(), 1);
  EXPECT_EQ(fit->coefficients().j_max(), 10);
}

TEST(EstimatorTest, LinearProjectionIntegratesToOne) {
  const std::vector<double> xs = UniformData(512, 43);
  FitOptions options;
  options.j0 = 3;
  options.j_max = 6;
  Result<WaveletDensityFit> fit = WaveletDensityFit::Fit(Sym8Basis(), xs, options);
  ASSERT_TRUE(fit.ok());
  const WaveletEstimate projection = fit->LinearEstimate(2);  // V_{j0} only
  // Mass of the projection: Σ_k α̂_k ∫φ_{j,k} = (1/n) Σ_i Σ_k φ...; on [0,1]
  // boundary translates lose a little mass, so allow a few percent.
  EXPECT_NEAR(projection.TotalMass(), 1.0, 0.05);
}

TEST(EstimatorTest, LinearEstimateRecoversUniformDensity) {
  const std::vector<double> xs = UniformData(4096, 47);
  FitOptions options;
  options.j0 = 2;
  options.j_max = 4;
  Result<WaveletDensityFit> fit = WaveletDensityFit::Fit(Sym8Basis(), xs, options);
  ASSERT_TRUE(fit.ok());
  const WaveletEstimate estimate = fit->LinearEstimate(4);
  // Away from the boundary the estimate should be close to 1 (the linear
  // estimator's stochastic wiggles at j1 = 4 have sd ≈ 0.08).
  for (double x = 0.15; x <= 0.85; x += 0.1) {
    EXPECT_NEAR(estimate.Evaluate(x), 1.0, 0.25) << "x=" << x;
  }
}

TEST(EstimatorTest, EvaluateOnGridMatchesPointwise) {
  const std::vector<double> xs = UniformData(256, 53);
  Result<WaveletDensityFit> fit = WaveletDensityFit::Fit(Sym8Basis(), xs);
  ASSERT_TRUE(fit.ok());
  const WaveletEstimate estimate = fit->LinearEstimate(3);
  const std::vector<double> grid = estimate.EvaluateOnGrid(0.0, 1.0, 21);
  for (size_t i = 0; i < grid.size(); ++i) {
    EXPECT_DOUBLE_EQ(grid[i], estimate.Evaluate(0.05 * static_cast<double>(i)));
  }
}

TEST(EstimatorTest, IntegrateRangeMatchesQuadrature) {
  const std::vector<double> xs = UniformData(512, 59);
  Result<WaveletDensityFit> fit = WaveletDensityFit::Fit(Sym8Basis(), xs);
  ASSERT_TRUE(fit.ok());
  const CrossValidationResult cv = CrossValidate(fit->coefficients(),
                                                 ThresholdKind::kSoft);
  const WaveletEstimate estimate = fit->Estimate(cv.Schedule(), ThresholdKind::kSoft);
  for (const auto& [a, b] : std::vector<std::pair<double, double>>{
           {0.0, 1.0}, {0.2, 0.7}, {0.45, 0.55}}) {
    const double quad = numerics::IntegrateFunction(
        [&](double x) { return estimate.Evaluate(x); }, a, b, 8192);
    EXPECT_NEAR(estimate.IntegrateRange(a, b), quad, 2e-4)
        << "[" << a << "," << b << "]";
  }
}

/// The per-translate range integral IntegrateRange computed before the
/// prefix-sum split: every translate whose support meets [ta, tb] goes
/// through the mother antiderivative at both endpoints. α is re-derived from
/// the fit exactly as WaveletDensityFit::Estimate derives it.
double ReferenceIntegral(const WaveletDensityFit& fit, const WaveletEstimate& estimate,
                         double a, double b) {
  const wavelet::WaveletBasis& basis = fit.coefficients().basis();
  if (b < a) std::swap(a, b);
  const double lo = estimate.domain_lo();
  const double width = estimate.domain_hi() - lo;
  const double ta = std::clamp((a - lo) / width, 0.0, 1.0);
  const double tb = std::clamp((b - lo) / width, 0.0, 1.0);
  if (tb <= ta) return 0.0;
  const int support = basis.support_length();
  const double n = static_cast<double>(fit.count());
  double acc = 0.0;
  const auto level_sum = [&](int j, int k_lo, const std::vector<double>& coeffs,
                             bool phi) {
    const double scale = std::ldexp(1.0, j);
    const int k_first =
        std::max(k_lo, static_cast<int>(std::ceil(scale * ta)) - support);
    const int k_last = std::min(k_lo + static_cast<int>(coeffs.size()) - 1,
                                static_cast<int>(std::floor(scale * tb)));
    for (int k = k_first; k <= k_last; ++k) {
      const double coeff = coeffs[static_cast<size_t>(k - k_lo)];
      if (coeff == 0.0) continue;
      const double hi = phi ? basis.PhiAntiderivative(scale * tb - k)
                            : basis.PsiAntiderivative(scale * tb - k);
      const double low = phi ? basis.PhiAntiderivative(scale * ta - k)
                             : basis.PsiAntiderivative(scale * ta - k);
      acc += coeff * ((hi - low) * std::exp2(-0.5 * static_cast<double>(j)));
    }
  };
  const CoefficientLevel& scaling = fit.coefficients().scaling_level();
  std::vector<double> alpha(scaling.s1.size());
  for (size_t i = 0; i < alpha.size(); ++i) alpha[i] = scaling.s1[i] / n;
  level_sum(estimate.j0(), scaling.k_lo, alpha, true);
  for (const WaveletEstimate::DetailLevel& level : estimate.details()) {
    if (level.kept != 0) level_sum(level.j, level.k_lo, level.theta, false);
  }
  return acc;
}

TEST(EstimatorTest, IntegrateRangeMatchesPerTranslateReference) {
  // Prefix sums answer the translates wholly inside a range; the edges keep
  // the antiderivative formula. Against the per-translate sum: ranges,
  // narrow (point-like) ranges, one-sided queries, a == b, endpoints outside
  // the domain and on dyadic grid points, for three filters at two table
  // resolutions, linear and thresholded, on the unit and a shifted domain.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<double> unit = UniformData(3000, 73);
  for (const char* filter_name : {"haar", "db4", "sym8"}) {
    for (const int table_levels : {8, 12}) {
      Result<wavelet::WaveletFilter> filter =
          wavelet::WaveletFilter::FromName(filter_name);
      ASSERT_TRUE(filter.ok());
      Result<wavelet::WaveletBasis> basis =
          wavelet::WaveletBasis::Create(*filter, table_levels);
      ASSERT_TRUE(basis.ok());
      for (const auto& [lo, hi] :
           std::vector<std::pair<double, double>>{{0.0, 1.0}, {-2.0, 3.0}}) {
        std::vector<double> xs(unit.size());
        for (size_t i = 0; i < xs.size(); ++i) {
          xs[i] = lo + (hi - lo) * unit[i] * unit[i];  // mass piled near lo
        }
        FitOptions options;
        options.j0 = 2;
        options.j_max = 9;
        options.domain_lo = lo;
        options.domain_hi = hi;
        Result<WaveletDensityFit> fit = WaveletDensityFit::Fit(*basis, xs, options);
        ASSERT_TRUE(fit.ok());
        ThresholdSchedule schedule;
        schedule.j0 = 2;
        schedule.lambda = {0.0, 0.01, 0.02, 0.02, 0.03, 0.03, 0.04,
                           ThresholdSchedule::kKillLevel};
        const std::vector<WaveletEstimate> estimates = {
            fit->LinearEstimate(9), fit->Estimate(schedule, ThresholdKind::kHard),
            fit->Estimate(schedule, ThresholdKind::kSoft)};

        stats::Rng rng(79);
        const double w = hi - lo;
        std::vector<double> a, b;
        for (int i = 0; i < 200; ++i) {
          const double x = lo + w * (1.4 * rng.UniformDouble() - 0.2);
          const double y = lo + w * (1.4 * rng.UniformDouble() - 0.2);
          a.push_back(x);
          b.push_back(y);  // either order: the integral swaps them
          a.push_back(x);
          b.push_back(x + w * std::ldexp(1.0, -10));  // point-like
          a.push_back(-kInf);
          b.push_back(x);  // CDF / less
          a.push_back(x);
          b.push_back(kInf);  // greater
          a.push_back(x);
          b.push_back(x);  // a == b
        }
        for (int m = -4; m <= 1028; m += 3) {  // dyadic endpoints, in and out
          const double x = lo + w * std::ldexp(static_cast<double>(m), -10);
          a.push_back(x);
          b.push_back(lo + w * std::ldexp(static_cast<double>(1024 - m), -10));
          a.push_back(-kInf);
          b.push_back(x);
        }
        for (const WaveletEstimate& estimate : estimates) {
          std::vector<double> batch(a.size());
          estimate.IntegrateRangeMany(a, b, batch);
          for (size_t i = 0; i < a.size(); ++i) {
            EXPECT_NEAR(batch[i], ReferenceIntegral(*fit, estimate, a[i], b[i]), 1e-13)
                << filter_name << "@" << table_levels << " [" << lo << "," << hi
                << "] query " << i << ": [" << a[i] << ", " << b[i] << "]";
            EXPECT_EQ(batch[i], estimate.IntegrateRange(a[i], b[i])) << i;
          }
        }
      }
    }
  }
}

TEST(EstimatorTest, DomainMappingPreservesShape) {
  // Fit the same (rescaled) data on [0,1] and on [-5, 5]; densities must map
  // by the affine change of variables.
  const std::vector<double> unit = UniformData(800, 61);
  std::vector<double> wide(unit.size());
  for (size_t i = 0; i < unit.size(); ++i) wide[i] = -5.0 + 10.0 * unit[i];
  FitOptions narrow_options;
  narrow_options.j0 = 2;
  narrow_options.j_max = 5;
  FitOptions wide_options = narrow_options;
  wide_options.domain_lo = -5.0;
  wide_options.domain_hi = 5.0;
  Result<WaveletDensityFit> fit_unit =
      WaveletDensityFit::Fit(Sym8Basis(), unit, narrow_options);
  Result<WaveletDensityFit> fit_wide =
      WaveletDensityFit::Fit(Sym8Basis(), wide, wide_options);
  ASSERT_TRUE(fit_unit.ok());
  ASSERT_TRUE(fit_wide.ok());
  const WaveletEstimate est_unit = fit_unit->LinearEstimate(5);
  const WaveletEstimate est_wide = fit_wide->LinearEstimate(5);
  for (double t : {0.1, 0.37, 0.62, 0.9}) {
    EXPECT_NEAR(est_wide.Evaluate(-5.0 + 10.0 * t), est_unit.Evaluate(t) / 10.0, 1e-9);
  }
  EXPECT_NEAR(est_wide.TotalMass(), est_unit.TotalMass(), 1e-9);
}

// ----------------------------------------------------------- cross-validation

TEST(CrossValidationTest, MatchesBruteForceMinimization) {
  const std::vector<double> xs = UniformData(128, 71);
  Result<EmpiricalCoefficients> coeffs = EmpiricalCoefficients::Create(Sym8Basis(), 2, 5);
  ASSERT_TRUE(coeffs.ok());
  coeffs->AddAll(xs);
  for (ThresholdKind kind : {ThresholdKind::kHard, ThresholdKind::kSoft}) {
    // The brute force below implements the paper's literal criterion, so
    // compare against the unstabilized minimization.
    const CrossValidationResult cv =
        CrossValidate(*coeffs, kind, CvStabilization::kNone);
    for (int j = 2; j <= 5; ++j) {
      // Brute force over the candidate grid: all observed |β̂| plus +inf.
      const wavelet::TranslationWindow window = Sym8Basis().LevelWindow(j);
      std::vector<double> candidates;
      for (int k = window.lo; k <= window.hi; ++k) {
        const double mag = std::fabs(coeffs->BetaHat(j, k));
        if (mag > 0.0) candidates.push_back(mag);
      }
      double best = 0.0;  // value for λ = +inf (empty sum)
      for (double lambda : candidates) {
        double value = 0.0;
        for (int k = window.lo; k <= window.hi; ++k) {
          if (std::fabs(coeffs->BetaHat(j, k)) >= lambda) {
            value += coeffs->CrossValidationTerm(j, k);
            if (kind == ThresholdKind::kSoft) value += lambda * lambda;
          }
        }
        best = std::min(best, value);
      }
      EXPECT_NEAR(cv.Level(j).cv_value, best, 1e-12)
          << "kind=" << ThresholdKindName(kind) << " j=" << j;
    }
  }
}

TEST(CrossValidationTest, LambdaHatReproducesKeptCount) {
  const std::vector<double> xs = UniformData(400, 73);
  Result<EmpiricalCoefficients> coeffs = EmpiricalCoefficients::Create(Sym8Basis(), 2, 6);
  ASSERT_TRUE(coeffs.ok());
  coeffs->AddAll(xs);
  const CrossValidationResult cv = CrossValidate(*coeffs, ThresholdKind::kSoft);
  for (int j = 2; j <= 6; ++j) {
    const LevelCvResult& level = cv.Level(j);
    int kept = 0;
    const wavelet::TranslationWindow window = Sym8Basis().LevelWindow(j);
    for (int k = window.lo; k <= window.hi; ++k) {
      if (std::fabs(coeffs->BetaHat(j, k)) >= level.lambda_hat) ++kept;
    }
    EXPECT_EQ(kept, level.kept) << "j=" << j;
  }
}

TEST(CrossValidationTest, J1HatWithinRange) {
  const std::vector<double> xs = UniformData(1024, 79);
  Result<WaveletDensityFit> fit = WaveletDensityFit::Fit(Sym8Basis(), xs);
  ASSERT_TRUE(fit.ok());
  for (ThresholdKind kind : {ThresholdKind::kHard, ThresholdKind::kSoft}) {
    const CrossValidationResult cv = CrossValidate(fit->coefficients(), kind);
    EXPECT_GE(cv.j1_hat, cv.j0);
    EXPECT_LE(cv.j1_hat, cv.j_star);
    if (cv.Level(cv.j_star).kept > 0) {
      // Saturated case: the convention is ĵ1 = j*.
      EXPECT_EQ(cv.j1_hat, cv.j_star);
    } else {
      // All levels from ĵ1 up are empty, and ĵ1 is minimal.
      for (int j = cv.j1_hat; j <= cv.j_star; ++j) EXPECT_EQ(cv.Level(j).kept, 0);
      if (cv.j1_hat > cv.j0) {
        EXPECT_GT(cv.Level(cv.j1_hat - 1).kept, 0);
      }
    }
  }
}

TEST(CrossValidationTest, UniversalFloorStabilizesHardCvOnPureNoise) {
  // On uniform data every detail coefficient is pure noise. The literal hard
  // criterion keeps top order-statistic noise at fine levels; the universal
  // floor (the default for hard) must remove (nearly) all of it.
  const std::vector<double> xs = UniformData(1024, 113);
  Result<WaveletDensityFit> fit = WaveletDensityFit::Fit(Sym8Basis(), xs);
  ASSERT_TRUE(fit.ok());
  const CrossValidationResult literal = CrossValidate(
      fit->coefficients(), ThresholdKind::kHard, CvStabilization::kNone);
  const CrossValidationResult floored = CrossValidate(
      fit->coefficients(), ThresholdKind::kHard, CvStabilization::kUniversalFloor);
  int literal_kept = 0;
  int floored_kept = 0;
  for (int j = literal.j_star - 2; j <= literal.j_star; ++j) {
    literal_kept += literal.Level(j).kept;
    floored_kept += floored.Level(j).kept;
  }
  EXPECT_GT(literal_kept, 10);  // the degeneracy is real...
  EXPECT_LE(floored_kept, 2);   // ...and the floor removes it.
}

TEST(CrossValidationTest, ScheduleKillsEmptyLevels) {
  const std::vector<double> xs = UniformData(256, 83);
  Result<WaveletDensityFit> fit = WaveletDensityFit::Fit(Sym8Basis(), xs);
  ASSERT_TRUE(fit.ok());
  const CrossValidationResult cv = CrossValidate(fit->coefficients(),
                                                 ThresholdKind::kSoft);
  const ThresholdSchedule schedule = cv.Schedule();
  for (int j = cv.j0; j <= cv.j_star; ++j) {
    if (cv.Level(j).kept == 0) {
      EXPECT_TRUE(std::isinf(schedule.LevelLambda(j))) << "j=" << j;
    } else {
      EXPECT_GT(schedule.LevelLambda(j), 0.0);
      EXPECT_TRUE(std::isfinite(schedule.LevelLambda(j)));
    }
  }
}

// ------------------------------------------------------------------ adaptive

class AdaptiveSweepTest : public testing::TestWithParam<ThresholdKind> {};

TEST_P(AdaptiveSweepTest, RecoversSineUniformDensity) {
  const processes::SineUniformMixtureDensity density;
  stats::Rng rng(89);
  std::vector<double> xs(2048);
  for (double& x : xs) x = density.InverseCdf(rng.UniformDouble());
  AdaptiveOptions options;
  options.kind = GetParam();
  Result<AdaptiveDensityEstimate> fit = FitAdaptive(Sym8Basis(), xs, options);
  ASSERT_TRUE(fit.ok());
  const std::vector<double> est = fit->estimate.EvaluateOnGrid(0.0, 1.0, 513);
  const std::vector<double> tru = density.PdfOnGrid(513);
  EXPECT_LT(stats::IntegratedSquaredError(est, tru, 1.0 / 512.0), 0.12);
  EXPECT_NEAR(fit->estimate.TotalMass(), 1.0, 0.05);
}

TEST_P(AdaptiveSweepTest, ErrorShrinksWithSampleSize) {
  const processes::TruncatedGaussianMixtureDensity density =
      processes::TruncatedGaussianMixtureDensity::Bimodal();
  const auto ise_at = [&](size_t n, uint64_t seed) {
    stats::Rng rng(seed);
    std::vector<double> xs(n);
    for (double& x : xs) x = density.InverseCdf(rng.UniformDouble());
    AdaptiveOptions options;
    options.kind = GetParam();
    Result<AdaptiveDensityEstimate> fit = FitAdaptive(Sym8Basis(), xs, options);
    WDE_CHECK(fit.ok());
    const std::vector<double> est = fit->estimate.EvaluateOnGrid(0.0, 1.0, 513);
    const std::vector<double> tru = density.PdfOnGrid(513);
    return stats::IntegratedSquaredError(est, tru, 1.0 / 512.0);
  };
  // Average a few seeds to avoid flakiness.
  double small = 0.0, large = 0.0;
  for (uint64_t s = 0; s < 3; ++s) {
    small += ise_at(256, 100 + s);
    large += ise_at(4096, 200 + s);
  }
  EXPECT_LT(large, small);
}

TEST_P(AdaptiveSweepTest, WorksWithDb4Basis) {
  const std::vector<double> xs = UniformData(512, 97);
  AdaptiveOptions options;
  options.kind = GetParam();
  Result<AdaptiveDensityEstimate> fit = FitAdaptive(Db4Basis(), xs, options);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->estimate.TotalMass(), 1.0, 0.1);
}

INSTANTIATE_TEST_SUITE_P(BothKinds, AdaptiveSweepTest,
                         testing::Values(ThresholdKind::kHard, ThresholdKind::kSoft),
                         [](const testing::TestParamInfo<ThresholdKind>& info) {
                           return std::string(ThresholdKindName(info.param));
                         });

TEST(AdaptiveTest, SoftEstimateIsSmootherThanLinear) {
  // Thresholding should reduce the wiggliness (L2 norm of the detail part)
  // relative to keeping everything at the top level.
  const std::vector<double> xs = UniformData(512, 101);
  Result<WaveletDensityFit> fit = WaveletDensityFit::Fit(Sym8Basis(), xs);
  ASSERT_TRUE(fit.ok());
  const CrossValidationResult cv = CrossValidate(fit->coefficients(),
                                                 ThresholdKind::kSoft);
  const WaveletEstimate adaptive = fit->Estimate(cv.Schedule(), ThresholdKind::kSoft);
  const WaveletEstimate linear = fit->LinearEstimate(fit->coefficients().j_max());
  const std::vector<double> grid_a = adaptive.EvaluateOnGrid(0.0, 1.0, 1025);
  const std::vector<double> grid_l = linear.EvaluateOnGrid(0.0, 1.0, 1025);
  const std::vector<double> ones(1025, 1.0);
  EXPECT_LT(stats::IntegratedSquaredError(grid_a, ones, 1.0 / 1024.0),
            stats::IntegratedSquaredError(grid_l, ones, 1.0 / 1024.0));
}

}  // namespace
}  // namespace core
}  // namespace wde
