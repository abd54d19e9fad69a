// Tests for the extension modules: the paper's §4.4 model families
// (LARCH(∞), ARCH, generic two-sided linear processes) and the
// WaveLab-style binned/DWT fast fitting path.
#include <gtest/gtest.h>

#include <cmath>

#include "core/binned.hpp"
#include "core/estimator.hpp"
#include "processes/arch_process.hpp"
#include "processes/larch_process.hpp"
#include "processes/linear_process.hpp"
#include "processes/target_density.hpp"
#include "stats/autocovariance.hpp"
#include "stats/descriptive.hpp"
#include "stats/loss.hpp"
#include "wavelet/scaled_function.hpp"

namespace wde {
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

// ------------------------------------------------------------------- LARCH

TEST(LarchTest, StationaryAndDeterministic) {
  const processes::LarchProcess process;
  stats::Rng a(3);
  stats::Rng b(3);
  const std::vector<double> pa = process.Path(256, a);
  const std::vector<double> pb = process.Path(256, b);
  EXPECT_EQ(pa, pb);
  EXPECT_EQ(pa.size(), 256u);
}

TEST(LarchTest, CenteredWithBoundedValues) {
  const processes::LarchProcess process;
  stats::Rng rng(5);
  const std::vector<double> path = process.Path(40000, rng);
  EXPECT_NEAR(stats::Mean(path), 0.0, 0.02);  // E X = E ξ · E(...) = 0
  // |X| <= |ξ| (intercept + Σ|a_j| sup|X|): crude bound ~0.65 here.
  for (double x : path) ASSERT_LT(std::fabs(x), 1.0);
}

TEST(LarchDeathTest, RejectsExplosiveCoefficients) {
  EXPECT_DEATH(processes::LarchProcess(1.0, 9.0, 0.9), "stationarity");
}

// -------------------------------------------------------------------- ARCH

TEST(ArchTest, StationaryVarianceMatchesTheory) {
  const processes::ArchProcess process(0.2, 0.5);
  EXPECT_NEAR(process.StationaryVariance(), 0.4, 1e-12);
  stats::Rng rng(7);
  const std::vector<double> path = process.Path(60000, rng);
  EXPECT_NEAR(stats::Variance(path), 0.4, 0.05);
}

TEST(ArchTest, UncorrelatedLevelsCorrelatedSquares) {
  // The ARCH signature: Corr(X_0, X_r) = 0 but Corr(X²_0, X²_r) = α^r.
  const processes::ArchProcess process(0.2, 0.6);
  stats::Rng rng(9);
  const std::vector<double> path = process.Path(120000, rng);
  const std::vector<double> level_acf = stats::Autocorrelation(path, 3);
  for (int r = 1; r <= 3; ++r) {
    EXPECT_NEAR(level_acf[static_cast<size_t>(r)], 0.0, 0.03) << "lag " << r;
  }
  std::vector<double> squares(path.size());
  for (size_t i = 0; i < path.size(); ++i) squares[i] = path[i] * path[i];
  const std::vector<double> square_acf = stats::Autocorrelation(squares, 2);
  EXPECT_GT(square_acf[1], 0.3);
  EXPECT_GT(square_acf[2], 0.1);
}

// --------------------------------------------------------- two-sided linear

TEST(TwoSidedLinearTest, Case3WeightsReproduceKnownCovariance) {
  // scale 1/3, decay 1/2, Bernoulli innovations = the paper's Case 3 model;
  // its lag-0 theoretical covariance is Var((U+U'+ξ)/3) = (1/12+1/12+1/4)/9.
  const processes::TwoSidedLinearProcess process(
      1.0 / 3.0, 0.5, processes::TwoSidedLinearProcess::Innovation::kBernoulli);
  EXPECT_NEAR(process.TheoreticalAutocovariance(0), (1.0 / 12 + 1.0 / 12 + 0.25) / 9.0,
              1e-12);
}

class LinearInnovationSweep
    : public testing::TestWithParam<processes::TwoSidedLinearProcess::Innovation> {};

TEST_P(LinearInnovationSweep, SampleAutocovarianceMatchesTheory) {
  const processes::TwoSidedLinearProcess process(0.5, 0.6, GetParam());
  stats::Rng rng(11);
  const std::vector<double> path = process.Path(60000, rng);
  const std::vector<double> gamma = stats::Autocovariance(path, 4);
  for (int r = 0; r <= 4; ++r) {
    const double expected = process.TheoreticalAutocovariance(r);
    EXPECT_NEAR(gamma[static_cast<size_t>(r)], expected, 0.05 * expected + 0.01)
        << "lag " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Innovations, LinearInnovationSweep,
    testing::Values(processes::TwoSidedLinearProcess::Innovation::kGaussian,
                    processes::TwoSidedLinearProcess::Innovation::kUniform,
                    processes::TwoSidedLinearProcess::Innovation::kBernoulli));

// ------------------------------------------------------------- binned path

TEST(BinnedFitTest, ValidatesInput) {
  const wavelet::WaveletFilter filter = *wavelet::WaveletFilter::Symmlet(8);
  EXPECT_FALSE(core::BinnedWaveletFit::Fit(filter, {}, 2, 8).ok());
  const std::vector<double> xs{0.5};
  EXPECT_FALSE(core::BinnedWaveletFit::Fit(filter, xs, 5, 5).ok());
  EXPECT_FALSE(core::BinnedWaveletFit::Fit(filter, std::vector<double>{2.0}, 2, 8).ok());
  const std::vector<double> with_nan{0.25, std::nan(""), 0.75};
  EXPECT_FALSE(core::BinnedWaveletFit::Fit(filter, with_nan, 2, 8).ok());
}

TEST(BinnedFitTest, LevelEnergiesMatchExactPath) {
  // The periodized pyramid's translates are index-shifted relative to the
  // interval convention (non-symmetric filters have non-trivial phase), so
  // coefficients cannot be compared index by index. Level *energies*
  // Σ_k β̂²_{j,k} are alignment-free and must agree between the two paths —
  // both measure the detail content of the same sample at scale j.
  const processes::TruncatedGaussianMixtureDensity density =
      processes::TruncatedGaussianMixtureDensity::Bimodal();
  stats::Rng rng(29);
  std::vector<double> xs(4096);
  for (double& x : xs) x = density.InverseCdf(rng.UniformDouble());

  const wavelet::WaveletFilter filter = *wavelet::WaveletFilter::Symmlet(8);
  Result<core::BinnedWaveletFit> binned =
      core::BinnedWaveletFit::Fit(filter, xs, 2, 11);
  ASSERT_TRUE(binned.ok());
  Result<core::EmpiricalCoefficients> exact =
      core::EmpiricalCoefficients::Create(Sym8Basis(), 2, 10);
  ASSERT_TRUE(exact.ok());
  exact->AddAll(xs);

  for (int j : {3, 4, 5, 6}) {
    double binned_energy = 0.0;
    for (int k = 0; k < (1 << j); ++k) {
      binned_energy += binned->BetaHat(j, k) * binned->BetaHat(j, k);
    }
    double exact_energy = 0.0;
    const wavelet::TranslationWindow window = Sym8Basis().LevelWindow(j);
    for (int k = window.lo; k <= window.hi; ++k) {
      exact_energy += exact->BetaHat(j, k) * exact->BetaHat(j, k);
    }
    EXPECT_GT(binned_energy, 0.5 * exact_energy) << "j=" << j;
    EXPECT_LT(binned_energy, 2.0 * exact_energy + 1e-4) << "j=" << j;
  }
}

TEST(BinnedFitTest, LinearReconstructionAccuracyMatchesExactEstimator) {
  // The two linear estimators live in slightly shifted approximation spaces,
  // so they differ pointwise by O(projection noise); what must match is the
  // estimation *accuracy*: both ISEs against the true (uniform) density are
  // small and of the same order.
  stats::Rng rng(31);
  std::vector<double> xs(2048);
  for (double& x : xs) x = rng.UniformDouble();

  const wavelet::WaveletFilter filter = *wavelet::WaveletFilter::Symmlet(8);
  Result<core::BinnedWaveletFit> binned =
      core::BinnedWaveletFit::Fit(filter, xs, 2, 10);
  ASSERT_TRUE(binned.ok());
  core::ThresholdSchedule keep_all;
  keep_all.j0 = 2;
  keep_all.lambda.assign(4, 0.0);  // keep levels 2..5
  Result<std::vector<double>> grid =
      binned->EstimateOnGrid(keep_all, core::ThresholdKind::kHard);
  ASSERT_TRUE(grid.ok());

  core::FitOptions options;
  options.j0 = 2;
  options.j_max = 5;
  Result<core::WaveletDensityFit> exact_fit =
      core::WaveletDensityFit::Fit(Sym8Basis(), xs, options);
  ASSERT_TRUE(exact_fit.ok());
  const core::WaveletEstimate exact = exact_fit->LinearEstimate(5);

  const std::vector<double> centers = binned->GridCenters();
  double binned_ise = 0.0;
  double exact_ise = 0.0;
  size_t counted = 0;
  for (size_t i = 0; i < centers.size(); ++i) {
    if (centers[i] < 0.05 || centers[i] > 0.95) continue;  // periodization zone
    const double db = (*grid)[i] - 1.0;
    const double de = exact.Evaluate(centers[i]) - 1.0;
    binned_ise += db * db;
    exact_ise += de * de;
    ++counted;
  }
  binned_ise /= static_cast<double>(counted);
  exact_ise /= static_cast<double>(counted);
  EXPECT_LT(binned_ise, 0.05);
  EXPECT_LT(exact_ise, 0.05);
  EXPECT_LT(binned_ise, 3.0 * exact_ise + 0.005);
}

TEST(BinnedFitTest, ThresholdingZeroesLevels) {
  stats::Rng rng(37);
  std::vector<double> xs(512);
  for (double& x : xs) x = rng.UniformDouble();
  const wavelet::WaveletFilter filter = *wavelet::WaveletFilter::Symmlet(8);
  Result<core::BinnedWaveletFit> binned =
      core::BinnedWaveletFit::Fit(filter, xs, 3, 9);
  ASSERT_TRUE(binned.ok());
  // An empty schedule kills every detail level -> reconstruction is the
  // projection onto V_{j0} and integrates to ~1.
  core::ThresholdSchedule kill;
  kill.j0 = 3;
  Result<std::vector<double>> grid =
      binned->EstimateOnGrid(kill, core::ThresholdKind::kHard);
  ASSERT_TRUE(grid.ok());
  double mass = 0.0;
  for (double v : *grid) mass += v;
  mass /= static_cast<double>(grid->size());
  EXPECT_NEAR(mass, 1.0, 0.02);
}

TEST(BinnedFitTest, MassIsPreserved) {
  const processes::SineUniformMixtureDensity density;
  stats::Rng rng(41);
  std::vector<double> xs(1024);
  for (double& x : xs) x = density.InverseCdf(rng.UniformDouble());
  const wavelet::WaveletFilter filter = *wavelet::WaveletFilter::Symmlet(8);
  Result<core::BinnedWaveletFit> binned =
      core::BinnedWaveletFit::Fit(filter, xs, 2, 10);
  ASSERT_TRUE(binned.ok());
  const core::ThresholdSchedule schedule = core::TheoreticalSchedule(1.0, 2, 9, 1024);
  Result<std::vector<double>> grid =
      binned->EstimateOnGrid(schedule, core::ThresholdKind::kSoft);
  ASSERT_TRUE(grid.ok());
  double mass = 0.0;
  for (double v : *grid) mass += v;
  mass /= static_cast<double>(grid->size());
  EXPECT_NEAR(mass, 1.0, 0.02);
}

}  // namespace
}  // namespace wde
