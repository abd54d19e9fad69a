// End-to-end tests exercising the full paper pipeline across modules:
// process generation -> quantile transform -> coefficient accumulation ->
// cross-validated thresholding -> risk evaluation, plus the DB-facing
// selectivity stack on dependent streams.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/adaptive.hpp"
#include "harness/cases.hpp"
#include "harness/monte_carlo.hpp"
#include "kernel/bandwidth.hpp"
#include "kernel/kde.hpp"
#include "processes/lsv_map.hpp"
#include "processes/target_density.hpp"
#include "selectivity/histogram.hpp"
#include "selectivity/query_workload.hpp"
#include "selectivity/wavelet_selectivity.hpp"
#include "stats/loss.hpp"

namespace wde {
namespace {

using selectivity::Query;

const wavelet::WaveletBasis& Sym8Basis() {
  static const wavelet::WaveletBasis basis = []() {
    Result<wavelet::WaveletBasis> b =
        wavelet::WaveletBasis::Create(*wavelet::WaveletFilter::Symmlet(8), 12);
    WDE_CHECK(b.ok());
    return *b;
  }();
  return basis;
}

double CaseMise(harness::DependenceCase c, core::ThresholdKind kind, int reps,
                size_t n) {
  auto density = std::make_shared<const processes::SineUniformMixtureDensity>();
  const processes::TransformedProcess process = harness::MakeCase(c, density);
  const std::vector<double> truth = density->PdfOnGrid(513);
  const std::vector<double> mise = harness::MeanCurve(
      reps, /*seed=*/2024, /*threads=*/1, /*dim=*/1, [&](stats::Rng& rng, int) {
        const std::vector<double> xs = process.Sample(n, rng);
        core::AdaptiveOptions options;
        options.kind = kind;
        Result<core::AdaptiveDensityEstimate> fit =
            core::FitAdaptive(Sym8Basis(), xs, options);
        WDE_CHECK(fit.ok());
        const std::vector<double> est = fit->estimate.EvaluateOnGrid(0.0, 1.0, 513);
        return std::vector<double>{
            stats::IntegratedSquaredError(est, truth, 1.0 / 512.0)};
      });
  return mise[0];
}

TEST(PaperPipelineTest, MiseIsSmallAndComparableAcrossCases) {
  // The paper's central empirical claim (Table 1): weak dependence does not
  // degrade the CV-thresholded estimator. With a small replicate budget we
  // check all three cases stay within a factor ~2.5 of each other and all
  // are small in absolute terms.
  const double m1 = CaseMise(harness::DependenceCase::kIid,
                             core::ThresholdKind::kSoft, 8, 1024);
  const double m2 = CaseMise(harness::DependenceCase::kLogisticMap,
                             core::ThresholdKind::kSoft, 8, 1024);
  const double m3 = CaseMise(harness::DependenceCase::kNoncausalMa,
                             core::ThresholdKind::kSoft, 8, 1024);
  for (double m : {m1, m2, m3}) {
    EXPECT_GT(m, 0.0);
    EXPECT_LT(m, 0.2);
  }
  const double lo = std::min({m1, m2, m3});
  const double hi = std::max({m1, m2, m3});
  EXPECT_LT(hi / lo, 2.5);
}

TEST(PaperPipelineTest, AdaptiveBeatsFullLinearEstimator) {
  // Donoho et al.'s point, inherited by the paper: thresholding beats the
  // non-thresholded estimator that keeps every level.
  auto density = std::make_shared<const processes::SineUniformMixtureDensity>();
  const processes::TransformedProcess process =
      harness::MakeCase(harness::DependenceCase::kLogisticMap, density);
  const std::vector<double> truth = density->PdfOnGrid(513);
  double adaptive_total = 0.0;
  double linear_total = 0.0;
  stats::Rng root(77);
  for (int rep = 0; rep < 5; ++rep) {
    stats::Rng rng = root.Fork(static_cast<uint64_t>(rep));
    const std::vector<double> xs = process.Sample(1024, rng);
    Result<core::WaveletDensityFit> fit = core::WaveletDensityFit::Fit(Sym8Basis(), xs);
    ASSERT_TRUE(fit.ok());
    const core::CrossValidationResult cv =
        core::CrossValidate(fit->coefficients(), core::ThresholdKind::kSoft);
    const core::WaveletEstimate adaptive =
        fit->Estimate(cv.Schedule(), core::ThresholdKind::kSoft);
    const core::WaveletEstimate linear =
        fit->LinearEstimate(fit->coefficients().j_max());
    adaptive_total += stats::IntegratedSquaredError(
        adaptive.EvaluateOnGrid(0.0, 1.0, 513), truth, 1.0 / 512.0);
    linear_total += stats::IntegratedSquaredError(
        linear.EvaluateOnGrid(0.0, 1.0, 513), truth, 1.0 / 512.0);
  }
  EXPECT_LT(adaptive_total, linear_total);
}

TEST(PaperPipelineTest, EstimatorIsGenuinelyNonlinear) {
  // Figure 4's point: at intermediate levels the thresholded fraction is
  // strictly between 0 and 1, so the estimator is not a linear projection.
  auto density = std::make_shared<const processes::SineUniformMixtureDensity>();
  const processes::TransformedProcess process =
      harness::MakeCase(harness::DependenceCase::kIid, density);
  stats::Rng rng(123);
  const std::vector<double> xs = process.Sample(1024, rng);
  Result<core::AdaptiveDensityEstimate> fit = core::FitAdaptive(Sym8Basis(), xs);
  ASSERT_TRUE(fit.ok());
  bool found_partial_level = false;
  for (const core::LevelCvResult& level : fit->cv.levels) {
    if (level.kept > 0 && level.kept < level.total) found_partial_level = true;
  }
  EXPECT_TRUE(found_partial_level);
}

TEST(PaperPipelineTest, LsvHigherMomentsExceedKernel) {
  // Proposition 5.1 empirically (Figures 7-8): on the intermittent map with
  // large α' the wavelet estimate's high moments inflate relative to the
  // rule-of-thumb kernel estimate on [0.01, 1].
  const processes::LsvMapProcess process(0.8);
  stats::Rng rng(321);
  const std::vector<double> xs = process.Path(1024, rng);
  std::vector<double> clipped;
  for (double x : xs) {
    if (x >= 0.01) clipped.push_back(x);
  }
  core::AdaptiveOptions options;
  options.kind = core::ThresholdKind::kSoft;
  options.fit.domain_lo = 0.01;
  options.fit.domain_hi = 1.0;
  Result<core::AdaptiveDensityEstimate> wavelet_fit =
      core::FitAdaptive(Sym8Basis(), clipped, options);
  ASSERT_TRUE(wavelet_fit.ok());
  const double h = kernel::RuleOfThumbBandwidth(clipped);
  const auto kde = kernel::KernelDensityEstimator::Create(
      kernel::Kernel(kernel::KernelType::kEpanechnikov), h, clipped);
  ASSERT_TRUE(kde.ok());
  // Compare max absolute values on the grid (a cheap stand-in for the k=20
  // integrated moment that bench_fig8 computes in full).
  const std::vector<double> wv = wavelet_fit->estimate.EvaluateOnGrid(0.01, 1.0, 513);
  const std::vector<double> kv = kde->EvaluateOnGrid(0.01, 1.0, 513);
  double wmax = 0.0, kmax = 0.0;
  for (double v : wv) wmax = std::max(wmax, std::fabs(v));
  for (double v : kv) kmax = std::max(kmax, std::fabs(v));
  EXPECT_GT(wmax, 0.8 * kmax);  // wavelet at least as spiky
}

TEST(SelectivityStackTest, WaveletSketchBeatsCoarseHistogramOnBimodalStream) {
  auto density = std::make_shared<const processes::TruncatedGaussianMixtureDensity>(
      processes::TruncatedGaussianMixtureDensity::Bimodal());
  const processes::TransformedProcess process =
      harness::MakeCase(harness::DependenceCase::kLogisticMap, density);
  stats::Rng rng(55);
  const std::vector<double> xs = process.Sample(8192, rng);

  selectivity::StreamingWaveletSelectivity::Options options;
  options.j0 = 2;
  options.j_max = 9;
  Result<selectivity::StreamingWaveletSelectivity> sketch =
      selectivity::StreamingWaveletSelectivity::Create(Sym8Basis(), options);
  ASSERT_TRUE(sketch.ok());
  selectivity::EquiWidthHistogram coarse(0.0, 1.0, 8);
  for (double x : xs) {
    sketch->Insert(x);
    coarse.Insert(x);
  }
  const std::vector<Query> queries =
      selectivity::CenteredRangeWorkload(rng, 200, 0.0, 1.0, 0.02, 0.2);
  const auto truth = [&](const Query& q) {
    return density->Cdf(q.b) - density->Cdf(q.a);
  };
  const selectivity::SelectivityAccuracy wavelet_acc =
      selectivity::EvaluateAccuracy(*sketch, queries, truth);
  const selectivity::SelectivityAccuracy hist_acc =
      selectivity::EvaluateAccuracy(coarse, queries, truth);
  EXPECT_LT(wavelet_acc.mean_abs_error, hist_acc.mean_abs_error);
}

TEST(SelectivityStackTest, SketchTracksDistributionDrift) {
  // Streams drift; periodic refits must follow. Feed uniform data, then
  // concentrated data, and check the estimate moves.
  selectivity::StreamingWaveletSelectivity::Options options;
  options.j0 = 2;
  options.j_max = 8;
  options.refit_interval = 512;
  Result<selectivity::StreamingWaveletSelectivity> sketch =
      selectivity::StreamingWaveletSelectivity::Create(Sym8Basis(), options);
  ASSERT_TRUE(sketch.ok());
  stats::Rng rng(66);
  for (int i = 0; i < 4096; ++i) sketch->Insert(rng.UniformDouble());
  const double before = sketch->Answer(Query::Range(0.4, 0.6));
  for (int i = 0; i < 32768; ++i) sketch->Insert(rng.Uniform(0.45, 0.55));
  const double after = sketch->Answer(Query::Range(0.4, 0.6));
  EXPECT_NEAR(before, 0.2, 0.05);
  EXPECT_GT(after, 0.6);
}

TEST(PaperPipelineTest, HigherRegularityDoesNotBreakPipeline) {
  // Run the full pipeline across wavelet families as a compatibility sweep.
  for (int n_moments : {2, 4, 6}) {
    Result<wavelet::WaveletBasis> basis =
        wavelet::WaveletBasis::Create(*wavelet::WaveletFilter::Symmlet(n_moments), 11);
    ASSERT_TRUE(basis.ok());
    auto density = std::make_shared<const processes::SineUniformMixtureDensity>();
    const processes::TransformedProcess process =
        harness::MakeCase(harness::DependenceCase::kNoncausalMa, density);
    stats::Rng rng(777 + static_cast<uint64_t>(n_moments));
    const std::vector<double> xs = process.Sample(512, rng);
    Result<core::AdaptiveDensityEstimate> fit = core::FitAdaptive(*basis, xs);
    ASSERT_TRUE(fit.ok()) << "N=" << n_moments;
    EXPECT_NEAR(fit->estimate.TotalMass(), 1.0, 0.12) << "N=" << n_moments;
  }
}

}  // namespace
}  // namespace wde
