#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "io/serialize.hpp"
#include "processes/target_density.hpp"
#include "selectivity/estimator_registry.hpp"
#include "selectivity/histogram.hpp"
#include "selectivity/kde_selectivity.hpp"
#include "selectivity/query_workload.hpp"
#include "selectivity/sample_selectivity.hpp"
#include "selectivity/wavelet_selectivity.hpp"
#include "selectivity/wavelet_synopsis.hpp"
#include "stats/rng.hpp"
#include "wavelet/scaled_function.hpp"

namespace wde {
namespace selectivity {
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

// -------------------------------------------------------------- histograms

TEST(EquiWidthTest, ExactForAlignedRanges) {
  EquiWidthHistogram hist(0.0, 1.0, 10);
  for (int i = 0; i < 1000; ++i) hist.Insert((i % 10) / 10.0 + 0.05);
  EXPECT_EQ(hist.count(), 1000u);
  EXPECT_NEAR(hist.EstimateRange(0.0, 0.5), 0.5, 1e-12);
  EXPECT_NEAR(hist.EstimateRange(0.3, 0.4), 0.1, 1e-12);
  EXPECT_NEAR(hist.EstimateRange(0.0, 1.0), 1.0, 1e-12);
}

TEST(EquiWidthTest, InterpolatesWithinBuckets) {
  EquiWidthHistogram hist(0.0, 1.0, 2);
  for (int i = 0; i < 100; ++i) hist.Insert(0.25);  // all in bucket [0, 0.5)
  // Continuous-uniform assumption: half of bucket 0 -> half the mass.
  EXPECT_NEAR(hist.EstimateRange(0.0, 0.25), 0.5, 1e-12);
  EXPECT_NEAR(hist.EstimateRange(0.5, 1.0), 0.0, 1e-12);
}

TEST(EquiWidthTest, ClampsOutOfDomainValues) {
  EquiWidthHistogram hist(0.0, 1.0, 4);
  hist.Insert(-3.0);
  hist.Insert(7.0);
  EXPECT_EQ(hist.count(), 2u);
  EXPECT_NEAR(hist.EstimateRange(0.0, 1.0), 1.0, 1e-12);
}

TEST(EquiWidthTest, EmptyHistogramReturnsZero) {
  EquiWidthHistogram hist(0.0, 1.0, 4);
  EXPECT_DOUBLE_EQ(hist.EstimateRange(0.2, 0.8), 0.0);
}

TEST(EquiDepthTest, QuantileBoundaries) {
  EquiDepthHistogram hist(0.0, 1.0, 4);
  stats::Rng rng(3);
  for (int i = 0; i < 4000; ++i) hist.Insert(rng.UniformDouble());
  // Uniform data: equi-depth ≈ equi-width.
  EXPECT_NEAR(hist.EstimateRange(0.0, 0.25), 0.25, 0.03);
  EXPECT_NEAR(hist.EstimateRange(0.25, 0.75), 0.5, 0.03);
}

TEST(EquiDepthTest, AdaptsToSkew) {
  // 90% of mass in [0, 0.1]: equi-depth should resolve it much better than a
  // 4-bucket equi-width histogram resolves [0.0, 0.05].
  EquiDepthHistogram deep(0.0, 1.0, 8);
  EquiWidthHistogram wide(0.0, 1.0, 4);
  stats::Rng rng(5);
  for (int i = 0; i < 20000; ++i) {
    const double x =
        rng.Bernoulli(0.9) ? rng.Uniform(0.0, 0.1) : rng.Uniform(0.1, 1.0);
    deep.Insert(x);
    wide.Insert(x);
  }
  const double truth = 0.45;  // P(X <= 0.05)
  EXPECT_NEAR(deep.EstimateRange(0.0, 0.05), truth, 0.05);
  EXPECT_GT(std::fabs(wide.EstimateRange(0.0, 0.05) - truth), 0.2);
}

TEST(EquiDepthTest, RebuildIsLazyButConsistent) {
  EquiDepthHistogram hist(0.0, 1.0, 4);
  for (int i = 1; i <= 100; ++i) hist.Insert(i / 101.0);
  const double first = hist.EstimateRange(0.0, 0.5);
  for (int i = 1; i <= 100; ++i) hist.Insert(i / 101.0);
  const double second = hist.EstimateRange(0.0, 0.5);
  EXPECT_NEAR(first, second, 0.02);  // same distribution, rebuilt boundaries
}

// ---------------------------------------------------------------- reservoir

TEST(ReservoirTest, KeepsEverythingBelowCapacity) {
  ReservoirSampleSelectivity res(100);
  for (int i = 0; i < 50; ++i) res.Insert(i / 50.0);
  EXPECT_EQ(res.reservoir().size(), 50u);
  EXPECT_EQ(res.count(), 50u);
  EXPECT_NEAR(res.EstimateRange(0.0, 0.5), 0.5, 0.03);
}

TEST(ReservoirTest, CapacityBounded) {
  ReservoirSampleSelectivity res(64);
  for (int i = 0; i < 10000; ++i) res.Insert(0.5);
  EXPECT_EQ(res.reservoir().size(), 64u);
  EXPECT_EQ(res.count(), 10000u);
}

TEST(ReservoirTest, UnbiasedOnStream) {
  ReservoirSampleSelectivity res(512, 9);
  stats::Rng rng(11);
  for (int i = 0; i < 50000; ++i) res.Insert(rng.UniformDouble());
  EXPECT_NEAR(res.EstimateRange(0.2, 0.6), 0.4, 0.08);
}

// ---------------------------------------------------------- wavelet sketch

TEST(StreamingWaveletTest, CreateValidatesOptions) {
  StreamingWaveletSelectivity::Options options;
  options.refit_interval = 0;
  EXPECT_FALSE(StreamingWaveletSelectivity::Create(Sym8Basis(), options).ok());
  options = {};
  options.j0 = 5;
  options.j_max = 3;
  EXPECT_FALSE(StreamingWaveletSelectivity::Create(Sym8Basis(), options).ok());
}

TEST(StreamingWaveletTest, MatchesBatchEstimate) {
  StreamingWaveletSelectivity::Options options;
  options.j0 = 2;
  options.j_max = 8;
  options.kind = core::ThresholdKind::kSoft;
  Result<StreamingWaveletSelectivity> streaming =
      StreamingWaveletSelectivity::Create(Sym8Basis(), options);
  ASSERT_TRUE(streaming.ok());

  stats::Rng rng(13);
  std::vector<double> xs(2000);
  for (double& x : xs) x = rng.UniformDouble();
  for (double x : xs) streaming->Insert(x);

  // Batch fit with the same levels on the same data.
  Result<core::WaveletDensityFit> batch =
      core::WaveletDensityFit::CreateStreaming(Sym8Basis(), 2, 8, 0.0, 1.0);
  ASSERT_TRUE(batch.ok());
  for (double x : xs) batch->Add(x);
  const core::CrossValidationResult cv =
      core::CrossValidate(batch->coefficients(), core::ThresholdKind::kSoft);
  const core::WaveletEstimate estimate =
      batch->Estimate(cv.Schedule(), core::ThresholdKind::kSoft);

  streaming->Refit();
  for (const auto& [a, b] : std::vector<std::pair<double, double>>{
           {0.1, 0.4}, {0.0, 1.0}, {0.6, 0.61}}) {
    EXPECT_NEAR(streaming->EstimateRange(a, b),
                std::clamp(estimate.IntegrateRange(a, b), 0.0, 1.0), 1e-12);
  }
}

TEST(StreamingWaveletTest, AccurateOnBimodalStream) {
  StreamingWaveletSelectivity::Options options;
  options.j0 = 2;
  options.j_max = 9;
  Result<StreamingWaveletSelectivity> sketch =
      StreamingWaveletSelectivity::Create(Sym8Basis(), options);
  ASSERT_TRUE(sketch.ok());
  const auto density = processes::TruncatedGaussianMixtureDensity::Bimodal();
  stats::Rng rng(17);
  for (int i = 0; i < 8192; ++i) sketch->Insert(density.InverseCdf(rng.UniformDouble()));
  for (const auto& [a, b] : std::vector<std::pair<double, double>>{
           {0.25, 0.35}, {0.6, 0.7}, {0.45, 0.55}, {0.0, 0.5}}) {
    const double truth = density.Cdf(b) - density.Cdf(a);
    EXPECT_NEAR(sketch->EstimateRange(a, b), truth, 0.05)
        << "[" << a << "," << b << "]";
  }
}

TEST(StreamingWaveletTest, EmptySketchReturnsZero) {
  StreamingWaveletSelectivity::Options options;
  Result<StreamingWaveletSelectivity> sketch =
      StreamingWaveletSelectivity::Create(Sym8Basis(), options);
  ASSERT_TRUE(sketch.ok());
  EXPECT_DOUBLE_EQ(sketch->EstimateRange(0.1, 0.9), 0.0);
  EXPECT_DOUBLE_EQ(sketch->EstimateDensity(0.5), 0.0);
}

TEST(StreamingWaveletTest, ClampsDirtyInput) {
  StreamingWaveletSelectivity::Options options;
  Result<StreamingWaveletSelectivity> sketch =
      StreamingWaveletSelectivity::Create(Sym8Basis(), options);
  ASSERT_TRUE(sketch.ok());
  for (int i = 0; i < 100; ++i) sketch->Insert(i % 2 == 0 ? -10.0 : 10.0);
  EXPECT_EQ(sketch->count(), 100u);
}

TEST(StreamingWaveletTest, ExposesCvDiagnostics) {
  StreamingWaveletSelectivity::Options options;
  options.j0 = 2;
  options.j_max = 6;
  Result<StreamingWaveletSelectivity> sketch =
      StreamingWaveletSelectivity::Create(Sym8Basis(), options);
  ASSERT_TRUE(sketch.ok());
  stats::Rng rng(19);
  for (int i = 0; i < 512; ++i) sketch->Insert(rng.UniformDouble());
  sketch->Refit();
  ASSERT_TRUE(sketch->last_cv().has_value());
  EXPECT_EQ(sketch->last_cv()->j0, 2);
  EXPECT_EQ(sketch->last_cv()->j_star, 6);
}

// ------------------------------------------------------------ Haar synopsis

TEST(WaveletSynopsisTest, ValidatesOptions) {
  WaveletSynopsisSelectivity::Options options;
  options.budget = 0;
  EXPECT_FALSE(WaveletSynopsisSelectivity::Create(options).ok());
  options = {};
  options.grid_log2 = 30;
  EXPECT_FALSE(WaveletSynopsisSelectivity::Create(options).ok());
  options = {};
  options.domain_lo = 1.0;
  options.domain_hi = 0.0;
  EXPECT_FALSE(WaveletSynopsisSelectivity::Create(options).ok());
}

TEST(WaveletSynopsisTest, ExactOnUniformWithGenerousBudget) {
  WaveletSynopsisSelectivity::Options options;
  options.grid_log2 = 6;
  options.budget = 1000;  // keep everything: lossless synopsis
  Result<WaveletSynopsisSelectivity> synopsis =
      WaveletSynopsisSelectivity::Create(options);
  ASSERT_TRUE(synopsis.ok());
  for (int i = 0; i < 6400; ++i) synopsis->Insert((i % 64 + 0.5) / 64.0);
  EXPECT_NEAR(synopsis->EstimateRange(0.0, 0.5), 0.5, 1e-9);
  EXPECT_NEAR(synopsis->EstimateRange(0.25, 0.75), 0.5, 1e-9);
}

TEST(WaveletSynopsisTest, BudgetBoundsRetainedCoefficients) {
  WaveletSynopsisSelectivity::Options options;
  options.grid_log2 = 8;
  options.budget = 16;
  Result<WaveletSynopsisSelectivity> synopsis =
      WaveletSynopsisSelectivity::Create(options);
  ASSERT_TRUE(synopsis.ok());
  stats::Rng rng(5);
  for (int i = 0; i < 5000; ++i) synopsis->Insert(rng.UniformDouble());
  EXPECT_LE(synopsis->RetainedCoefficients(), 16u);
}

TEST(WaveletSynopsisTest, CapturesCoarseStructureUnderTightBudget) {
  // 80% of the mass in [0, 0.25]: even a tiny budget must see the skew
  // (coarse Haar coefficients carry it).
  WaveletSynopsisSelectivity::Options options;
  options.grid_log2 = 10;
  options.budget = 8;
  Result<WaveletSynopsisSelectivity> synopsis =
      WaveletSynopsisSelectivity::Create(options);
  ASSERT_TRUE(synopsis.ok());
  stats::Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    synopsis->Insert(rng.Bernoulli(0.8) ? rng.Uniform(0.0, 0.25)
                                        : rng.Uniform(0.25, 1.0));
  }
  EXPECT_NEAR(synopsis->EstimateRange(0.0, 0.25), 0.8, 0.05);
}

TEST(WaveletSynopsisTest, AdaptiveSketchBeatsSynopsisOnSharpBimodal) {
  // The thematic comparison: a fixed-budget Haar synopsis vs the paper's
  // CV-thresholded estimator on a sharply bimodal stream.
  auto density = processes::TruncatedGaussianMixtureDensity::Bimodal();
  WaveletSynopsisSelectivity::Options syn_options;
  syn_options.budget = 24;
  Result<WaveletSynopsisSelectivity> synopsis =
      WaveletSynopsisSelectivity::Create(syn_options);
  ASSERT_TRUE(synopsis.ok());
  StreamingWaveletSelectivity::Options sketch_options;
  sketch_options.j0 = 2;
  sketch_options.j_max = 9;
  Result<StreamingWaveletSelectivity> sketch =
      StreamingWaveletSelectivity::Create(Sym8Basis(), sketch_options);
  ASSERT_TRUE(sketch.ok());
  stats::Rng rng(11);
  for (int i = 0; i < 8192; ++i) {
    const double x = density.InverseCdf(rng.UniformDouble());
    synopsis->Insert(x);
    sketch->Insert(x);
  }
  const std::vector<RangeQuery> queries =
      CenteredRangeWorkload(rng, 200, 0.0, 1.0, 0.02, 0.15);
  const auto truth = [&](const RangeQuery& q) {
    return density.Cdf(q.hi) - density.Cdf(q.lo);
  };
  const SelectivityAccuracy syn_acc = EvaluateAccuracy(*synopsis, queries, truth);
  const SelectivityAccuracy sketch_acc = EvaluateAccuracy(*sketch, queries, truth);
  EXPECT_LT(sketch_acc.mean_abs_error, syn_acc.mean_abs_error);
}

// ------------------------------------------------------------- dirty input

TEST(DirtyInputTest, NonFiniteValuesAreDropped) {
  const double kNan = std::nan("");
  const double kInf = std::numeric_limits<double>::infinity();

  EquiWidthHistogram ew(0.0, 1.0, 4);
  EquiDepthHistogram ed(0.0, 1.0, 4);
  ReservoirSampleSelectivity res(16);
  KdeSelectivity kde(KdeSelectivity::Options{});
  StreamingWaveletSelectivity::Options sk_options;
  Result<StreamingWaveletSelectivity> sketch =
      StreamingWaveletSelectivity::Create(Sym8Basis(), sk_options);
  ASSERT_TRUE(sketch.ok());
  WaveletSynopsisSelectivity::Options syn_options;
  Result<WaveletSynopsisSelectivity> synopsis =
      WaveletSynopsisSelectivity::Create(syn_options);
  ASSERT_TRUE(synopsis.ok());

  std::vector<SelectivityEstimator*> all{&ew, &ed, &res, &kde,
                                         &sketch.value(), &synopsis.value()};
  for (SelectivityEstimator* est : all) {
    est->Insert(0.5);
    est->Insert(kNan);
    est->Insert(kInf);
    est->Insert(-kInf);
    EXPECT_EQ(est->count(), 1u) << est->name();
    // Queries still work after dirty input.
    const double sel = est->EstimateRange(0.0, 1.0);
    EXPECT_GE(sel, 0.0) << est->name();
    EXPECT_LE(sel, 1.0 + 1e-9) << est->name();
  }
}

// ----------------------------------------------------------- inverted ranges

TEST(InvertedRangeTest, EstimateRangeNormalizesSwappedEndpoints) {
  // One documented choice, made at the interface: EstimateRange(a, b) with
  // a > b denotes the same predicate as [b, a] — every implementation (and
  // any future one: the swap lives in the non-virtual entry point) must give
  // identical answers for both orders.
  EquiWidthHistogram ew(0.0, 1.0, 16);
  EquiDepthHistogram ed(0.0, 1.0, 8);
  ReservoirSampleSelectivity res(128);
  KdeSelectivity kde(KdeSelectivity::Options{});
  Result<StreamingWaveletSelectivity> sketch =
      StreamingWaveletSelectivity::Create(Sym8Basis(), {});
  ASSERT_TRUE(sketch.ok());
  Result<WaveletSynopsisSelectivity> synopsis =
      WaveletSynopsisSelectivity::Create({});
  ASSERT_TRUE(synopsis.ok());

  stats::Rng rng(43);
  std::vector<SelectivityEstimator*> all{&ew,             &ed,
                                         &res,            &kde,
                                         &sketch.value(), &synopsis.value()};
  for (int i = 0; i < 3000; ++i) {
    const double x = rng.UniformDouble();
    for (SelectivityEstimator* est : all) est->Insert(x);
  }
  for (SelectivityEstimator* est : all) {
    for (const auto& [a, b] : std::vector<std::pair<double, double>>{
             {0.2, 0.7}, {0.0, 1.0}, {0.45, 0.55}, {-0.5, 1.5}}) {
      EXPECT_EQ(est->EstimateRange(b, a), est->EstimateRange(a, b))
          << est->name() << " [" << b << ", " << a << "]";
      EXPECT_GE(est->EstimateRange(b, a), 0.0) << est->name();
    }
    // The batch path answers inverted queries identically to the scalar path.
    const std::vector<RangeQuery> inverted{{0.7, 0.2}, {1.0, 0.0}, {0.55, 0.45}};
    std::vector<double> answers(inverted.size());
    est->EstimateBatch(inverted, answers);
    for (size_t i = 0; i < inverted.size(); ++i) {
      EXPECT_EQ(answers[i], est->EstimateRange(inverted[i].lo, inverted[i].hi))
          << est->name();
    }
  }
}

// ------------------------------------------------------------- empty spans

TEST(EmptySpanTest, BatchEntryPointsAreNoOps) {
  EquiWidthHistogram ew(0.0, 1.0, 16);
  EquiDepthHistogram ed(0.0, 1.0, 8);
  ReservoirSampleSelectivity res(128);
  KdeSelectivity kde(KdeSelectivity::Options{});
  Result<StreamingWaveletSelectivity> sketch =
      StreamingWaveletSelectivity::Create(Sym8Basis(), {});
  ASSERT_TRUE(sketch.ok());
  Result<WaveletSynopsisSelectivity> synopsis =
      WaveletSynopsisSelectivity::Create({});
  ASSERT_TRUE(synopsis.ok());

  std::vector<SelectivityEstimator*> all{&ew,             &ed,
                                         &res,            &kde,
                                         &sketch.value(), &synopsis.value()};
  // Zero-length spans — default-constructed and over null data — must leave
  // the estimator untouched before and after real inserts.
  const std::span<const double> null_span(static_cast<const double*>(nullptr), 0);
  for (SelectivityEstimator* est : all) {
    est->InsertBatch({});
    est->InsertBatch(null_span);
    EXPECT_EQ(est->count(), 0u) << est->name();
    est->EstimateBatch({}, {});  // zero queries: touches nothing
    est->Insert(0.5);
    est->InsertBatch(null_span);
    EXPECT_EQ(est->count(), 1u) << est->name();
    const double before = est->EstimateRange(0.0, 1.0);
    est->EstimateBatch(std::span<const RangeQuery>(), std::span<double>());
    EXPECT_EQ(est->EstimateRange(0.0, 1.0), before) << est->name();
  }
}

// ---------------------------------------------------------------------- KDE

TEST(KdeSelectivityTest, MatchesTruthOnUniform) {
  KdeSelectivity::Options options;
  KdeSelectivity kde(options);
  stats::Rng rng(23);
  for (int i = 0; i < 4000; ++i) kde.Insert(rng.UniformDouble());
  EXPECT_NEAR(kde.EstimateRange(0.2, 0.7), 0.5, 0.05);
}

TEST(KdeSelectivityTest, TinySampleFallback) {
  KdeSelectivity::Options options;
  KdeSelectivity kde(options);
  kde.Insert(0.3);
  kde.Insert(0.6);
  EXPECT_NEAR(kde.EstimateRange(0.0, 0.5), 0.5, 1e-12);
}

// ------------------------------------------------------- KDE sorted views

std::vector<double> UnitValues(uint64_t seed, size_t n) {
  stats::Rng rng(seed);
  std::vector<double> xs(n);
  for (double& x : xs) x = rng.UniformDouble();
  return xs;
}

std::vector<double> MixedAnswers(const SelectivityEstimator& est) {
  stats::Rng rng(61);
  const std::vector<Query> queries = MixedQueryWorkload(rng, 96, 0.0, 1.0);
  std::vector<double> out(queries.size());
  est.Answer(queries, out);
  return out;
}

std::vector<uint8_t> PortableBytes(const SelectivityEstimator& est) {
  io::VectorSink sink;
  WDE_CHECK_OK(SaveEstimatorSnapshot(est, sink));
  return sink.TakeBytes();
}

std::unique_ptr<SelectivityEstimator> Load(const std::vector<uint8_t>& bytes) {
  io::SpanSource source(bytes);
  Result<std::unique_ptr<SelectivityEstimator>> loaded =
      LoadEstimatorSnapshot(source);
  WDE_CHECK_OK(loaded.status());
  return std::move(loaded).value();
}

// A writer mid refit interval: its first query fitted 3000 values, the
// remaining 2003 are an unfitted tail.
KdeSelectivity StaleWriter() {
  KdeSelectivity::Options options;
  options.refit_interval = 4096;
  KdeSelectivity writer(options);
  const std::vector<double> xs = UnitValues(71, 5003);
  writer.InsertBatch(std::span<const double>(xs).first(3000));
  (void)writer.EstimateRange(0.2, 0.4);
  writer.InsertBatch(std::span<const double>(xs).subspan(3000));
  return writer;
}

TEST(KdeViewTest, ViewAnswersBitwiseEqualToItsWriter) {
  KdeSelectivity writer = StaleWriter();
  const std::unique_ptr<SelectivityEstimator> view = writer.CloneForView();
  EXPECT_EQ(view->count(), writer.count());
  // The clone force-refitted the writer, so both serve the full-count fit.
  EXPECT_EQ(MixedAnswers(*view), MixedAnswers(writer));
  KdeSelectivity fitted(KdeSelectivity::Options{});
  fitted.InsertBatch(UnitValues(71, 5003));
  fitted.ForceRefit();
  EXPECT_EQ(MixedAnswers(*view), MixedAnswers(fitted));
  // A view of a view is a view too.
  const std::unique_ptr<SelectivityEstimator> again = view->CloneForView();
  EXPECT_EQ(again->count(), writer.count());
  EXPECT_EQ(MixedAnswers(*again), MixedAnswers(writer));
}

TEST(KdeViewTest, InsertIntoViewMatchesFreshEstimatorOfTheMultiset) {
  KdeSelectivity writer = StaleWriter();
  std::unique_ptr<SelectivityEstimator> view = writer.CloneForView();
  const std::vector<double> more = UnitValues(73, 1500);
  view->InsertBatch(std::span<const double>(more).first(1000));
  for (double x : std::span<const double>(more).subspan(1000)) view->Insert(x);

  // The same multiset, in arrival order, into a never-viewed estimator.
  KdeSelectivity fresh(KdeSelectivity::Options{});
  fresh.InsertBatch(UnitValues(71, 5003));
  fresh.InsertBatch(more);
  EXPECT_EQ(view->count(), fresh.count());
  view->ForceRefit();
  fresh.ForceRefit();
  EXPECT_EQ(MixedAnswers(*view), MixedAnswers(fresh));
}

TEST(KdeViewTest, ViewSnapshotsRoundTripBitwise) {
  KdeSelectivity writer = StaleWriter();
  const std::unique_ptr<SelectivityEstimator> view = writer.CloneForView();
  const std::vector<uint8_t> bytes = PortableBytes(*view);
  const std::unique_ptr<SelectivityEstimator> restored = Load(bytes);
  EXPECT_EQ(restored->count(), view->count());
  EXPECT_EQ(MixedAnswers(*restored), MixedAnswers(*view));
  // The restored estimator re-saves to the very same bytes.
  EXPECT_EQ(PortableBytes(*restored), bytes);
}

TEST(KdeViewTest, ViewIsAMergeFromSource) {
  KdeSelectivity writer = StaleWriter();
  const std::unique_ptr<SelectivityEstimator> view = writer.CloneForView();
  KdeSelectivity from_view(KdeSelectivity::Options{});
  KdeSelectivity from_writer(KdeSelectivity::Options{});
  from_view.InsertBatch(UnitValues(79, 700));
  from_writer.InsertBatch(UnitValues(79, 700));
  ASSERT_TRUE(from_view.MergeFrom(*view).ok());
  ASSERT_TRUE(from_writer.MergeFrom(writer).ok());
  EXPECT_EQ(from_view.count(), from_writer.count());
  EXPECT_EQ(MixedAnswers(from_view), MixedAnswers(from_writer));
}

TEST(KdeViewTest, MergeTailFromRejectsAViewPeer) {
  KdeSelectivity writer = StaleWriter();
  const std::unique_ptr<SelectivityEstimator> view = writer.CloneForView();
  KdeSelectivity target(KdeSelectivity::Options{});
  const Status status = target.MergeTailFrom(*view, 0);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(target.count(), 0u);
  // A view can still be the target: it takes the writer's tail.
  writer.InsertBatch(UnitValues(83, 300));
  std::unique_ptr<SelectivityEstimator> grown = writer.CloneForView();
  ASSERT_TRUE(view->MergeTailFrom(writer, view->count()).ok());
  EXPECT_EQ(view->count(), writer.count());
  view->ForceRefit();
  EXPECT_EQ(MixedAnswers(*view), MixedAnswers(*grown));
}

// ------------------------------------------------------------------ workload

TEST(WorkloadTest, UniformQueriesAreOrderedAndInDomain) {
  stats::Rng rng(29);
  for (const RangeQuery& q : UniformRangeWorkload(rng, 200, -2.0, 3.0)) {
    EXPECT_LE(q.lo, q.hi);
    EXPECT_GE(q.lo, -2.0);
    EXPECT_LE(q.hi, 3.0);
  }
}

TEST(WorkloadTest, CenteredQueriesRespectWidths) {
  stats::Rng rng(31);
  for (const RangeQuery& q : CenteredRangeWorkload(rng, 200, 0.0, 1.0, 0.05, 0.2)) {
    EXPECT_LE(q.hi - q.lo, 0.2 + 1e-12);
    EXPECT_GE(q.lo, 0.0);
    EXPECT_LE(q.hi, 1.0);
  }
}

TEST(WorkloadTest, AccuracyOfPerfectEstimatorIsIdeal) {
  // An estimator that answers with the truth must have zero error and
  // q-error exactly 1.
  class Oracle : public SelectivityEstimator {
   public:
    void Insert(double) override {}
    size_t count() const override { return 1; }
    std::string name() const override { return "oracle"; }
    std::unique_ptr<SelectivityEstimator> CloneForView() const override {
      return std::make_unique<Oracle>(*this);
    }

   protected:
    double EstimateRangeImpl(double a, double b) const override { return (b - a); }
  };
  stats::Rng rng(37);
  const std::vector<RangeQuery> queries = UniformRangeWorkload(rng, 100, 0.0, 1.0);
  const Oracle oracle;
  const SelectivityAccuracy acc = EvaluateAccuracy(
      oracle, queries, [](const RangeQuery& q) { return q.hi - q.lo; });
  EXPECT_DOUBLE_EQ(acc.mean_abs_error, 0.0);
  EXPECT_DOUBLE_EQ(acc.rmse, 0.0);
  EXPECT_DOUBLE_EQ(acc.mean_qerror, 1.0);
  EXPECT_DOUBLE_EQ(acc.max_qerror, 1.0);
}

TEST(WorkloadTest, AccuracyDetectsBias) {
  class Biased : public SelectivityEstimator {
   public:
    void Insert(double) override {}
    size_t count() const override { return 1; }
    std::string name() const override { return "biased"; }
    std::unique_ptr<SelectivityEstimator> CloneForView() const override {
      return std::make_unique<Biased>(*this);
    }

   protected:
    double EstimateRangeImpl(double a, double b) const override {
      return 2.0 * (b - a);
    }
  };
  stats::Rng rng(41);
  const std::vector<RangeQuery> queries =
      CenteredRangeWorkload(rng, 100, 0.0, 1.0, 0.1, 0.3);
  const Biased biased;
  const SelectivityAccuracy acc = EvaluateAccuracy(
      biased, queries, [](const RangeQuery& q) { return q.hi - q.lo; });
  EXPECT_NEAR(acc.mean_qerror, 2.0, 1e-9);
  EXPECT_GT(acc.mean_abs_error, 0.05);
}

}  // namespace
}  // namespace selectivity
}  // namespace wde
