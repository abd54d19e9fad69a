// Property tests for the batch-first hot paths: every batch entry point
// (EvaluateMany / AddAll / AddBatch / InsertBatch /
// batched Answer() and the hoisted per-level evaluators) must produce results
// BIT-IDENTICAL to the scalar loop it replaces, across all estimators and
// random domains. These tests are the contract that lets the scalar virtuals
// stay the extension point while the batch paths carry production traffic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/coefficients.hpp"
#include "core/cross_validation.hpp"
#include "core/estimator.hpp"
#include "kernel/kde.hpp"
#include "kernel/kernels.hpp"
#include "selectivity/estimator_registry.hpp"
#include "selectivity/estimator_spec.hpp"
#include "selectivity/histogram.hpp"
#include "selectivity/kde_selectivity.hpp"
#include "selectivity/query_workload.hpp"
#include "selectivity/sample_selectivity.hpp"
#include "selectivity/sharded_selectivity.hpp"
#include "selectivity/wavelet_selectivity.hpp"
#include "selectivity/wavelet_synopsis.hpp"
#include "stats/rng.hpp"
#include "wavelet/cascade.hpp"
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

const wavelet::WaveletBasis& Daub4Basis() {
  static const wavelet::WaveletBasis basis = []() {
    Result<wavelet::WaveletBasis> b =
        wavelet::WaveletBasis::Create(*wavelet::WaveletFilter::Daubechies(4), 10);
    WDE_CHECK(b.ok());
    return *b;
  }();
  return basis;
}

const wavelet::WaveletBasis& HaarBasis() {
  static const wavelet::WaveletBasis basis = []() {
    Result<wavelet::WaveletBasis> b =
        wavelet::WaveletBasis::Create(wavelet::WaveletFilter::Haar(), 12);
    WDE_CHECK(b.ok());
    return *b;
  }();
  return basis;
}

/// Sym8, Haar and db4: window widths W = 16, 2 and 8.
std::vector<const wavelet::WaveletBasis*> Sym8HaarDb4Bases() {
  return {&Sym8Basis(), &HaarBasis(), &Daub4Basis()};
}

/// Inputs for every branch of the insert kernel: 0, −0.0, 1, 1 − ulp, tiny
/// normals and subnormals (whole-window runs fail, binade runs carry them),
/// the dyadics k/2^j, j ≤ 12, with both neighbours (integer 2^j·x, windows
/// clamped at either end of the level), then uniform draws.
std::vector<double> EdgeInputs(stats::Rng& rng, size_t uniform) {
  std::vector<double> xs = {0.0,
                            -0.0,
                            1.0,
                            std::nextafter(1.0, 0.0),
                            1e-300,
                            std::numeric_limits<double>::denorm_min(),
                            std::numeric_limits<double>::min() / 3.0,
                            std::numeric_limits<double>::min()};
  for (int j = 0; j <= 12; ++j) {
    const int step = std::max(1, (1 << j) / 64);
    for (int k = 0; k <= (1 << j); k += step) {
      const double d = std::ldexp(static_cast<double>(k), -j);
      xs.push_back(d);
      if (d > 0.0) xs.push_back(std::nextafter(d, 0.0));
      if (d < 1.0) xs.push_back(std::nextafter(d, 1.0));
    }
  }
  for (size_t i = 0; i < uniform; ++i) xs.push_back(rng.UniformDouble());
  return xs;
}

// Points spread over (and beyond) the mother support / unit interval,
// including the exact edges where the scalar paths branch.
std::vector<double> ProbePoints(stats::Rng& rng, size_t n, double lo, double hi) {
  std::vector<double> xs;
  xs.reserve(n + 4);
  for (size_t i = 0; i < n; ++i) xs.push_back(rng.Uniform(lo, hi));
  xs.push_back(lo);
  xs.push_back(hi);
  xs.push_back(0.0);
  xs.push_back(1.0);
  return xs;
}

// ------------------------------------------------------- numerics / wavelet

// Phi/Psi read the tap-major tables; the row-major interpolator over the
// same cascade values is the reference, bit for bit.
TEST(BatchEquivalenceTest, TapMajorMotherValues) {
  stats::Rng rng(103);
  for (const wavelet::WaveletBasis* basis : Sym8HaarDb4Bases()) {
    Result<wavelet::CascadeTables> cascade =
        wavelet::ComputeCascadeTables(basis->filter(), basis->table_levels());
    ASSERT_TRUE(cascade.ok());
    const numerics::UniformGridInterpolator phi(0.0, cascade->dx(), cascade->phi);
    const numerics::UniformGridInterpolator psi(0.0, cascade->dx(), cascade->psi);
    const double support = static_cast<double>(basis->support_length());
    std::vector<double> xs = ProbePoints(rng, 400, -2.0, support + 2.0);
    for (double i = 0.0; i <= support; i += 0.25) {
      xs.push_back(i);
      xs.push_back(std::nextafter(i, -1.0));
      xs.push_back(std::nextafter(i, support + 1.0));
    }
    xs.push_back(-0.0);
    for (double x : xs) {
      EXPECT_EQ(basis->Phi(x), phi.Evaluate(x)) << "x=" << x;
      EXPECT_EQ(basis->Psi(x), psi.Evaluate(x)) << "x=" << x;
    }
  }
}

TEST(BatchEquivalenceTest, ScaledLevelEvaluatorMatchesScalarEntryPoints) {
  stats::Rng rng(107);
  const wavelet::WaveletBasis& basis = Sym8Basis();
  for (int j : {0, 2, 5, 9}) {
    const wavelet::ScaledLevelEvaluator phi = basis.PhiLevel(j);
    const wavelet::ScaledLevelEvaluator psi = basis.PsiLevel(j);
    const double scale = std::ldexp(1.0, j);
    for (int rep = 0; rep < 200; ++rep) {
      const double x = rng.Uniform(-0.25, 1.25);
      const wavelet::TranslationWindow expected = basis.PointWindow(j, x);
      const wavelet::TranslationWindow got = phi.PointWindow(x);
      EXPECT_EQ(got.lo, expected.lo);
      EXPECT_EQ(got.hi, expected.hi);
      for (int k = expected.lo; k <= expected.hi; ++k) {
        EXPECT_EQ(phi.Value(k, x), basis.PhiJk(j, k, x));
        EXPECT_EQ(psi.Value(k, x), basis.PsiJk(j, k, x));
        EXPECT_EQ(phi.AntiderivativeAt(k, x),
                  basis.PhiAntiderivative(scale * x - k));
        EXPECT_EQ(psi.AntiderivativeAt(k, x),
                  basis.PsiAntiderivative(scale * x - k));
      }
    }
  }
}

// The integer point window (truncating cast for 2^j·x ≥ 0) against
// std::ceil/std::floor, on the edge inputs scaled by every production 2^j
// and on negative ones.
TEST(BatchEquivalenceTest, UnclampedPointWindowMatchesCeilAndFloor) {
  stats::Rng rng(127);
  std::vector<double> xs = EdgeInputs(rng, 500);
  for (int i = 0; i < 500; ++i) xs.push_back(rng.Uniform(-0.25, 1.25));
  for (const int support : {1, 7, 15}) {
    for (int j = 0; j <= 11; ++j) {
      for (const double x : xs) {
        const double scaled = std::ldexp(x, j);
        const wavelet::TranslationWindow w =
            wavelet::UnclampedPointWindow(scaled, support);
        ASSERT_EQ(w.lo, static_cast<int>(std::ceil(scaled)) - support) << scaled;
        ASSERT_EQ(w.hi, static_cast<int>(std::floor(scaled))) << scaled;
      }
    }
  }
}

// One sample through the insert kernel leaves exactly Value(k, x) and its
// square in each slot of its window and +0.0 elsewhere, for every filter and
// level and for x outside [0, 1] too (negative 2^j·x takes the std::floor
// window and the binade runs of a negative fraction).
TEST(BatchEquivalenceTest, InsertKernelMatchesValuePerTranslate) {
  stats::Rng rng(113);
  std::vector<double> xs = EdgeInputs(rng, 300);
  for (int i = 0; i < 300; ++i) xs.push_back(rng.Uniform(-0.25, 1.25));
  for (const wavelet::WaveletBasis* basis : Sym8HaarDb4Bases()) {
    SCOPED_TRACE(basis->filter().name());
    for (int j = 0; j <= 11; ++j) {
      const wavelet::TranslationWindow level = basis->LevelWindow(j);
      for (const wavelet::ScaledLevelEvaluator& eval :
           {basis->PhiLevel(j), basis->PsiLevel(j)}) {
        std::vector<double> s1(static_cast<size_t>(level.size()));
        std::vector<double> s2(s1.size());
        for (double x : xs) {
          eval.AccumulateValueAndSquare(x, level.lo, s1.data(), s2.data());
          const wavelet::TranslationWindow window = eval.PointWindow(x);
          // The window and two slots either side of it; the slots are
          // zeroed again after the check, so untouched ones stay +0.0.
          const int lo = std::max(level.lo, window.lo - 2);
          const int hi = std::min(level.hi, window.hi + 2);
          for (int k = lo; k <= hi; ++k) {
            const auto slot = static_cast<size_t>(k - level.lo);
            const bool inside = k >= window.lo && k <= window.hi;
            const double value = inside ? eval.Value(k, x) : 0.0;
            ASSERT_EQ(s1[slot], 0.0 + value) << "j=" << j << " k=" << k << " x=" << x;
            ASSERT_EQ(s2[slot], 0.0 + value * value)
                << "j=" << j << " k=" << k << " x=" << x;
            s1[slot] = s2[slot] = 0.0;
          }
        }
      }
    }
  }
}

// ------------------------------------------------------------------- core

// Production levels (up to j_max = 11, from j = 0), three window widths, and
// the edge inputs ahead of uniform draws, fed in uneven batches.
TEST(BatchEquivalenceTest, CoefficientAddAllMatchesScalarAddBitwise) {
  stats::Rng rng(109);
  const std::vector<double> xs = EdgeInputs(rng, 3000);
  for (const wavelet::WaveletBasis* basis : Sym8HaarDb4Bases()) {
    SCOPED_TRACE(basis->filter().name());
    Result<core::EmpiricalCoefficients> scalar =
        core::EmpiricalCoefficients::Create(*basis, 0, 11);
    Result<core::EmpiricalCoefficients> batch =
        core::EmpiricalCoefficients::Create(*basis, 0, 11);
    ASSERT_TRUE(scalar.ok() && batch.ok());
    for (double x : xs) scalar->Add(x);
    const std::span<const double> all(xs);
    size_t offset = 0;
    for (const size_t chunk : {size_t{1}, size_t{7}, size_t{500}, all.size()}) {
      const size_t take = std::min(chunk, all.size() - offset);
      batch->AddAll(all.subspan(offset, take));
      offset += take;
    }
    ASSERT_EQ(offset, all.size());
    ASSERT_EQ(scalar->count(), batch->count());
    const auto expect_level_eq = [](const core::CoefficientLevel& a,
                                    const core::CoefficientLevel& b) {
      ASSERT_EQ(a.size(), b.size());
      for (int i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.s1[static_cast<size_t>(i)], b.s1[static_cast<size_t>(i)])
            << "s1 at level " << a.j << " index " << i;
        EXPECT_EQ(a.s2[static_cast<size_t>(i)], b.s2[static_cast<size_t>(i)])
            << "s2 at level " << a.j << " index " << i;
      }
    };
    expect_level_eq(scalar->scaling_level(), batch->scaling_level());
    for (int j = 0; j <= 11; ++j) {
      expect_level_eq(scalar->detail_level(j), batch->detail_level(j));
    }
  }
}

TEST(BatchEquivalenceTest, EstimateEvaluateManyMatchesScalarBitwise) {
  stats::Rng rng(113);
  std::vector<double> data(2048);
  for (double& x : data) x = rng.Uniform(-3.0, 5.0);
  core::FitOptions options;
  options.domain_lo = -3.0;
  options.domain_hi = 5.0;
  Result<core::WaveletDensityFit> fit =
      core::WaveletDensityFit::Fit(Sym8Basis(), data, options);
  ASSERT_TRUE(fit.ok());
  const core::CrossValidationResult cv =
      core::CrossValidate(fit->coefficients(), core::ThresholdKind::kSoft);
  const core::WaveletEstimate estimate =
      fit->Estimate(cv.Schedule(), core::ThresholdKind::kSoft);

  const std::vector<double> xs = ProbePoints(rng, 800, -4.0, 6.0);
  std::vector<double> batch(xs.size());
  estimate.EvaluateMany(xs, batch);
  for (size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(batch[i], estimate.Evaluate(xs[i])) << "x=" << xs[i];
  }
  const std::vector<double> grid = estimate.EvaluateOnGrid(-3.0, 5.0, 257);
  for (size_t i = 0; i < grid.size(); ++i) {
    const double x = -3.0 + 8.0 * static_cast<double>(i) / 256.0;
    EXPECT_EQ(grid[i], estimate.Evaluate(-3.0 + (8.0 / 256.0) * static_cast<double>(i)))
        << "grid x=" << x;
  }
}

TEST(BatchEquivalenceTest, IntegrateRangeManyMatchesScalarBitwise) {
  stats::Rng rng(127);
  std::vector<double> data(2048);
  for (double& x : data) x = rng.UniformDouble();
  Result<core::WaveletDensityFit> fit =
      core::WaveletDensityFit::Fit(Sym8Basis(), data);
  ASSERT_TRUE(fit.ok());
  const core::CrossValidationResult cv =
      core::CrossValidate(fit->coefficients(), core::ThresholdKind::kHard);
  const core::WaveletEstimate estimate =
      fit->Estimate(cv.Schedule(), core::ThresholdKind::kHard);

  const size_t n = 500;
  std::vector<double> a(n), b(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = rng.Uniform(-0.2, 1.2);
    b[i] = rng.Uniform(-0.2, 1.2);  // unsorted: some reversed, some empty
  }
  a[0] = 0.3;
  b[0] = 0.3;  // degenerate range
  a[1] = 0.9;
  b[1] = 0.1;  // reversed
  a[2] = -5.0;
  b[2] = 7.0;  // fully clamped
  std::vector<double> batch(n);
  estimate.IntegrateRangeMany(a, b, batch);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(batch[i], estimate.IntegrateRange(a[i], b[i]))
        << "[" << a[i] << ", " << b[i] << "]";
  }
}

// ------------------------------------------------------------------ kernel

TEST(BatchEquivalenceTest, KdeEvaluateManyAndCdfAtManyMatchScalarBitwise) {
  stats::Rng rng(137);
  std::vector<double> data(1500);
  for (double& x : data) x = rng.UniformDouble();
  for (kernel::KernelType type :
       {kernel::KernelType::kEpanechnikov, kernel::KernelType::kGaussian,
        kernel::KernelType::kBiweight, kernel::KernelType::kTriangular}) {
    Result<kernel::KernelDensityEstimator> kde =
        kernel::KernelDensityEstimator::Create(kernel::Kernel(type), 0.05, data);
    ASSERT_TRUE(kde.ok());
    const std::vector<double> xs = ProbePoints(rng, 400, -0.5, 1.5);
    std::vector<double> batch(xs.size());
    // The SIMD-gathered windowed density pass and the batch CDF must be
    // bit-identical to their scalar entry points.
    kde->EvaluateMany(xs, batch);
    for (size_t i = 0; i < xs.size(); ++i) {
      EXPECT_EQ(batch[i], kde->Evaluate(xs[i]))
          << kde->kernel().name() << " x=" << xs[i];
    }
    kde->CdfAtMany(xs, batch);
    for (size_t i = 0; i < xs.size(); ++i) {
      EXPECT_EQ(batch[i], kde->CdfAt(xs[i]))
          << kde->kernel().name() << " x=" << xs[i];
    }
  }
}

// ------------------------------------------------------------- selectivity

// Drives one estimator pair through an identical dirty stream — scalar
// inserts on `scalar`, batched inserts on `batch` — with queries interleaved
// between chunks, and requires bit-identical answers throughout.
void ExpectStreamEquivalence(selectivity::SelectivityEstimator* scalar,
                             selectivity::SelectivityEstimator* batch,
                             uint64_t seed) {
  stats::Rng data_rng(seed);
  stats::Rng query_rng(seed + 1);
  const std::vector<size_t> chunk_sizes{1, 137, 256, 1000, 3, 0, 777, 2048};
  for (size_t chunk : chunk_sizes) {
    std::vector<double> values(chunk);
    for (double& v : values) {
      const double u = data_rng.UniformDouble();
      if (u < 0.01) {
        v = std::nan("");
      } else if (u < 0.02) {
        v = std::numeric_limits<double>::infinity();
      } else if (u < 0.04) {
        v = data_rng.Uniform(-2.0, 3.0);  // out of domain: clamped
      } else {
        v = data_rng.UniformDouble();
      }
    }
    for (double v : values) scalar->Insert(v);
    batch->InsertBatch(values);
    ASSERT_EQ(scalar->count(), batch->count()) << scalar->name();

    const std::vector<selectivity::Query> queries =
        selectivity::UniformRangeWorkload(query_rng, 50, -0.1, 1.1);
    std::vector<double> batch_answers(queries.size());
    batch->Answer(queries, batch_answers);
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(batch_answers[i], scalar->Answer(queries[i]))
          << scalar->name() << " [" << queries[i].a << ", " << queries[i].b
          << "] after " << scalar->count() << " inserts";
    }
  }
}

TEST(BatchEquivalenceTest, WaveletSketchInsertBatchAndAnswerBatch) {
  selectivity::StreamingWaveletSelectivity::Options options;
  options.j0 = 2;
  options.j_max = 8;
  options.refit_interval = 100;  // force many mid-batch refits
  Result<selectivity::StreamingWaveletSelectivity> scalar =
      selectivity::StreamingWaveletSelectivity::Create(Sym8Basis(), options);
  Result<selectivity::StreamingWaveletSelectivity> batch =
      selectivity::StreamingWaveletSelectivity::Create(Sym8Basis(), options);
  ASSERT_TRUE(scalar.ok() && batch.ok());
  ExpectStreamEquivalence(&scalar.value(), &batch.value(), 1001);
}

TEST(BatchEquivalenceTest, KdeSelectivityBatchOverrides) {
  selectivity::KdeSelectivity::Options options;
  options.refit_interval = 100;
  selectivity::KdeSelectivity scalar(options);
  selectivity::KdeSelectivity batch(options);
  ExpectStreamEquivalence(&scalar, &batch, 2002);
}

TEST(BatchEquivalenceTest, DefaultBatchImplementations) {
  // Estimators relying on the interface's default batch loops must satisfy
  // the same equivalence contract.
  selectivity::EquiWidthHistogram ew_scalar(0.0, 1.0, 64);
  selectivity::EquiWidthHistogram ew_batch(0.0, 1.0, 64);
  ExpectStreamEquivalence(&ew_scalar, &ew_batch, 3003);

  selectivity::EquiDepthHistogram ed_scalar(0.0, 1.0, 16);
  selectivity::EquiDepthHistogram ed_batch(0.0, 1.0, 16);
  ExpectStreamEquivalence(&ed_scalar, &ed_batch, 4004);

  selectivity::ReservoirSampleSelectivity res_scalar(256, 7);
  selectivity::ReservoirSampleSelectivity res_batch(256, 7);
  ExpectStreamEquivalence(&res_scalar, &res_batch, 5005);

  Result<selectivity::WaveletSynopsisSelectivity> syn_scalar =
      selectivity::WaveletSynopsisSelectivity::Create({});
  Result<selectivity::WaveletSynopsisSelectivity> syn_batch =
      selectivity::WaveletSynopsisSelectivity::Create({});
  ASSERT_TRUE(syn_scalar.ok() && syn_batch.ok());
  ExpectStreamEquivalence(&syn_scalar.value(), &syn_batch.value(), 6006);
}

TEST(BatchEquivalenceTest, ShardedWrapperInsertBatchAndAnswerBatch) {
  // The sharded engine routes scalar inserts and batch inserts through the
  // same position-based partition, so the wrapper satisfies the bitwise
  // equivalence contract like any other estimator.
  const auto make = []() {
    selectivity::StreamingWaveletSelectivity::Options sketch_options;
    sketch_options.j0 = 2;
    sketch_options.j_max = 7;
    sketch_options.refit_interval = 500;
    Result<selectivity::StreamingWaveletSelectivity> prototype =
        selectivity::StreamingWaveletSelectivity::Create(Sym8Basis(),
                                                         sketch_options);
    WDE_CHECK(prototype.ok());
    selectivity::ShardedSelectivityEstimator::Options options;
    options.shards = 3;
    options.block_size = 193;
    return *selectivity::ShardedSelectivityEstimator::Create(*prototype, options);
  };
  selectivity::ShardedSelectivityEstimator scalar = make();
  selectivity::ShardedSelectivityEstimator batch = make();
  ExpectStreamEquivalence(&scalar, &batch, 8008);
}

// ------------------------------------------------------- typed query batches

// Mixed-kind Answer() batches must match the per-query scalar loop bitwise,
// including dirty queries (NaN parameters, inverted ranges, out-of-range
// quantile levels — the wrapper normalizes both paths identically) and
// across interleaved ingest.
void ExpectAnswerEquivalence(selectivity::SelectivityEstimator* est,
                             uint64_t seed) {
  stats::Rng data_rng(seed);
  stats::Rng query_rng(seed + 1);
  for (size_t chunk : {500u, 1500u, 137u}) {
    std::vector<double> values(chunk);
    for (double& v : values) v = data_rng.UniformDouble();
    est->InsertBatch(values);

    // Every kind, the multi-dimensional ones included: 1-D estimators answer
    // rect/conditional (and axis >= dims marginals) 0.0, and that zero must
    // be batch == scalar like any other answer.
    selectivity::QueryKindMix mix;
    mix.rect = 0.10;
    mix.marginal = 0.10;
    mix.conditional = 0.05;
    std::vector<selectivity::Query> queries =
        selectivity::MixedQueryWorkload(query_rng, 120, -0.1, 1.1, mix);
    // Sprinkle in the abnormal forms the wrapper normalizes.
    queries.push_back(selectivity::Query::Range(0.9, 0.1));  // inverted
    queries.push_back(selectivity::Query::Range(std::nan(""), 0.5));
    queries.push_back(selectivity::Query::Rect(0.9, 0.1, 0.8, 0.2));
    queries.push_back(selectivity::Query::Rect(std::nan(""), 0.5, 0.2, 0.8));
    queries.push_back(selectivity::Query::Marginal(1, 0.7, 0.3));
    queries.push_back(selectivity::Query::Marginal(9, 0.2, 0.8));
    queries.push_back(selectivity::Query::Conditional(0.2, 0.8, 0.9, 0.1));
    queries.push_back(selectivity::Query::Conditional(0.2, 0.8, std::nan(""), 1.0));
    queries.push_back(selectivity::Query::Point(std::nan("")));
    queries.push_back(selectivity::Query::Quantile(1.5));
    queries.push_back(selectivity::Query::Quantile(-2.0));
    queries.push_back(selectivity::Query::Quantile(std::nan("")));
    queries.push_back(selectivity::Query::Less(std::nan("")));
    queries.push_back(
        selectivity::Query::Range(-std::numeric_limits<double>::infinity(),
                                  std::numeric_limits<double>::infinity()));

    std::vector<double> batch(queries.size());
    est->Answer(queries, batch);
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(batch[i], est->Answer(queries[i]))
          << est->name() << " query " << i << " after " << est->count()
          << " inserts";
    }
  }
}

TEST(BatchEquivalenceTest, AnswerMixedKindBatchMatchesScalarLoop) {
  for (const std::string& tag : selectivity::EstimatorRegistry::Global().Tags()) {
    selectivity::EstimatorSpec spec;
    spec.tag = tag;
    spec.dims = selectivity::EstimatorRegistry::Global().NativeDims(tag);
    spec.buckets = 32;
    spec.grid_log2 = 7;
    spec.budget = 32;
    spec.filter = "sym8";
    spec.j_max = 7;
    spec.refit_interval = 300;  // force refits between query rounds
    spec.capacity = 256;
    spec.shards = 3;
    spec.block_size = 193;
    spec.sharded_inner_tag = "equi-width";
    Result<std::unique_ptr<selectivity::SelectivityEstimator>> est =
        selectivity::MakeEstimator(spec);
    ASSERT_TRUE(est.ok()) << tag;
    ExpectAnswerEquivalence(est->get(), 9000 + std::hash<std::string>{}(tag) % 97);
  }
}

TEST(BatchEquivalenceTest, WorkloadScoringUsesBatchPathConsistently) {
  // EvaluateAccuracy scores through the batched Answer(); its aggregates
  // must match a hand-rolled scalar evaluation exactly.
  selectivity::EquiWidthHistogram hist(0.0, 1.0, 32);
  stats::Rng rng(7007);
  for (int i = 0; i < 5000; ++i) hist.Insert(rng.UniformDouble());
  const std::vector<selectivity::Query> queries =
      selectivity::CenteredRangeWorkload(rng, 200, 0.0, 1.0, 0.05, 0.3);
  const auto truth = [](const selectivity::Query& q) { return q.b - q.a; };
  const selectivity::SelectivityAccuracy acc =
      selectivity::EvaluateAccuracy(hist, queries, truth);
  double mean_abs = 0.0;
  for (const selectivity::Query& q : queries) {
    mean_abs += std::fabs(hist.Answer(q) - truth(q));
  }
  mean_abs /= static_cast<double>(queries.size());
  EXPECT_EQ(acc.mean_abs_error, mean_abs);
}

}  // namespace
}  // namespace wde
