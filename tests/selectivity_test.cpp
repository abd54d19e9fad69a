#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "io/serialize.hpp"
#include "processes/target_density.hpp"
#include "selectivity/estimator_registry.hpp"
#include "selectivity/estimator_spec.hpp"
#include "selectivity/grid2d_selectivity.hpp"
#include "selectivity/histogram.hpp"
#include "selectivity/kde_selectivity.hpp"
#include "selectivity/query_workload.hpp"
#include "selectivity/sample_selectivity.hpp"
#include "selectivity/sorted_prefix.hpp"
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
  EXPECT_NEAR(hist.Answer(Query::Range(0.0, 0.5)), 0.5, 1e-12);
  EXPECT_NEAR(hist.Answer(Query::Range(0.3, 0.4)), 0.1, 1e-12);
  EXPECT_NEAR(hist.Answer(Query::Range(0.0, 1.0)), 1.0, 1e-12);
}

TEST(EquiWidthTest, InterpolatesWithinBuckets) {
  EquiWidthHistogram hist(0.0, 1.0, 2);
  for (int i = 0; i < 100; ++i) hist.Insert(0.25);  // all in bucket [0, 0.5)
  // Continuous-uniform assumption: half of bucket 0 -> half the mass.
  EXPECT_NEAR(hist.Answer(Query::Range(0.0, 0.25)), 0.5, 1e-12);
  EXPECT_NEAR(hist.Answer(Query::Range(0.5, 1.0)), 0.0, 1e-12);
}

TEST(EquiWidthTest, ClampsOutOfDomainValues) {
  EquiWidthHistogram hist(0.0, 1.0, 4);
  hist.Insert(-3.0);
  hist.Insert(7.0);
  EXPECT_EQ(hist.count(), 2u);
  EXPECT_NEAR(hist.Answer(Query::Range(0.0, 1.0)), 1.0, 1e-12);
}

TEST(EquiWidthTest, EmptyHistogramReturnsZero) {
  EquiWidthHistogram hist(0.0, 1.0, 4);
  EXPECT_DOUBLE_EQ(hist.Answer(Query::Range(0.2, 0.8)), 0.0);
}

TEST(EquiDepthTest, QuantileBoundaries) {
  EquiDepthHistogram hist(0.0, 1.0, 4);
  stats::Rng rng(3);
  for (int i = 0; i < 4000; ++i) hist.Insert(rng.UniformDouble());
  // Uniform data: equi-depth ≈ equi-width.
  EXPECT_NEAR(hist.Answer(Query::Range(0.0, 0.25)), 0.25, 0.03);
  EXPECT_NEAR(hist.Answer(Query::Range(0.25, 0.75)), 0.5, 0.03);
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
  EXPECT_NEAR(deep.Answer(Query::Range(0.0, 0.05)), truth, 0.05);
  EXPECT_GT(std::fabs(wide.Answer(Query::Range(0.0, 0.05)) - truth), 0.2);
}

TEST(EquiDepthTest, RebuildIsLazyButConsistent) {
  EquiDepthHistogram hist(0.0, 1.0, 4);
  for (int i = 1; i <= 100; ++i) hist.Insert(i / 101.0);
  const double first = hist.Answer(Query::Range(0.0, 0.5));
  for (int i = 1; i <= 100; ++i) hist.Insert(i / 101.0);
  const double second = hist.Answer(Query::Range(0.0, 0.5));
  EXPECT_NEAR(first, second, 0.02);  // same distribution, rebuilt boundaries
}

// ---------------------------------------------------------------- reservoir

TEST(ReservoirTest, KeepsEverythingBelowCapacity) {
  ReservoirSampleSelectivity res(100);
  for (int i = 0; i < 50; ++i) res.Insert(i / 50.0);
  EXPECT_EQ(res.reservoir().size(), 50u);
  EXPECT_EQ(res.count(), 50u);
  EXPECT_NEAR(res.Answer(Query::Range(0.0, 0.5)), 0.5, 0.03);
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
  EXPECT_NEAR(res.Answer(Query::Range(0.2, 0.6)), 0.4, 0.08);
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
    EXPECT_NEAR(streaming->Answer(Query::Range(a, b)),
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
    EXPECT_NEAR(sketch->Answer(Query::Range(a, b)), truth, 0.05)
        << "[" << a << "," << b << "]";
  }
}

TEST(StreamingWaveletTest, EmptySketchReturnsZero) {
  StreamingWaveletSelectivity::Options options;
  Result<StreamingWaveletSelectivity> sketch =
      StreamingWaveletSelectivity::Create(Sym8Basis(), options);
  ASSERT_TRUE(sketch.ok());
  EXPECT_DOUBLE_EQ(sketch->Answer(Query::Range(0.1, 0.9)), 0.0);
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

// --------------------------------------------------- sorted-prefix fold

/// Doubles that stress a sort by bit pattern: arbitrary bit patterns (every
/// exponent), subnormals of both signs, exact duplicates, neighbours 1 ulp
/// apart and Gaussians. No NaN, and no zero unless `zeros`, which mixes in
/// both zeros.
std::vector<double> HardDoubles(uint64_t seed, size_t n, bool zeros = false) {
  stats::Rng rng(seed);
  std::vector<double> xs;
  xs.reserve(n);
  while (xs.size() < n) {
    const double earlier = xs.empty() ? 1.0 : xs[rng.UniformInt(xs.size())];
    double x = 0.0;
    switch (rng.UniformInt(zeros ? 6 : 5)) {
      case 0:
        x = std::bit_cast<double>(rng.NextUint64());
        break;
      case 1:  // exponent field 0: subnormal
        x = std::bit_cast<double>(rng.NextUint64() & 0x800FFFFFFFFFFFFFULL);
        break;
      case 2:
        x = earlier;
        break;
      case 3:
        x = std::nextafter(earlier, std::numeric_limits<double>::infinity());
        break;
      case 4:
        x = rng.Gaussian();
        break;
      default:
        x = rng.Bernoulli(0.5) ? 0.0 : -0.0;
        break;
    }
    if (std::isnan(x) || (x == 0.0 && !zeros)) continue;
    xs.push_back(x);
  }
  return xs;
}

bool SameBytes(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(SortByOrderKeyTest, MatchesStdSortByteForByte) {
  for (const size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{64},
                         size_t{511}, size_t{2049}, size_t{5000}, size_t{70000}}) {
    const std::vector<double> xs = HardDoubles(1000 + n, n);
    std::vector<double> expected = xs;
    std::sort(expected.begin(), expected.end());
    std::vector<double> out(n, -1.0);
    SortByOrderKey(xs, out);
    EXPECT_TRUE(SameBytes(out, expected)) << "n=" << n;
    std::vector<double> in_place = xs;  // `values` may be `out`
    SortByOrderKey(in_place, in_place);
    EXPECT_TRUE(SameBytes(in_place, expected)) << "in place, n=" << n;
  }
}

TEST(SortByOrderKeyTest, SkipsTheDigitsEveryKeyShares) {
  // Above 1.0 by fewer than 2^11 ulps the keys differ in the lowest 11-bit
  // digit alone (one pass), by fewer than 2^33 in the lowest three (three
  // passes), and equal values in none. Odd pass counts end in `out` from
  // the other buffer, also when `out` is the input.
  const uint64_t one = std::bit_cast<uint64_t>(1.0);
  for (const size_t n : {size_t{2}, size_t{512}, size_t{3000}}) {
    for (const uint64_t spread : {uint64_t{1} << 11, uint64_t{1} << 33, uint64_t{1}}) {
      stats::Rng rng(n + spread);
      std::vector<double> xs(n);
      for (double& x : xs) x = std::bit_cast<double>(one + rng.UniformInt(spread));
      std::vector<double> expected = xs;
      std::sort(expected.begin(), expected.end());
      std::vector<double> out(n);
      SortByOrderKey(xs, out);
      EXPECT_TRUE(SameBytes(out, expected)) << "n=" << n << " spread=" << spread;
      SortByOrderKey(xs, xs);
      EXPECT_TRUE(SameBytes(xs, expected)) << "in place, n=" << n << " spread=" << spread;
    }
  }
}

TEST(SortByOrderKeyTest, PlacesNegativeZeroBeforePositiveZero) {
  for (const size_t n : {size_t{2}, size_t{511}, size_t{3000}}) {
    std::vector<double> xs = HardDoubles(2000 + n, n, /*zeros=*/true);
    xs.front() = 0.0;  // both zeros at any size, +0.0 arriving first
    xs.back() = -0.0;
    std::vector<double> out(n);
    SortByOrderKey(xs, out);
    EXPECT_TRUE(std::is_sorted(out.begin(), out.end())) << "n=" << n;
    EXPECT_TRUE(std::is_sorted(out.begin(), out.end(), OrderKeyLess())) << "n=" << n;
    const auto zero = std::find(out.begin(), out.end(), 0.0);
    ASSERT_NE(zero, out.end());
    const auto end = std::find_if(zero, out.end(), [](double x) { return x != 0.0; });
    ASSERT_TRUE(std::signbit(*zero));
    EXPECT_FALSE(std::signbit(*(end - 1)));
    EXPECT_TRUE(std::is_partitioned(zero, end, [](double x) { return std::signbit(x); }));
    // The same multiset of bit patterns.
    std::vector<uint64_t> in_bits(n), out_bits(n);
    std::transform(xs.begin(), xs.end(), in_bits.begin(),
                   [](double x) { return std::bit_cast<uint64_t>(x); });
    std::transform(out.begin(), out.end(), out_bits.begin(),
                   [](double x) { return std::bit_cast<uint64_t>(x); });
    std::sort(in_bits.begin(), in_bits.end());
    std::sort(out_bits.begin(), out_bits.end());
    EXPECT_EQ(in_bits, out_bits);
  }
}

TEST(FoldSortedTailTest, BothModesWriteTheCanonicalMergeOfPrefixAndTail) {
  for (const size_t n : {size_t{0}, size_t{5}, size_t{3000}}) {
    for (const size_t tail_size :
         {size_t{0}, size_t{1}, size_t{519}, size_t{900}}) {
      std::vector<double> prefix = HardDoubles(3000 + n, n, /*zeros=*/true);
      SortByOrderKey(prefix, prefix);
      const std::vector<double> tail = HardDoubles(4000 + tail_size, tail_size, true);
      std::vector<double> expected(prefix);
      expected.insert(expected.end(), tail.begin(), tail.end());
      std::stable_sort(expected.begin(), expected.end(), OrderKeyLess());
      for (const RefitMode mode : {RefitMode::kIncremental, RefitMode::kScratch}) {
        const memory::Arena column = FoldSortedTail(prefix, tail, mode);
        EXPECT_TRUE(SameBytes(column.F64(0), expected))
            << "n=" << n << " tail=" << tail_size << " mode=" << static_cast<int>(mode);
      }
    }
  }
}

TEST(FoldSortedTailTest, APrefixWithZerosOutOfKeyOrderStillFoldsAscending) {
  // A column sorted by `<` alone may hold +0.0 before −0.0 (an estimator
  // folded before the canonical order existed): still ascending, and so
  // accepted; the fold's output stays ascending with the same multiset.
  const std::vector<double> prefix = {-2.0, 0.0, -0.0, 0.0, -0.0, 1.0, 3.0};
  const std::vector<double> tail = {-0.0, 0.5, 0.0, -3.0, 4.0, -0.0};
  for (const RefitMode mode : {RefitMode::kIncremental, RefitMode::kScratch}) {
    const memory::Arena column = FoldSortedTail(prefix, tail, mode);
    const std::span<const double> out = column.F64(0);
    ASSERT_EQ(out.size(), prefix.size() + tail.size());
    EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
    EXPECT_EQ(std::count_if(out.begin(), out.end(), [](double x) {
                return x == 0.0 && std::signbit(x);
              }),
              4);
  }
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

TEST(WaveletSynopsisTest, RejectsDomainsWithoutAFiniteWidth) {
  // An infinite end, or finite ends whose width overflows: (x − lo) / width
  // would map every value to one cell.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const auto& [lo, hi] : {std::pair{-kInf, 0.0}, std::pair{0.0, kInf},
                               std::pair{-1e308, 1e308}}) {
    WaveletSynopsisSelectivity::Options options;
    options.domain_lo = lo;
    options.domain_hi = hi;
    const Result<WaveletSynopsisSelectivity> created =
        WaveletSynopsisSelectivity::Create(options);
    ASSERT_FALSE(created.ok()) << lo << ", " << hi;
    EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(DomainDeathTest, ConstructorsApplyTheOneDomainRule) {
  // The constructors check what the registry and the loaders check: an
  // infinite end, or finite ends whose width overflows, aborts.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const auto& [lo, hi] : {std::pair{-1e308, 1e308}, std::pair{-kInf, 0.0}}) {
    KdeSelectivity::Options kde;
    kde.domain_lo = lo;
    kde.domain_hi = hi;
    EXPECT_DEATH(KdeSelectivity{kde}, "finite width") << lo << ", " << hi;
    EXPECT_DEATH(EquiDepthHistogram(lo, hi, 8), "finite width");
    EXPECT_DEATH(EquiWidthHistogram(lo, hi, 8), "finite width");
    EXPECT_DEATH(Grid2dHistogram(lo, hi, 0.0, 1.0, 2), "axis-0");
    EXPECT_DEATH(Grid2dHistogram(0.0, 1.0, lo, hi, 2), "axis-1");
  }
}

TEST(WaveletSynopsisTest, ExactOnUniformWithGenerousBudget) {
  WaveletSynopsisSelectivity::Options options;
  options.grid_log2 = 6;
  options.budget = 1000;  // keep everything: lossless synopsis
  Result<WaveletSynopsisSelectivity> synopsis =
      WaveletSynopsisSelectivity::Create(options);
  ASSERT_TRUE(synopsis.ok());
  for (int i = 0; i < 6400; ++i) synopsis->Insert((i % 64 + 0.5) / 64.0);
  EXPECT_NEAR(synopsis->Answer(Query::Range(0.0, 0.5)), 0.5, 1e-9);
  EXPECT_NEAR(synopsis->Answer(Query::Range(0.25, 0.75)), 0.5, 1e-9);
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
  EXPECT_NEAR(synopsis->Answer(Query::Range(0.0, 0.25)), 0.8, 0.05);
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
  const std::vector<Query> queries =
      CenteredRangeWorkload(rng, 200, 0.0, 1.0, 0.02, 0.15);
  const auto truth = [&](const Query& q) {
    return density.Cdf(q.b) - density.Cdf(q.a);
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
    const double sel = est->Answer(Query::Range(0.0, 1.0));
    EXPECT_GE(sel, 0.0) << est->name();
    EXPECT_LE(sel, 1.0 + 1e-9) << est->name();
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
  const std::span<const Query> null_queries(static_cast<const Query*>(nullptr), 0);
  const std::span<double> null_out(static_cast<double*>(nullptr), 0);
  for (SelectivityEstimator* est : all) {
    est->InsertBatch({});
    est->InsertBatch(null_span);
    EXPECT_EQ(est->count(), 0u) << est->name();
    est->Answer({}, {});  // zero queries: touches nothing
    est->Insert(0.5);
    est->InsertBatch(null_span);
    EXPECT_EQ(est->count(), 1u) << est->name();
    const double before = est->Answer(Query::Range(0.0, 1.0));
    est->Answer(std::span<const Query>(), std::span<double>());
    est->Answer(null_queries, null_out);
    EXPECT_EQ(est->Answer(Query::Range(0.0, 1.0)), before) << est->name();
  }
}

// ---------------------------------------------------------------------- KDE

TEST(KdeSelectivityTest, MatchesTruthOnUniform) {
  KdeSelectivity::Options options;
  KdeSelectivity kde(options);
  stats::Rng rng(23);
  for (int i = 0; i < 4000; ++i) kde.Insert(rng.UniformDouble());
  EXPECT_NEAR(kde.Answer(Query::Range(0.2, 0.7)), 0.5, 0.05);
}

TEST(KdeSelectivityTest, TinySampleFallback) {
  KdeSelectivity::Options options;
  KdeSelectivity kde(options);
  kde.Insert(0.3);
  kde.Insert(0.6);
  EXPECT_NEAR(kde.Answer(Query::Range(0.0, 0.5)), 0.5, 1e-12);
}

/// Wall seconds `work` takes.
template <typename F>
double SecondsOf(F&& work) {
  const auto start = std::chrono::steady_clock::now();
  work();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

TEST(KdeSelectivityTest, ConstantColumnIsNotRefitOnEveryQuery) {
  // No spread, no bandwidth, no fit: the answer is the exact fraction. The
  // first query pays the failed fit; the fit is retried only once the count
  // moves, so 64 more queries cost far less than 64 fits.
  KdeSelectivity kde(KdeSelectivity::Options{});
  kde.InsertBatch(std::vector<double>(100000, 0.5));
  double first_answer = -1.0;
  const double first =
      SecondsOf([&] { first_answer = kde.Answer(Query::Cdf(0.4)); });
  EXPECT_EQ(first_answer, 0.0);
  std::vector<double> answers(64);
  const double later = SecondsOf([&] {
    for (double& answer : answers) answer = kde.Answer(Query::Cdf(0.6));
  });
  EXPECT_EQ(answers, std::vector<double>(64, 1.0));
  EXPECT_LT(later, 8.0 * first);
  EXPECT_EQ(kde.Answer(Query::Range(0.5, 0.5)), 1.0);
  EXPECT_EQ(kde.Answer(Query::Range(0.55, 0.6)), 0.0);
  // A new value brings spread: the retried fit succeeds and the kernel puts
  // half the mass of the old constant below it.
  kde.Insert(0.9);
  EXPECT_NEAR(kde.Answer(Query::Cdf(0.5)), 0.5, 1e-3);
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
  (void)writer.Answer(Query::Range(0.2, 0.4));
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

// StaleWriter() for any tail-mergeable tag, built from its spec.
std::unique_ptr<SelectivityEstimator> StaleWriterOf(const std::string& tag) {
  EstimatorSpec spec;
  spec.tag = tag;
  spec.refit_interval = 4096;
  Result<std::unique_ptr<SelectivityEstimator>> writer = MakeEstimator(spec);
  WDE_CHECK_OK(writer.status());
  const std::vector<double> xs = UnitValues(71, 5003);
  (*writer)->InsertBatch(std::span<const double>(xs).first(3000));
  (void)(*writer)->Answer(Query::Range(0.2, 0.4));
  (*writer)->InsertBatch(std::span<const double>(xs).subspan(3000));
  return std::move(writer).value();
}

TEST(KdeViewTest, MergeTailFromRejectsAViewPeer) {
  // Stream positions exist only in a peer's arrival-order tail: a from_count
  // inside its sorted prefix (a view's prefix covers what its writer had
  // fitted) is a FailedPrecondition that leaves the target untouched.
  for (const char* tag : {"kde-rot", "equi-depth"}) {
    SCOPED_TRACE(tag);
    std::unique_ptr<SelectivityEstimator> writer = StaleWriterOf(tag);
    const std::unique_ptr<SelectivityEstimator> view = writer->CloneForView();
    std::unique_ptr<SelectivityEstimator> target = writer->CloneEmpty();
    const Status status = target->MergeTailFrom(*view, 0);
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(target->count(), 0u);
    // A view can still be the target: it takes the writer's tail, merged
    // before the writer's next CloneForView refits it.
    writer->InsertBatch(UnitValues(83, 300));
    ASSERT_TRUE(view->MergeTailFrom(*writer, view->count()).ok());
    std::unique_ptr<SelectivityEstimator> grown = writer->CloneForView();
    EXPECT_EQ(view->count(), writer->count());
    view->ForceRefit();
    grown->ForceRefit();
    EXPECT_EQ(MixedAnswers(*view), MixedAnswers(*grown));
  }
}

// -------------------------------------------------------------- basis memo

TEST(BasisMemoTest, SpecsAndRestoresShareOneTableSet) {
  // Two estimators built from one spec and a snapshot restore of one of them
  // expand in the same tables: the basis is built once per (filter,
  // table_levels) while any user holds it.
  EstimatorSpec spec;
  spec.tag = "wavelet-cv";
  spec.filter = "db5";
  spec.table_levels = 11;
  Result<std::unique_ptr<SelectivityEstimator>> first = MakeEstimator(spec);
  Result<std::unique_ptr<SelectivityEstimator>> second = MakeEstimator(spec);
  ASSERT_TRUE(first.ok() && second.ok());
  (*first)->InsertBatch(UnitValues(83, 600));
  const std::unique_ptr<SelectivityEstimator> restored = Load(PortableBytes(**first));
  const auto tables_of = [](const SelectivityEstimator& est) {
    return &dynamic_cast<const StreamingWaveletSelectivity&>(est).basis().filter();
  };
  EXPECT_EQ(tables_of(**first), tables_of(**second));
  EXPECT_EQ(tables_of(**first), tables_of(*restored));
  EXPECT_EQ(MixedAnswers(*restored), MixedAnswers(**first));
}

TEST(BasisMemoTest, ConcurrentCreatesGetTheSameTables) {
  // A key no other test holds, so the four threads race to build it.
  const wavelet::WaveletFilter filter = *wavelet::WaveletFilter::Daubechies(3);
  std::vector<std::optional<wavelet::WaveletBasis>> bases(4);
  std::vector<std::thread> threads;
  for (auto& basis : bases) {
    threads.emplace_back([&filter, &basis] {
      Result<wavelet::WaveletBasis> made = wavelet::WaveletBasis::Create(filter, 9);
      WDE_CHECK_OK(made.status());
      basis = std::move(made).value();
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const auto& basis : bases) {
    ASSERT_TRUE(basis.has_value());
    EXPECT_EQ(&basis->filter(), &bases[0]->filter());
    EXPECT_EQ(basis->table_levels(), 9);
  }
  // Another resolution of the same filter is another table set.
  Result<wavelet::WaveletBasis> finer = wavelet::WaveletBasis::Create(filter, 10);
  ASSERT_TRUE(finer.ok());
  EXPECT_NE(&finer->filter(), &bases[0]->filter());
}

TEST(FilterMemoTest, ConcurrentFromNamesGetTheSameTaps) {
  // sym7 and db7 are orders no other test here builds, so the four threads
  // race on their first derivation; sym8 and db4 race on the memo's reads.
  const std::vector<std::string> names = {"sym7", "db7", "sym8", "db4"};
  // taps[t][i]: thread t's filter for names[i].
  std::vector<std::vector<std::vector<double>>> taps(
      4, std::vector<std::vector<double>>(names.size()));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < taps.size(); ++t) {
    threads.emplace_back([&names, &taps, t] {
      for (size_t step = 0; step < names.size(); ++step) {
        const size_t i = (step + t) % names.size();  // each thread starts elsewhere
        Result<wavelet::WaveletFilter> filter =
            wavelet::WaveletFilter::FromName(names[i]);
        WDE_CHECK_OK(filter.status());
        taps[t][i] = filter->h();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t i = 0; i < names.size(); ++i) {
    const std::vector<double> expected = wavelet::WaveletFilter::FromName(names[i])->h();
    for (size_t t = 0; t < taps.size(); ++t) {
      ASSERT_EQ(taps[t][i].size(), expected.size()) << names[i];
      EXPECT_EQ(std::memcmp(taps[t][i].data(), expected.data(),
                            expected.size() * sizeof(double)),
                0)
          << names[i] << " thread " << t;
    }
  }
}

// ------------------------------------------------------------------ workload

TEST(WorkloadTest, UniformQueriesAreOrderedAndInDomain) {
  stats::Rng rng(29);
  for (const Query& q : UniformRangeWorkload(rng, 200, -2.0, 3.0)) {
    EXPECT_EQ(q.kind, QueryKind::kRange);
    EXPECT_LE(q.a, q.b);
    EXPECT_GE(q.a, -2.0);
    EXPECT_LE(q.b, 3.0);
  }
}

TEST(WorkloadTest, CenteredQueriesRespectWidths) {
  stats::Rng rng(31);
  for (const Query& q : CenteredRangeWorkload(rng, 200, 0.0, 1.0, 0.05, 0.2)) {
    EXPECT_EQ(q.kind, QueryKind::kRange);
    EXPECT_LE(q.b - q.a, 0.2 + 1e-12);
    EXPECT_GE(q.a, 0.0);
    EXPECT_LE(q.b, 1.0);
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
  const std::vector<Query> queries = UniformRangeWorkload(rng, 100, 0.0, 1.0);
  const Oracle oracle;
  const SelectivityAccuracy acc = EvaluateAccuracy(
      oracle, queries, [](const Query& q) { return q.b - q.a; });
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
  const std::vector<Query> queries =
      CenteredRangeWorkload(rng, 100, 0.0, 1.0, 0.1, 0.3);
  const Biased biased;
  const SelectivityAccuracy acc = EvaluateAccuracy(
      biased, queries, [](const Query& q) { return q.b - q.a; });
  EXPECT_NEAR(acc.mean_qerror, 2.0, 1e-9);
  EXPECT_GT(acc.mean_abs_error, 0.05);
}

}  // namespace
}  // namespace selectivity
}  // namespace wde
