// Tests for the mergeability contract (PR 3): the core merge algebra on
// coefficient accumulators and binned fits (associativity, commutativity,
// empty merges, incompatibility rejection), the selectivity-layer
// CloneEmpty/MergeFrom capabilities, and the ShardedSelectivityEstimator's
// determinism contract — fixed-K results bit-identical across pool sizes,
// merged estimates matching the sequential estimator within 1e-12 relative.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/binned.hpp"
#include "core/coefficients.hpp"
#include "core/cross_validation.hpp"
#include "core/estimator.hpp"
#include "parallel/thread_pool.hpp"
#include "selectivity/histogram.hpp"
#include "selectivity/kde_selectivity.hpp"
#include "selectivity/query_workload.hpp"
#include "selectivity/sample_selectivity.hpp"
#include "selectivity/sharded_selectivity.hpp"
#include "selectivity/wavelet_selectivity.hpp"
#include "selectivity/wavelet_synopsis.hpp"
#include "stats/rng.hpp"
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

std::vector<double> UnitStream(uint64_t seed, size_t n) {
  stats::Rng rng(seed);
  std::vector<double> xs(n);
  for (double& x : xs) x = rng.UniformDouble();
  return xs;
}

// |a - b| <= tol * max(1, |b|): the ISSUE's relative-tolerance contract with
// an absolute floor for near-zero values.
void ExpectRelNear(double a, double b, double tol) {
  EXPECT_NEAR(a, b, tol * std::max(1.0, std::fabs(b)));
}

void ExpectCoefficientsEqual(const core::EmpiricalCoefficients& a,
                             const core::EmpiricalCoefficients& b, double tol) {
  ASSERT_EQ(a.count(), b.count());
  const auto compare_level = [tol](const core::CoefficientLevel& x,
                                   const core::CoefficientLevel& y) {
    ASSERT_EQ(x.size(), y.size());
    for (int i = 0; i < x.size(); ++i) {
      const auto idx = static_cast<size_t>(i);
      if (tol == 0.0) {
        EXPECT_EQ(x.s1[idx], y.s1[idx]) << "s1 j=" << x.j << " i=" << i;
        EXPECT_EQ(x.s2[idx], y.s2[idx]) << "s2 j=" << x.j << " i=" << i;
      } else {
        EXPECT_NEAR(x.s1[idx], y.s1[idx], tol * std::max(1.0, std::fabs(y.s1[idx])));
        EXPECT_NEAR(x.s2[idx], y.s2[idx], tol * std::max(1.0, std::fabs(y.s2[idx])));
      }
    }
  };
  compare_level(a.scaling_level(), b.scaling_level());
  ASSERT_EQ(a.j0(), b.j0());
  ASSERT_EQ(a.j_max(), b.j_max());
  for (int j = a.j0(); j <= a.j_max(); ++j) {
    compare_level(a.detail_level(j), b.detail_level(j));
  }
}

// ------------------------------------------------- EmpiricalCoefficients

TEST(CoefficientMergeTest, MergeOfDisjointShardsMatchesFullStream) {
  const std::vector<double> xs = UnitStream(1, 6000);
  core::EmpiricalCoefficients full =
      *core::EmpiricalCoefficients::Create(Sym8Basis(), 2, 8);
  full.AddAll(xs);

  core::EmpiricalCoefficients left =
      *core::EmpiricalCoefficients::Create(Sym8Basis(), 2, 8);
  core::EmpiricalCoefficients right =
      *core::EmpiricalCoefficients::Create(Sym8Basis(), 2, 8);
  const std::span<const double> all(xs);
  left.AddAll(all.first(2500));
  right.AddAll(all.subspan(2500));
  ASSERT_TRUE(left.Merge(right).ok());
  // Summation order differs (per-shard subtotals), so ~1e-12 relative, not
  // bitwise.
  ExpectCoefficientsEqual(left, full, 1e-12);
}

TEST(CoefficientMergeTest, MergeIsCommutative) {
  const std::vector<double> xs = UnitStream(2, 4000);
  const std::span<const double> all(xs);
  core::EmpiricalCoefficients a =
      *core::EmpiricalCoefficients::Create(Sym8Basis(), 2, 7);
  core::EmpiricalCoefficients b =
      *core::EmpiricalCoefficients::Create(Sym8Basis(), 2, 7);
  a.AddAll(all.first(1000));
  b.AddAll(all.subspan(1000));
  core::EmpiricalCoefficients ab = a;
  ASSERT_TRUE(ab.Merge(b).ok());
  core::EmpiricalCoefficients ba = b;
  ASSERT_TRUE(ba.Merge(a).ok());
  // x + y == y + x exactly in IEEE arithmetic: commutativity is bitwise.
  ExpectCoefficientsEqual(ab, ba, 0.0);
}

TEST(CoefficientMergeTest, MergeIsAssociativeUpToTolerance) {
  const std::vector<double> xs = UnitStream(3, 6000);
  const std::span<const double> all(xs);
  const auto make = [&](size_t lo, size_t hi) {
    core::EmpiricalCoefficients c =
        *core::EmpiricalCoefficients::Create(Sym8Basis(), 2, 7);
    c.AddAll(all.subspan(lo, hi - lo));
    return c;
  };
  const core::EmpiricalCoefficients a = make(0, 2000);
  const core::EmpiricalCoefficients b = make(2000, 4000);
  const core::EmpiricalCoefficients c = make(4000, 6000);

  core::EmpiricalCoefficients ab_c = a;
  ASSERT_TRUE(ab_c.Merge(b).ok());
  ASSERT_TRUE(ab_c.Merge(c).ok());

  core::EmpiricalCoefficients bc = b;
  ASSERT_TRUE(bc.Merge(c).ok());
  core::EmpiricalCoefficients a_bc = a;
  ASSERT_TRUE(a_bc.Merge(bc).ok());

  ExpectCoefficientsEqual(ab_c, a_bc, 1e-12);
}

TEST(CoefficientMergeTest, EmptyMergesAreExactNoOps) {
  const std::vector<double> xs = UnitStream(4, 2000);
  core::EmpiricalCoefficients filled =
      *core::EmpiricalCoefficients::Create(Sym8Basis(), 2, 6);
  filled.AddAll(xs);
  const core::EmpiricalCoefficients before = filled;
  core::EmpiricalCoefficients empty =
      *core::EmpiricalCoefficients::Create(Sym8Basis(), 2, 6);

  ASSERT_TRUE(filled.Merge(empty).ok());
  ExpectCoefficientsEqual(filled, before, 0.0);  // bitwise unchanged

  ASSERT_TRUE(empty.Merge(filled).ok());
  ExpectCoefficientsEqual(empty, filled, 0.0);  // empty absorbs exactly
}

TEST(CoefficientMergeTest, RejectsIncompatibleLevelRangeAndFilter) {
  core::EmpiricalCoefficients base =
      *core::EmpiricalCoefficients::Create(Sym8Basis(), 2, 8);
  core::EmpiricalCoefficients narrower =
      *core::EmpiricalCoefficients::Create(Sym8Basis(), 2, 7);
  core::EmpiricalCoefficients shifted =
      *core::EmpiricalCoefficients::Create(Sym8Basis(), 3, 8);
  core::EmpiricalCoefficients other_filter =
      *core::EmpiricalCoefficients::Create(Daub4Basis(), 2, 8);
  EXPECT_FALSE(base.Merge(narrower).ok());
  EXPECT_FALSE(base.Merge(shifted).ok());
  EXPECT_FALSE(base.Merge(other_filter).ok());
  // A rejected merge leaves the target untouched.
  EXPECT_EQ(base.count(), 0u);
}

// ------------------------------------------------------- BinnedWaveletFit

TEST(BinnedMergeTest, MergeIsBitIdenticalToOneShotFit) {
  const std::vector<double> xs = UnitStream(5, 4096);
  const std::span<const double> all(xs);
  const wavelet::WaveletFilter filter = *wavelet::WaveletFilter::Symmlet(8);
  core::BinnedWaveletFit full = *core::BinnedWaveletFit::Fit(filter, xs, 2, 9);
  core::BinnedWaveletFit left =
      *core::BinnedWaveletFit::Fit(filter, all.first(1700), 2, 9);
  const core::BinnedWaveletFit right =
      *core::BinnedWaveletFit::Fit(filter, all.subspan(1700), 2, 9);
  ASSERT_TRUE(left.Merge(right).ok());
  ASSERT_EQ(left.count(), full.count());
  for (int k = 0; k < 4; ++k) EXPECT_EQ(left.AlphaHat(k), full.AlphaHat(k));
  for (int j = 2; j < 9; ++j) {
    for (int k = 0; k < (1 << j); ++k) {
      EXPECT_EQ(left.BetaHat(j, k), full.BetaHat(j, k)) << "j=" << j << " k=" << k;
    }
  }
}

TEST(BinnedMergeTest, RejectsIncompatibleFits) {
  const std::vector<double> xs = UnitStream(6, 512);
  const wavelet::WaveletFilter sym8 = *wavelet::WaveletFilter::Symmlet(8);
  const wavelet::WaveletFilter haar = wavelet::WaveletFilter::Haar();
  core::BinnedWaveletFit base = *core::BinnedWaveletFit::Fit(sym8, xs, 2, 9);
  const core::BinnedWaveletFit other_levels =
      *core::BinnedWaveletFit::Fit(sym8, xs, 2, 8);
  const core::BinnedWaveletFit other_filter =
      *core::BinnedWaveletFit::Fit(haar, xs, 2, 9);
  const core::BinnedWaveletFit other_domain =
      *core::BinnedWaveletFit::Fit(sym8, xs, 2, 9, 0.0, 2.0);
  EXPECT_FALSE(base.Merge(other_levels).ok());
  EXPECT_FALSE(base.Merge(other_filter).ok());
  EXPECT_FALSE(base.Merge(other_domain).ok());
  EXPECT_EQ(base.count(), xs.size());
}

// ------------------------------------------- WaveletDensityFit + rebuild

TEST(FitMergeTest, EstimateFromMergedFitMatchesFullFit) {
  const std::vector<double> xs = UnitStream(7, 8192);
  const std::span<const double> all(xs);
  core::WaveletDensityFit full =
      *core::WaveletDensityFit::CreateStreaming(Sym8Basis(), 2, 8);
  full.AddBatch(all);
  core::WaveletDensityFit left =
      *core::WaveletDensityFit::CreateStreaming(Sym8Basis(), 2, 8);
  core::WaveletDensityFit right =
      *core::WaveletDensityFit::CreateStreaming(Sym8Basis(), 2, 8);
  left.AddBatch(all.first(4096));
  right.AddBatch(all.subspan(4096));
  ASSERT_TRUE(left.Merge(right).ok());

  // The rebuild-from-merged path: cross-validate and reconstruct from the
  // combined sums, then compare range masses against the full-stream fit.
  const core::CrossValidationResult cv_full =
      core::CrossValidate(full.coefficients(), core::ThresholdKind::kSoft);
  const core::CrossValidationResult cv_merged =
      core::CrossValidate(left.coefficients(), core::ThresholdKind::kSoft);
  const core::WaveletEstimate est_full =
      full.Estimate(cv_full.Schedule(), core::ThresholdKind::kSoft);
  const core::WaveletEstimate est_merged =
      left.Estimate(cv_merged.Schedule(), core::ThresholdKind::kSoft);
  for (double a = 0.0; a < 1.0; a += 0.13) {
    ExpectRelNear(est_merged.IntegrateRange(a, a + 0.1),
                  est_full.IntegrateRange(a, a + 0.1), 1e-12);
  }
}

TEST(FitMergeTest, RejectsDomainMismatch) {
  core::WaveletDensityFit unit =
      *core::WaveletDensityFit::CreateStreaming(Sym8Basis(), 2, 6, 0.0, 1.0);
  const core::WaveletDensityFit wide =
      *core::WaveletDensityFit::CreateStreaming(Sym8Basis(), 2, 6, 0.0, 2.0);
  EXPECT_FALSE(unit.Merge(wide).ok());
}

// ------------------------------------------------- selectivity MergeFrom

selectivity::StreamingWaveletSelectivity MakeSketch(size_t refit_interval) {
  selectivity::StreamingWaveletSelectivity::Options options;
  options.j0 = 2;
  options.j_max = 8;
  options.refit_interval = refit_interval;
  return *selectivity::StreamingWaveletSelectivity::Create(Sym8Basis(), options);
}

TEST(SelectivityMergeTest, EquiWidthMergeIsExact) {
  const std::vector<double> xs = UnitStream(8, 5000);
  const std::span<const double> all(xs);
  selectivity::EquiWidthHistogram sequential(0.0, 1.0, 64);
  sequential.InsertBatch(all);
  selectivity::EquiWidthHistogram left(0.0, 1.0, 64);
  selectivity::EquiWidthHistogram right(0.0, 1.0, 64);
  left.InsertBatch(all.first(2200));
  right.InsertBatch(all.subspan(2200));
  ASSERT_TRUE(left.MergeFrom(right).ok());
  EXPECT_EQ(left.count(), sequential.count());
  for (double a = 0.0; a < 0.9; a += 0.07) {
    EXPECT_EQ(left.EstimateRange(a, a + 0.1), sequential.EstimateRange(a, a + 0.1));
  }
}

TEST(SelectivityMergeTest, EquiDepthAndKdeMergeMatchSequential) {
  const std::vector<double> xs = UnitStream(9, 4000);
  const std::span<const double> all(xs);

  selectivity::EquiDepthHistogram ed_seq(0.0, 1.0, 16);
  selectivity::EquiDepthHistogram ed_left(0.0, 1.0, 16);
  selectivity::EquiDepthHistogram ed_right(0.0, 1.0, 16);
  selectivity::KdeSelectivity kde_seq(selectivity::KdeSelectivity::Options{});
  selectivity::KdeSelectivity kde_left(selectivity::KdeSelectivity::Options{});
  selectivity::KdeSelectivity kde_right(selectivity::KdeSelectivity::Options{});

  ed_seq.InsertBatch(all);
  kde_seq.InsertBatch(all);
  ed_left.InsertBatch(all.first(1500));
  ed_right.InsertBatch(all.subspan(1500));
  kde_left.InsertBatch(all.first(1500));
  kde_right.InsertBatch(all.subspan(1500));
  ASSERT_TRUE(ed_left.MergeFrom(ed_right).ok());
  ASSERT_TRUE(kde_left.MergeFrom(kde_right).ok());

  // MergeFrom appends in order, so the merged buffers equal the sequential
  // buffers element-for-element: answers are bit-identical.
  for (double a = 0.0; a < 0.9; a += 0.11) {
    EXPECT_EQ(ed_left.EstimateRange(a, a + 0.08), ed_seq.EstimateRange(a, a + 0.08));
    EXPECT_EQ(kde_left.EstimateRange(a, a + 0.08), kde_seq.EstimateRange(a, a + 0.08));
  }
}

TEST(SelectivityMergeTest, SynopsisMergeIsExact) {
  const std::vector<double> xs = UnitStream(10, 6000);
  const std::span<const double> all(xs);
  selectivity::WaveletSynopsisSelectivity::Options options;
  options.grid_log2 = 8;
  options.budget = 32;
  options.rebuild_interval = 1 << 20;  // rebuild once, at query time
  selectivity::WaveletSynopsisSelectivity sequential =
      *selectivity::WaveletSynopsisSelectivity::Create(options);
  selectivity::WaveletSynopsisSelectivity left =
      *selectivity::WaveletSynopsisSelectivity::Create(options);
  selectivity::WaveletSynopsisSelectivity right =
      *selectivity::WaveletSynopsisSelectivity::Create(options);
  sequential.InsertBatch(all);
  left.InsertBatch(all.first(2700));
  right.InsertBatch(all.subspan(2700));
  ASSERT_TRUE(left.MergeFrom(right).ok());
  for (double a = 0.0; a < 0.9; a += 0.09) {
    EXPECT_EQ(left.EstimateRange(a, a + 0.1), sequential.EstimateRange(a, a + 0.1));
  }
}

TEST(SelectivityMergeTest, SketchMergeMatchesSequentialWithinTolerance) {
  const std::vector<double> xs = UnitStream(11, 1 << 14);
  const std::span<const double> all(xs);
  // refit_interval > n: both sides reconstruct exactly once, at query time,
  // from the full-count sums.
  selectivity::StreamingWaveletSelectivity sequential = MakeSketch(1 << 30);
  selectivity::StreamingWaveletSelectivity left = MakeSketch(1 << 30);
  selectivity::StreamingWaveletSelectivity right = MakeSketch(1 << 30);
  sequential.InsertBatch(all);
  left.InsertBatch(all.first(6000));
  right.InsertBatch(all.subspan(6000));
  ASSERT_TRUE(left.MergeFrom(right).ok());
  EXPECT_EQ(left.count(), sequential.count());
  for (double a = 0.0; a < 0.9; a += 0.07) {
    ExpectRelNear(left.EstimateRange(a, a + 0.1),
                  sequential.EstimateRange(a, a + 0.1), 1e-12);
  }
}

TEST(SelectivityMergeTest, SelfMergeIsRejectedEverywhere) {
  // Self-merge would self-insert for the buffer-append estimators (UB: the
  // source range lives inside the destination vector) and silently double
  // every count elsewhere — every merge entry point must reject it cold.
  const std::vector<double> xs = UnitStream(17, 300);
  selectivity::EquiWidthHistogram ew(0.0, 1.0, 8);
  selectivity::EquiDepthHistogram ed(0.0, 1.0, 8);
  selectivity::KdeSelectivity kde(selectivity::KdeSelectivity::Options{});
  selectivity::WaveletSynopsisSelectivity synopsis =
      *selectivity::WaveletSynopsisSelectivity::Create({});
  selectivity::StreamingWaveletSelectivity sketch = MakeSketch(1024);
  selectivity::EquiWidthHistogram prototype(0.0, 1.0, 8);
  selectivity::ShardedSelectivityEstimator sharded =
      *selectivity::ShardedSelectivityEstimator::Create(prototype, {});
  const std::vector<selectivity::SelectivityEstimator*> all{
      &ew, &ed, &kde, &synopsis, &sketch, &sharded};
  for (selectivity::SelectivityEstimator* est : all) {
    est->InsertBatch(xs);
    const size_t before = est->count();
    EXPECT_FALSE(est->MergeFrom(*est).ok()) << est->name();
    EXPECT_EQ(est->count(), before) << est->name();
  }

  core::EmpiricalCoefficients coeffs =
      *core::EmpiricalCoefficients::Create(Sym8Basis(), 2, 5);
  coeffs.AddAll(xs);
  EXPECT_FALSE(coeffs.Merge(coeffs).ok());
  EXPECT_EQ(coeffs.count(), xs.size());
  core::BinnedWaveletFit binned =
      *core::BinnedWaveletFit::Fit(*wavelet::WaveletFilter::Symmlet(8), xs, 2, 6);
  EXPECT_FALSE(binned.Merge(binned).ok());
  core::WaveletDensityFit fit =
      *core::WaveletDensityFit::CreateStreaming(Sym8Basis(), 2, 5);
  fit.AddBatch(xs);
  EXPECT_FALSE(fit.Merge(fit).ok());  // caught by the coefficients guard
}

TEST(SelectivityMergeTest, SketchMergeIgnoresRefitCadence) {
  // refit_interval paces only the owner's staleness, so replicas with
  // refits disabled must merge into a normally paced sketch — the
  // recommended sharded-ingest configuration.
  const std::vector<double> xs = UnitStream(18, 4096);
  selectivity::StreamingWaveletSelectivity paced = MakeSketch(1024);
  selectivity::StreamingWaveletSelectivity unpaced = MakeSketch(1 << 30);
  paced.InsertBatch(std::span<const double>(xs).first(2048));
  unpaced.InsertBatch(std::span<const double>(xs).subspan(2048));
  EXPECT_TRUE(paced.MergeFrom(unpaced).ok());
  EXPECT_EQ(paced.count(), xs.size());
}

// ------------------------------------------------ reservoir MergeFrom (PR 4)
//
// The reservoir's merge contract is *distributional*, not pointwise: the
// weighted union is exactly a uniform capacity-sample of the concatenated
// stream, drawn from this estimator's own seeded RNG — deterministic, but not
// the bitwise sample a sequential reservoir would have produced.

TEST(ReservoirMergeTest, PeerBelowCapacityMergesAsExactReplay) {
  const std::vector<double> xs = UnitStream(20, 3000);
  const std::vector<double> tail = UnitStream(21, 40);
  selectivity::ReservoirSampleSelectivity merged(64, 7);
  selectivity::ReservoirSampleSelectivity sequential(64, 7);
  merged.InsertBatch(xs);
  sequential.InsertBatch(xs);
  selectivity::ReservoirSampleSelectivity peer(64, 9);
  peer.InsertBatch(tail);  // 40 < capacity: the reservoir IS the sub-stream
  ASSERT_TRUE(merged.MergeFrom(peer).ok());
  sequential.InsertBatch(tail);
  EXPECT_EQ(merged.count(), sequential.count());
  EXPECT_EQ(merged.reservoir(), sequential.reservoir());  // bitwise replay
}

TEST(ReservoirMergeTest, WeightedUnionIsDeterministicAndCountAdditive) {
  const std::vector<double> xs = UnitStream(22, 20000);
  const std::span<const double> all(xs);
  const auto run = [&]() {
    selectivity::ReservoirSampleSelectivity left(256, 5);
    selectivity::ReservoirSampleSelectivity right(256, 6);
    left.InsertBatch(all.first(12000));
    right.InsertBatch(all.subspan(12000));
    WDE_CHECK_OK(left.MergeFrom(right));
    return left.reservoir();
  };
  const std::vector<double> first = run();
  EXPECT_EQ(first.size(), 256u);
  EXPECT_EQ(first, run());  // same states + seed => bitwise identical draw

  selectivity::ReservoirSampleSelectivity left(256, 5);
  selectivity::ReservoirSampleSelectivity right(256, 6);
  left.InsertBatch(all.first(12000));
  right.InsertBatch(all.subspan(12000));
  ASSERT_TRUE(left.MergeFrom(right).ok());
  EXPECT_EQ(left.count(), xs.size());
}

TEST(ReservoirMergeTest, WeightedUnionSamplesBothSidesProportionally) {
  // Side A streams values in [0, 0.5), side B in [0.5, 1]: the union sample
  // must mix them by stream mass, so the merged selectivity of [0, 0.5)
  // estimates A's share of the union (2/3 here) within sampling error.
  stats::Rng rng(23);
  selectivity::ReservoirSampleSelectivity a(1024, 11);
  selectivity::ReservoirSampleSelectivity b(1024, 12);
  for (int i = 0; i < 40000; ++i) a.Insert(rng.Uniform(0.0, 0.5));
  for (int i = 0; i < 20000; ++i) b.Insert(rng.Uniform(0.5, 1.0));
  ASSERT_TRUE(a.MergeFrom(b).ok());
  EXPECT_EQ(a.count(), 60000u);
  // Binomial sd at p=2/3, n=1024 is ~0.015; 0.08 is a > 5 sigma margin.
  EXPECT_NEAR(a.EstimateRange(0.0, 0.5), 2.0 / 3.0, 0.08);
}

TEST(ReservoirMergeTest, RejectsCapacityMismatchAndSelfMerge) {
  const std::vector<double> xs = UnitStream(24, 500);
  selectivity::ReservoirSampleSelectivity a(64), other_capacity(32);
  a.InsertBatch(xs);
  other_capacity.InsertBatch(xs);
  EXPECT_TRUE(a.mergeable());
  EXPECT_FALSE(a.MergeFrom(other_capacity).ok());
  EXPECT_FALSE(a.MergeFrom(a).ok());
  EXPECT_EQ(a.count(), xs.size());

  std::unique_ptr<selectivity::SelectivityEstimator> clone = a.CloneEmpty();
  ASSERT_NE(clone, nullptr);
  EXPECT_EQ(clone->count(), 0u);
  EXPECT_TRUE(a.MergeFrom(*clone).ok());  // empty peer: exact no-op replay
  EXPECT_EQ(a.count(), xs.size());
}

TEST(ReservoirMergeTest, ShardedReservoirIsDeterministicAcrossPoolWidths) {
  // Now that the reservoir merges, it can ride the sharded engine; fixed-K
  // answers must stay bit-identical across pool widths like every estimator.
  const std::vector<double> xs = UnitStream(25, 30000);
  const auto run = [&](parallel::ThreadPool* pool) {
    selectivity::ReservoirSampleSelectivity prototype(128, 3);
    selectivity::ShardedSelectivityEstimator::Options options;
    options.shards = 4;
    options.block_size = 512;
    options.pool = pool;
    selectivity::ShardedSelectivityEstimator sharded =
        *selectivity::ShardedSelectivityEstimator::Create(prototype, options);
    sharded.InsertBatch(xs);
    std::vector<double> answers;
    for (double a = 0.0; a < 0.9; a += 0.1) {
      answers.push_back(sharded.EstimateRange(a, a + 0.1));
    }
    return answers;
  };
  parallel::ThreadPool serial(0);
  parallel::ThreadPool wide(4);
  EXPECT_EQ(run(&serial), run(&wide));
}

TEST(SelectivityMergeTest, RejectsTypeAndConfigMismatches) {
  selectivity::EquiWidthHistogram hist(0.0, 1.0, 64);
  selectivity::EquiWidthHistogram more_buckets(0.0, 1.0, 32);
  selectivity::EquiWidthHistogram other_domain(0.0, 2.0, 64);
  selectivity::StreamingWaveletSelectivity sketch = MakeSketch(1024);
  selectivity::StreamingWaveletSelectivity narrower = []() {
    selectivity::StreamingWaveletSelectivity::Options options;
    options.j0 = 2;
    options.j_max = 6;
    return *selectivity::StreamingWaveletSelectivity::Create(Sym8Basis(), options);
  }();

  EXPECT_FALSE(hist.MergeFrom(sketch).ok());  // different concrete type
  EXPECT_FALSE(sketch.MergeFrom(hist).ok());
  EXPECT_FALSE(hist.MergeFrom(more_buckets).ok());
  EXPECT_FALSE(hist.MergeFrom(other_domain).ok());
  EXPECT_FALSE(sketch.MergeFrom(narrower).ok());  // level-range mismatch

  // CloneEmpty produces a merge-compatible twin.
  std::unique_ptr<selectivity::SelectivityEstimator> clone = hist.CloneEmpty();
  ASSERT_NE(clone, nullptr);
  EXPECT_EQ(clone->count(), 0u);
  EXPECT_TRUE(hist.MergeFrom(*clone).ok());
}

// --------------------------------------------- ShardedSelectivityEstimator

// A minimal estimator without the mergeability capabilities (the reservoir
// gained them in PR 4, so the "cannot shard" case needs a dedicated stub).
class NotMergeableEstimator : public selectivity::SelectivityEstimator {
 public:
  void Insert(double) override {}
  size_t count() const override { return 0; }
  std::string name() const override { return "not-mergeable"; }
  std::unique_ptr<selectivity::SelectivityEstimator> CloneForView() const override {
    return std::make_unique<NotMergeableEstimator>(*this);
  }

 protected:
  double EstimateRangeImpl(double, double) const override { return 0.0; }
};

TEST(ShardedTest, CreateValidatesOptions) {
  selectivity::EquiWidthHistogram hist(0.0, 1.0, 64);
  NotMergeableEstimator not_mergeable;
  selectivity::ShardedSelectivityEstimator::Options options;
  options.shards = 0;
  EXPECT_FALSE(
      selectivity::ShardedSelectivityEstimator::Create(hist, options).ok());
  options = {};
  options.block_size = 0;
  EXPECT_FALSE(
      selectivity::ShardedSelectivityEstimator::Create(hist, options).ok());
  options = {};
  // Non-mergeable prototypes cannot be sharded.
  EXPECT_FALSE(
      selectivity::ShardedSelectivityEstimator::Create(not_mergeable, options)
          .ok());
}

TEST(ShardedTest, ShardedHistogramMatchesSequentialExactly) {
  const std::vector<double> xs = UnitStream(12, 50000);
  selectivity::EquiWidthHistogram sequential(0.0, 1.0, 64);
  sequential.InsertBatch(xs);

  selectivity::EquiWidthHistogram prototype(0.0, 1.0, 64);
  selectivity::ShardedSelectivityEstimator::Options options;
  options.shards = 4;
  options.block_size = 1024;
  selectivity::ShardedSelectivityEstimator sharded =
      *selectivity::ShardedSelectivityEstimator::Create(prototype, options);
  sharded.InsertBatch(xs);

  EXPECT_EQ(sharded.count(), sequential.count());
  stats::Rng rng(121);
  const std::vector<selectivity::RangeQuery> queries =
      selectivity::UniformRangeWorkload(rng, 100, 0.0, 1.0);
  std::vector<double> got(queries.size());
  sharded.EstimateBatch(queries, got);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(got[i], sequential.EstimateRange(queries[i].lo, queries[i].hi));
  }
}

TEST(ShardedTest, ShardedSketchMatchesSequentialWithinTolerance) {
  const std::vector<double> xs = UnitStream(13, 1 << 14);
  selectivity::StreamingWaveletSelectivity sequential = MakeSketch(1 << 30);
  sequential.InsertBatch(xs);

  const selectivity::StreamingWaveletSelectivity prototype = MakeSketch(1 << 30);
  selectivity::ShardedSelectivityEstimator::Options options;
  options.shards = 4;
  options.block_size = 512;
  selectivity::ShardedSelectivityEstimator sharded =
      *selectivity::ShardedSelectivityEstimator::Create(prototype, options);
  sharded.InsertBatch(xs);

  EXPECT_EQ(sharded.count(), sequential.count());
  for (double a = 0.0; a < 0.9; a += 0.07) {
    ExpectRelNear(sharded.EstimateRange(a, a + 0.1),
                  sequential.EstimateRange(a, a + 0.1), 1e-12);
  }
}

TEST(ShardedTest, FixedShardCountIsBitIdenticalAcrossPoolSizes) {
  const std::vector<double> xs = UnitStream(14, 1 << 14);
  stats::Rng rng(141);
  const std::vector<selectivity::RangeQuery> queries =
      selectivity::UniformRangeWorkload(rng, 64, 0.0, 1.0);

  const auto run = [&](parallel::ThreadPool* pool) {
    const selectivity::StreamingWaveletSelectivity prototype = MakeSketch(2048);
    selectivity::ShardedSelectivityEstimator::Options options;
    options.shards = 4;
    options.block_size = 777;  // deliberately unaligned with the batch sizes
    options.pool = pool;
    selectivity::ShardedSelectivityEstimator sharded =
        *selectivity::ShardedSelectivityEstimator::Create(prototype, options);
    // Several batches so chunks straddle batch boundaries.
    const std::span<const double> all(xs);
    sharded.InsertBatch(all.first(5000));
    sharded.InsertBatch(all.subspan(5000, 3));
    sharded.InsertBatch(all.subspan(5003));
    std::vector<double> answers(queries.size());
    sharded.EstimateBatch(queries, answers);
    return answers;
  };

  parallel::ThreadPool serial(0);
  parallel::ThreadPool narrow(1);
  parallel::ThreadPool wide(4);
  const std::vector<double> baseline = run(&serial);
  EXPECT_EQ(baseline, run(&narrow));
  EXPECT_EQ(baseline, run(&wide));
  EXPECT_EQ(baseline, run(nullptr));  // shared pool
}

TEST(ShardedTest, ScalarInsertMatchesInsertBatchBitwise) {
  const std::vector<double> xs = UnitStream(15, 20000);
  const auto make = []() {
    selectivity::EquiWidthHistogram prototype(0.0, 1.0, 32);
    selectivity::ShardedSelectivityEstimator::Options options;
    options.shards = 3;
    options.block_size = 64;
    return *selectivity::ShardedSelectivityEstimator::Create(prototype, options);
  };
  selectivity::ShardedSelectivityEstimator scalar = make();
  selectivity::ShardedSelectivityEstimator batch = make();
  for (double x : xs) scalar.Insert(x);
  batch.InsertBatch(xs);
  ASSERT_EQ(scalar.count(), batch.count());
  for (size_t s = 0; s < scalar.shards(); ++s) {
    EXPECT_EQ(scalar.shard(s).count(), batch.shard(s).count()) << "shard " << s;
  }
  for (double a = 0.0; a < 0.9; a += 0.05) {
    EXPECT_EQ(scalar.EstimateRange(a, a + 0.1), batch.EstimateRange(a, a + 0.1));
  }
}

TEST(ShardedTest, EmptyBatchesAreNoOps) {
  selectivity::EquiWidthHistogram prototype(0.0, 1.0, 16);
  selectivity::ShardedSelectivityEstimator sharded =
      *selectivity::ShardedSelectivityEstimator::Create(prototype, {});
  sharded.InsertBatch(std::span<const double>());
  sharded.InsertBatch(std::span<const double>(static_cast<const double*>(nullptr), 0));
  EXPECT_EQ(sharded.count(), 0u);
  sharded.EstimateBatch({}, {});
  EXPECT_DOUBLE_EQ(sharded.EstimateRange(0.2, 0.8), 0.0);
}

TEST(ShardedTest, MergeRefreshIntervalAnswersFromStaleView) {
  selectivity::EquiWidthHistogram prototype(0.0, 1.0, 16);
  selectivity::ShardedSelectivityEstimator::Options options;
  options.shards = 2;
  options.merge_refresh_interval = 100;
  selectivity::ShardedSelectivityEstimator sharded =
      *selectivity::ShardedSelectivityEstimator::Create(prototype, options);
  selectivity::ShardedSelectivityEstimator::Options invalid = options;
  invalid.merge_refresh_interval = 0;
  EXPECT_FALSE(
      selectivity::ShardedSelectivityEstimator::Create(prototype, invalid).ok());

  const std::vector<double> first(10, 0.25);
  sharded.InsertBatch(first);
  EXPECT_EQ(sharded.MergedView().count(), 10u);  // first query builds the view
  const std::vector<double> second(50, 0.75);
  sharded.InsertBatch(second);
  // 50 < 100 pending values: the view is allowed to stay stale...
  EXPECT_EQ(sharded.count(), 60u);
  EXPECT_EQ(sharded.MergedView().count(), 10u);
  EXPECT_DOUBLE_EQ(sharded.EstimateRange(0.5, 1.0), 0.0);
  // ...until the cadence is crossed, which refreshes it.
  sharded.InsertBatch(second);
  EXPECT_EQ(sharded.MergedView().count(), 110u);
  EXPECT_NEAR(sharded.EstimateRange(0.5, 1.0), 100.0 / 110.0, 1e-12);
}

TEST(ShardedTest, ShardedMergesShardWise) {
  const std::vector<double> xs = UnitStream(16, 30000);
  const std::span<const double> all(xs);
  const auto make = []() {
    selectivity::EquiWidthHistogram prototype(0.0, 1.0, 64);
    selectivity::ShardedSelectivityEstimator::Options options;
    options.shards = 4;
    return *selectivity::ShardedSelectivityEstimator::Create(prototype, options);
  };
  selectivity::ShardedSelectivityEstimator node_a = make();
  selectivity::ShardedSelectivityEstimator node_b = make();
  node_a.InsertBatch(all.first(17000));
  node_b.InsertBatch(all.subspan(17000));
  ASSERT_TRUE(node_a.MergeFrom(node_b).ok());

  selectivity::EquiWidthHistogram sequential(0.0, 1.0, 64);
  sequential.InsertBatch(all);
  EXPECT_EQ(node_a.count(), sequential.count());
  for (double a = 0.0; a < 0.9; a += 0.06) {
    EXPECT_EQ(node_a.EstimateRange(a, a + 0.1),
              sequential.EstimateRange(a, a + 0.1));
  }

  // Layout mismatches are rejected.
  selectivity::EquiWidthHistogram prototype(0.0, 1.0, 64);
  selectivity::ShardedSelectivityEstimator::Options other_layout;
  other_layout.shards = 2;
  selectivity::ShardedSelectivityEstimator two_shards =
      *selectivity::ShardedSelectivityEstimator::Create(prototype, other_layout);
  EXPECT_FALSE(node_a.MergeFrom(two_shards).ok());
}

}  // namespace
}  // namespace wde
