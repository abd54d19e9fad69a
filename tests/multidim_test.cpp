// Tier-1 tests for the multi-dimensional estimation subsystem: the pure 2-D
// lattice math in src/multidim (cell indexing, summed-area prefix tables),
// the correlated synthetic-data generators, and the estimator-level
// contracts of grid2d, the registered 2-D tag: rectangle accuracy against
// analytic truth, correlation capture on the anti-product distribution
// (where any product-of-marginals answer is badly wrong),
// merge-of-disjoint-substreams ≡ sequential bitwise, and the sharded engine
// over a 2-D prototype.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <vector>

#include "multidim/grid2d.hpp"
#include "multidim/synthetic2d.hpp"
#include "selectivity/estimator_registry.hpp"
#include "selectivity/estimator_spec.hpp"
#include "selectivity/selectivity_estimator.hpp"
#include "stats/rng.hpp"

namespace wde {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double NormalCdf(double x, double mean, double stddev) {
  return 0.5 * std::erfc((mean - x) / (stddev * std::sqrt(2.0)));
}

// ----------------------------------------------------------- grid2d lattice

TEST(Grid2dMathTest, CellIndexClampsAndCoversTheDomain) {
  EXPECT_EQ(multidim::CellIndex1d(0.0, 0.0, 1.0, 8), 0u);
  EXPECT_EQ(multidim::CellIndex1d(0.124, 0.0, 1.0, 8), 0u);
  EXPECT_EQ(multidim::CellIndex1d(0.126, 0.0, 1.0, 8), 1u);
  // The last cell is closed: hi lands in g-1, not g.
  EXPECT_EQ(multidim::CellIndex1d(1.0, 0.0, 1.0, 8), 7u);
  EXPECT_EQ(multidim::CellIndex1d(-5.0, 0.0, 1.0, 8), 0u);
  EXPECT_EQ(multidim::CellIndex1d(5.0, 0.0, 1.0, 8), 7u);
}

TEST(Grid2dMathTest, CellSpaceClampsInfinitiesToTheEdges) {
  EXPECT_EQ(multidim::CellSpace1d(-kInf, 0.0, 1.0, 8), 0.0);
  EXPECT_EQ(multidim::CellSpace1d(kInf, 0.0, 1.0, 8), 8.0);
  EXPECT_EQ(multidim::CellSpace1d(0.5, 0.0, 1.0, 8), 4.0);
  EXPECT_EQ(multidim::CellSpace1d(-3.0, 0.0, 1.0, 8), 0.0);
  EXPECT_EQ(multidim::CellSpace1d(42.0, 0.0, 1.0, 8), 8.0);
}

TEST(Grid2dMathTest, InclusivePrefixMatchesBruteForce) {
  stats::Rng rng(31);
  const size_t g = 8;
  std::vector<double> counts(g * g);
  for (double& c : counts) c = static_cast<double>(rng.UniformInt(9));
  std::vector<double> prefix(g * g);
  multidim::InclusivePrefix2d(counts, prefix, g);
  for (size_t i = 0; i < g; ++i) {
    for (size_t j = 0; j < g; ++j) {
      double want = 0.0;
      for (size_t a = 0; a <= i; ++a) {
        for (size_t b = 0; b <= j; ++b) want += counts[a * g + b];
      }
      // Integer-valued counts: every partial sum is exact, so the table is
      // equal to ANY summation order, not merely close.
      EXPECT_EQ(prefix[i * g + j], want) << i << "," << j;
    }
  }
}

TEST(Grid2dMathTest, RectCountIsExactOnCellAlignedRectanglesAndClamps) {
  stats::Rng rng(37);
  const size_t g = 8;
  std::vector<double> counts(g * g);
  for (double& c : counts) c = static_cast<double>(rng.UniformInt(5));
  std::vector<double> prefix(g * g);
  multidim::InclusivePrefix2d(counts, prefix, g);
  const double total = prefix[g * g - 1];
  // The all-space rectangle is the total count, exactly.
  EXPECT_EQ(multidim::RectCount(prefix, g, -kInf, kInf, -kInf, kInf, 0.0, 1.0,
                                0.0, 1.0),
            total);
  // Cell-aligned rectangles hit lattice corners, where the bilinear CDF is
  // the table value itself: the answer is the exact cell-block sum.
  for (int rep = 0; rep < 32; ++rep) {
    size_t i0 = rng.UniformInt(g), i1 = rng.UniformInt(g);
    size_t j0 = rng.UniformInt(g), j1 = rng.UniformInt(g);
    if (i1 < i0) std::swap(i0, i1);
    if (j1 < j0) std::swap(j0, j1);
    double want = 0.0;
    for (size_t a = i0; a <= i1; ++a) {
      for (size_t b = j0; b <= j1; ++b) want += counts[a * g + b];
    }
    const double got = multidim::RectCount(
        prefix, g, static_cast<double>(i0) / g, static_cast<double>(i1 + 1) / g,
        static_cast<double>(j0) / g, static_cast<double>(j1 + 1) / g, 0.0, 1.0,
        0.0, 1.0);
    EXPECT_EQ(got, want) << i0 << ".." << i1 << " x " << j0 << ".." << j1;
  }
  // Degenerate and off-domain rectangles answer 0, never negative.
  EXPECT_EQ(multidim::RectCount(prefix, g, 0.3, 0.3, 0.2, 0.2, 0.0, 1.0, 0.0,
                                1.0),
            0.0);
  EXPECT_EQ(multidim::RectCount(prefix, g, 2.0, 3.0, 2.0, 3.0, 0.0, 1.0, 0.0,
                                1.0),
            0.0);
}

// --------------------------------------------------------- synthetic data

TEST(Synthetic2dTest, GaussianPairRealizesTheRequestedCorrelation) {
  stats::Rng rng(53);
  const size_t n = 20000;
  for (const double rho : {-0.8, 0.0, 0.6}) {
    double sum0 = 0.0, sum1 = 0.0, sum00 = 0.0, sum11 = 0.0, sum01 = 0.0;
    for (size_t i = 0; i < n; ++i) {
      double z0 = 0.0, z1 = 0.0;
      rng.GaussianPair(rho, &z0, &z1);
      sum0 += z0;
      sum1 += z1;
      sum00 += z0 * z0;
      sum11 += z1 * z1;
      sum01 += z0 * z1;
    }
    const double m0 = sum0 / n, m1 = sum1 / n;
    const double v0 = sum00 / n - m0 * m0, v1 = sum11 / n - m1 * m1;
    const double cov = sum01 / n - m0 * m1;
    EXPECT_NEAR(cov / std::sqrt(v0 * v1), rho, 0.03) << "rho=" << rho;
  }
  // ρ = ±1 are exact, not statistical.
  double z0 = 0.0, z1 = 0.0;
  rng.GaussianPair(1.0, &z0, &z1);
  EXPECT_EQ(z1, z0);
  rng.GaussianPair(-1.0, &z0, &z1);
  EXPECT_EQ(z1, -z0);
}

TEST(Synthetic2dTest, GeneratorsAreDeterministicAndInterleaved) {
  const std::vector<multidim::GaussianComponent2d> components = {
      {1.0, 0.3, 0.3, 0.05, 0.08, 0.5}, {2.0, 0.7, 0.6, 0.1, 0.05, -0.3}};
  std::vector<double> a, b;
  stats::Rng rng_a(61), rng_b(61);
  multidim::SampleGaussianMixture2d(rng_a, components, 500, &a);
  multidim::SampleGaussianMixture2d(rng_b, components, 500, &b);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 1000u);

  std::vector<double> c, d;
  stats::Rng rng_c(62), rng_d(62);
  multidim::SampleAntiProduct2d(rng_c, 300, 0.05, &c);
  multidim::SampleAntiProduct2d(rng_d, 300, 0.05, &d);
  EXPECT_EQ(c, d);
  EXPECT_EQ(c.size(), 600u);
  for (size_t i = 0; i < c.size(); i += 2) {
    EXPECT_GE(c[i + 1], 0.0);  // y reflected into [0, 1]
    EXPECT_LE(c[i + 1], 1.0);
  }
}

TEST(Synthetic2dTest, AntiProductConcentratesOnTheDiagonals) {
  stats::Rng rng(67);
  std::vector<double> data;
  const size_t n = 10000;
  multidim::SampleAntiProduct2d(rng, n, 0.03, &data);
  size_t on_diagonals = 0;
  double x_sum = 0.0, y_sum = 0.0;
  for (size_t i = 0; i < 2 * n; i += 2) {
    const double x = data[i], y = data[i + 1];
    if (std::fabs(y - x) < 0.1 || std::fabs(y - (1.0 - x)) < 0.1) {
      ++on_diagonals;
    }
    x_sum += x;
    y_sum += y;
  }
  EXPECT_GT(static_cast<double>(on_diagonals) / n, 0.9);
  // ... while both marginals stay centered like uniforms.
  EXPECT_NEAR(x_sum / n, 0.5, 0.02);
  EXPECT_NEAR(y_sum / n, 0.5, 0.02);
}

// ------------------------------------------------------ estimator contracts

std::unique_ptr<selectivity::SelectivityEstimator> MakeGrid2d() {
  selectivity::EstimatorSpec spec;
  spec.tag = "grid2d";
  spec.dims = 2;
  spec.grid_log2 = 6;
  Result<std::unique_ptr<selectivity::SelectivityEstimator>> est =
      selectivity::MakeEstimator(spec);
  WDE_CHECK(est.ok(), est.status().ToString().c_str());
  return std::move(est).value();
}

TEST(MultiDimEstimatorTest, RegistryDeclaresNativeDims) {
  EXPECT_EQ(selectivity::EstimatorRegistry::Global().NativeDims("grid2d"), 2);
  EXPECT_EQ(selectivity::EstimatorRegistry::Global().NativeDims("equi-width"),
            1);
  EXPECT_EQ(selectivity::EstimatorRegistry::Global().NativeDims("no-such"), 0);
  EXPECT_EQ(MakeGrid2d()->dims(), 2);
}

TEST(MultiDimEstimatorTest, RectAnswersMatchAnalyticTruthOnAMixture) {
  // Uncorrelated components so the rect truth factors per component:
  // P(rect) = Σ w_k · [Φ_x(hi0) − Φ_x(lo0)] · [Φ_y(hi1) − Φ_y(lo1)].
  const std::vector<multidim::GaussianComponent2d> components = {
      {0.6, 0.3, 0.35, 0.07, 0.06, 0.0}, {0.4, 0.7, 0.65, 0.06, 0.08, 0.0}};
  stats::Rng rng(71);
  std::vector<double> data;
  multidim::SampleGaussianMixture2d(rng, components, 20000, &data);
  const auto truth = [&](double lo0, double hi0, double lo1, double hi1) {
    double p = 0.0;
    for (const auto& c : components) {
      p += c.weight *
           (NormalCdf(hi0, c.mean_x, c.stddev_x) -
            NormalCdf(lo0, c.mean_x, c.stddev_x)) *
           (NormalCdf(hi1, c.mean_y, c.stddev_y) -
            NormalCdf(lo1, c.mean_y, c.stddev_y));
    }
    return p;
  };
  std::unique_ptr<selectivity::SelectivityEstimator> est = MakeGrid2d();
  est->InsertBatch(data);
  stats::Rng query_rng(73);
  for (int rep = 0; rep < 40; ++rep) {
    double lo0 = query_rng.UniformDouble(), hi0 = query_rng.UniformDouble();
    double lo1 = query_rng.UniformDouble(), hi1 = query_rng.UniformDouble();
    if (hi0 < lo0) std::swap(lo0, hi0);
    if (hi1 < lo1) std::swap(lo1, hi1);
    const double got =
        est->Answer(selectivity::Query::Rect(lo0, hi0, lo1, hi1));
    EXPECT_NEAR(got, truth(lo0, hi0, lo1, hi1), 0.04)
        << "rect [" << lo0 << "," << hi0 << "]x[" << lo1 << ","
        << hi1 << "]";
  }
}

TEST(MultiDimEstimatorTest, JointCapturesAntiProductCorrelation) {
  // The discriminating case for 2-D estimation: the anti-product joint puts
  // ~5x more mass in the central square than the product of its marginals
  // claims. Any estimator that factorizes would answer ~0.04 here.
  stats::Rng rng(79);
  std::vector<double> data;
  multidim::SampleAntiProduct2d(rng, 20000, 0.03, &data);
  std::unique_ptr<selectivity::SelectivityEstimator> est = MakeGrid2d();
  est->InsertBatch(data);
  const double joint =
      est->Answer(selectivity::Query::Rect(0.4, 0.6, 0.4, 0.6));
  const double m0 = est->Answer(selectivity::Query::Marginal(0, 0.4, 0.6));
  const double m1 = est->Answer(selectivity::Query::Marginal(1, 0.4, 0.6));
  EXPECT_GT(joint, 2.5 * m0 * m1);
  EXPECT_NEAR(m0, 0.2, 0.05);  // marginals still near-uniform
  EXPECT_NEAR(m1, 0.2, 0.05);
}

TEST(MultiDimEstimatorTest, MergeOfDisjointSubstreamsMatchesSequentialBitwise) {
  // Answers are functions of the observation multiset (integer cell
  // counts), so CloneEmpty + per-substream ingest + MergeFrom must be
  // indistinguishable from one sequential estimator — bitwise.
  stats::Rng rng(83);
  std::vector<double> data;
  multidim::SampleAntiProduct2d(rng, 3000, 0.05, &data);
  const size_t cut = 2 * 1000;  // observation-aligned split
  const std::span<const double> head(data.data(), cut);
  const std::span<const double> tail(data.data() + cut, data.size() - cut);
  stats::Rng query_rng(89);
  std::unique_ptr<selectivity::SelectivityEstimator> sequential = MakeGrid2d();
  sequential->InsertBatch(data);
  std::unique_ptr<selectivity::SelectivityEstimator> merged = MakeGrid2d();
  std::unique_ptr<selectivity::SelectivityEstimator> peer =
      merged->CloneEmpty();
  merged->InsertBatch(head);
  peer->InsertBatch(tail);
  ASSERT_TRUE(merged->MergeFrom(*peer).ok());
  ASSERT_EQ(merged->count(), sequential->count());
  for (int rep = 0; rep < 32; ++rep) {
    double lo0 = query_rng.UniformDouble(), hi0 = query_rng.UniformDouble();
    double lo1 = query_rng.UniformDouble(), hi1 = query_rng.UniformDouble();
    if (hi0 < lo0) std::swap(lo0, hi0);
    if (hi1 < lo1) std::swap(lo1, hi1);
    const selectivity::Query q =
        selectivity::Query::Rect(lo0, hi0, lo1, hi1);
    EXPECT_EQ(merged->Answer(q), sequential->Answer(q));
  }
}

TEST(MultiDimEstimatorTest, ShardedEngineOverA2dPrototypeMatchesSequential) {
  // The sharded engine splits the interleaved stream into blocks; Create
  // guarantees block_size % dims == 0, so observations never straddle
  // shards, and the grid's integer cell counts make the merged view
  // bit-identical to sequential ingest.
  stats::Rng rng(97);
  std::vector<double> data;
  multidim::SampleAntiProduct2d(rng, 10000, 0.05, &data);
  selectivity::EstimatorSpec spec;
  spec.tag = "sharded";
  spec.sharded_inner_tag = "grid2d";
  spec.dims = 2;
  spec.grid_log2 = 6;
  spec.shards = 3;
  spec.block_size = 128;
  Result<std::unique_ptr<selectivity::SelectivityEstimator>> sharded =
      selectivity::MakeEstimator(spec);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_EQ((*sharded)->dims(), 2);
  std::unique_ptr<selectivity::SelectivityEstimator> plain = MakeGrid2d();
  (*sharded)->InsertBatch(data);
  plain->InsertBatch(data);
  EXPECT_EQ((*sharded)->count(), plain->count());
  stats::Rng query_rng(101);
  for (int rep = 0; rep < 32; ++rep) {
    double lo0 = query_rng.UniformDouble(), hi0 = query_rng.UniformDouble();
    double lo1 = query_rng.UniformDouble(), hi1 = query_rng.UniformDouble();
    if (hi0 < lo0) std::swap(lo0, hi0);
    if (hi1 < lo1) std::swap(lo1, hi1);
    const selectivity::Query q = selectivity::Query::Rect(lo0, hi0, lo1, hi1);
    EXPECT_EQ((*sharded)->Answer(q), plain->Answer(q)) << "rep " << rep;
  }
}

TEST(MultiDimEstimatorTest, InterleaveParitySurvivesNonFiniteCoordinates) {
  // A non-finite value anywhere in the pair drops the WHOLE observation;
  // dropping a single coordinate would shift the interleave and silently
  // pair x's with the wrong y's forever after.
  std::unique_ptr<selectivity::SelectivityEstimator> est = MakeGrid2d();
  std::unique_ptr<selectivity::SelectivityEstimator> clean = MakeGrid2d();
  const double nan = std::nan("");
  est->InsertBatch(std::vector<double>{0.1, 0.2, nan, 0.9, 0.3, 0.4, 0.5,
                                       kInf, 0.7, 0.8});
  clean->InsertBatch(std::vector<double>{0.1, 0.2, 0.3, 0.4, 0.7, 0.8});
  EXPECT_EQ(est->count(), 3u);
  const selectivity::Query q = selectivity::Query::Rect(0.0, 0.45, 0.0, 0.45);
  EXPECT_EQ(est->Answer(q), clean->Answer(q));
}

}  // namespace
}  // namespace wde
