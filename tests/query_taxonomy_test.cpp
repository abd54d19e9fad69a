// Contract tests for the typed query taxonomy and the declarative estimator
// specs: every kind's documented lowering onto the range primitive (bitwise,
// for every estimator — overrides with cheaper per-kind paths must be
// indistinguishable from the lowering), the interface-level normalization
// (NaN parameters answer 0.0, inverted ranges swap, quantile levels clamp),
// CDF/quantile round-trip consistency, and MakeEstimator building every
// registered tag from one EstimatorSpec description.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "selectivity/estimator_registry.hpp"
#include "selectivity/estimator_spec.hpp"
#include "selectivity/query_workload.hpp"
#include "selectivity/selectivity_estimator.hpp"
#include "serving/estimator_service.hpp"
#include "stats/rng.hpp"

namespace wde {
namespace selectivity {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
const double kNan = std::nan("");

// One estimator per registered tag, built declaratively. Moderate sizes keep
// the suite fast while giving quantiles and CDFs enough resolution.
std::vector<std::unique_ptr<SelectivityEstimator>> MakeAllEstimators() {
  std::vector<std::unique_ptr<SelectivityEstimator>> all;
  for (const std::string& tag : EstimatorRegistry::Global().Tags()) {
    EstimatorSpec spec;
    spec.tag = tag;
    // Every tag builds at its native dimensionality (factories reject any
    // other value, pinned in SpecValidationRejectsBadFields below).
    spec.dims = EstimatorRegistry::Global().NativeDims(tag);
    spec.buckets = 64;
    spec.grid_log2 = 8;
    spec.budget = 48;
    spec.j_max = 8;
    spec.refit_interval = 512;
    spec.capacity = 512;
    spec.shards = 3;
    spec.block_size = 64;
    spec.sharded_inner_tag = "equi-width";
    Result<std::unique_ptr<SelectivityEstimator>> est = MakeEstimator(spec);
    WDE_CHECK(est.ok(), "every registered tag must build from a spec");
    all.push_back(std::move(est).value());
  }
  return all;
}

std::vector<std::unique_ptr<SelectivityEstimator>> MakeIngestedEstimators(
    uint64_t seed, size_t n) {
  std::vector<std::unique_ptr<SelectivityEstimator>> all = MakeAllEstimators();
  stats::Rng rng(seed);
  std::vector<double> values(n);
  for (double& v : values) v = rng.UniformDouble();
  for (auto& est : all) est->InsertBatch(values);
  return all;
}

TEST(QueryTaxonomyTest, SpecBuildsEveryRegisteredTag) {
  const std::vector<std::string> tags = EstimatorRegistry::Global().Tags();
  ASSERT_GE(tags.size(), 7u);
  std::vector<std::unique_ptr<SelectivityEstimator>> all = MakeAllEstimators();
  ASSERT_EQ(all.size(), tags.size());
  for (size_t i = 0; i < tags.size(); ++i) {
    ASSERT_NE(all[i], nullptr) << tags[i];
    // The spec tag IS the snapshot tag: one string names the estimator in
    // construction and on the wire.
    EXPECT_STREQ(all[i]->snapshot_type_tag(), tags[i].c_str());
  }
}

TEST(QueryTaxonomyTest, SpecValidationRejectsBadFields) {
  EstimatorSpec spec;
  spec.tag = "no-such-estimator";
  EXPECT_FALSE(MakeEstimator(spec).ok());

  spec = EstimatorSpec{};
  spec.tag = "equi-width";
  spec.buckets = 0;
  EXPECT_FALSE(MakeEstimator(spec).ok());

  spec = EstimatorSpec{};
  spec.tag = "equi-depth";
  spec.domain_lo = 1.0;
  spec.domain_hi = 0.0;
  EXPECT_FALSE(MakeEstimator(spec).ok());

  spec = EstimatorSpec{};
  spec.tag = "kde-rot";
  spec.refit_interval = 0;
  EXPECT_FALSE(MakeEstimator(spec).ok());

  spec = EstimatorSpec{};
  spec.tag = "reservoir";
  spec.capacity = 0;
  EXPECT_FALSE(MakeEstimator(spec).ok());

  spec = EstimatorSpec{};
  spec.tag = "haar-synopsis";
  spec.grid_log2 = 30;
  EXPECT_FALSE(MakeEstimator(spec).ok());

  spec = EstimatorSpec{};
  spec.tag = "wavelet-cv";
  spec.filter = "not-a-filter";
  EXPECT_FALSE(MakeEstimator(spec).ok());

  spec = EstimatorSpec{};
  spec.tag = "sharded";
  spec.sharded_inner_tag = "sharded";
  EXPECT_FALSE(MakeEstimator(spec).ok());

  // Every non-sharded builtin is mergeable (the reservoir via its weighted
  // union), so any of them is a valid sharded prototype.
  spec = EstimatorSpec{};
  spec.tag = "sharded";
  spec.sharded_inner_tag = "reservoir";
  EXPECT_TRUE(MakeEstimator(spec).ok());

  // Dimensionality is validated, not inferred: a 2-D tag refuses the default
  // dims = 1, a 1-D tag refuses dims = 2, and the axis-1 domain of a 2-D tag
  // must be a real interval.
  spec = EstimatorSpec{};
  spec.tag = "grid2d";
  EXPECT_FALSE(MakeEstimator(spec).ok());  // dims left at 1
  spec.dims = 2;
  EXPECT_TRUE(MakeEstimator(spec).ok());
  spec.grid_log2 = 11;
  EXPECT_FALSE(MakeEstimator(spec).ok());
  spec.grid_log2 = 6;
  spec.domain2_lo = 1.0;
  spec.domain2_hi = 0.0;
  EXPECT_FALSE(MakeEstimator(spec).ok());

  spec = EstimatorSpec{};
  spec.tag = "equi-width";
  spec.dims = 2;
  EXPECT_FALSE(MakeEstimator(spec).ok());

  // A sharded 2-D prototype needs block_size aligned to whole observations.
  spec = EstimatorSpec{};
  spec.tag = "sharded";
  spec.sharded_inner_tag = "grid2d";
  spec.dims = 2;
  spec.block_size = 63;
  EXPECT_FALSE(MakeEstimator(spec).ok());
  spec.block_size = 64;
  EXPECT_TRUE(MakeEstimator(spec).ok());
}

TEST(QueryTaxonomyTest, SpecDomainWhoseWidthOverflowsIsRejected) {
  // Finite ends, infinite width: every value would map through
  // (x − lo) / (hi − lo) = 0. Every tag that declares a domain, alone and
  // under sharded, refuses it; grid2d refuses it on either axis.
  const auto expect_rejected = [](EstimatorSpec spec, const std::string& what) {
    Result<std::unique_ptr<SelectivityEstimator>> est = MakeEstimator(spec);
    ASSERT_FALSE(est.ok()) << what;
    EXPECT_EQ(est.status().code(), StatusCode::kInvalidArgument) << what;
  };
  size_t domain_tags = 0;
  for (const std::string& tag : EstimatorRegistry::Global().Tags()) {
    if (tag == "sharded" || tag == "reservoir") continue;  // no domain of its own
    ++domain_tags;
    EstimatorSpec spec;
    spec.tag = tag;
    spec.dims = EstimatorRegistry::Global().NativeDims(tag);
    for (const bool sharded : {false, true}) {
      EstimatorSpec outer = spec;
      if (sharded) {
        outer.tag = "sharded";
        outer.sharded_inner_tag = tag;
      }
      const std::string what = (sharded ? "sharded over " : "") + tag;
      EXPECT_TRUE(MakeEstimator(outer).ok()) << what;  // the default domain builds
      EstimatorSpec wide = outer;
      wide.domain_lo = -1e308;
      wide.domain_hi = 1e308;
      expect_rejected(wide, what + " on axis 0");
      if (spec.dims == 2) {
        wide = outer;
        wide.domain2_lo = -1e308;
        wide.domain2_hi = 1e308;
        expect_rejected(wide, what + " on axis 1");
      }
    }
  }
  EXPECT_GE(domain_tags, 6u);
}

TEST(QueryTaxonomyTest, EveryKindLowersOntoTheRangePrimitive) {
  // The documented lowering, asserted bitwise against the range query for
  // every estimator — including the ones with cheaper per-kind override
  // paths (prefix sums, windowed kernel CDF, batched signed-CDF).
  for (auto& est : MakeIngestedEstimators(1201, 4000)) {
    stats::Rng rng(7);
    for (int rep = 0; rep < 40; ++rep) {
      const double x = rng.Uniform(-0.1, 1.1);
      const double below = est->Answer(Query::Range(-kInf, x));
      EXPECT_EQ(est->Answer(Query::Less(x)), below) << est->name() << " x=" << x;
      EXPECT_EQ(est->Answer(Query::Cdf(x)), below) << est->name() << " x=" << x;
      EXPECT_EQ(est->Answer(Query::Greater(x)), est->Answer(Query::Range(x, kInf)))
          << est->name() << " x=" << x;
      const double half = 0.5 * est->EqualityWidth();
      EXPECT_EQ(est->Answer(Query::Point(x)),
                est->Answer(Query::Range(x - half, x + half)))
          << est->name() << " x=" << x;
    }
  }
}

TEST(QueryTaxonomyTest, NanParametersAnswerZeroForEveryKind) {
  for (auto& est : MakeIngestedEstimators(1301, 1000)) {
    EXPECT_EQ(est->Answer(Query::Range(kNan, 0.5)), 0.0) << est->name();
    EXPECT_EQ(est->Answer(Query::Range(0.2, kNan)), 0.0) << est->name();
    EXPECT_EQ(est->Answer(Query::Range(kNan, kNan)), 0.0) << est->name();
    EXPECT_EQ(est->Answer(Query::Point(kNan)), 0.0) << est->name();
    EXPECT_EQ(est->Answer(Query::Less(kNan)), 0.0) << est->name();
    EXPECT_EQ(est->Answer(Query::Greater(kNan)), 0.0) << est->name();
    EXPECT_EQ(est->Answer(Query::Cdf(kNan)), 0.0) << est->name();
    EXPECT_EQ(est->Answer(Query::Quantile(kNan)), 0.0) << est->name();
  }
}

TEST(QueryTaxonomyTest, InvertedRangesAndOutOfRangeQuantilesNormalize) {
  // Range(a, b) with a > b denotes the same predicate as [b, a]: the swap
  // lives in the non-virtual Answer(), so every implementation answers both
  // orders identically, out-of-domain endpoints included.
  for (auto& est : MakeIngestedEstimators(1401, 2000)) {
    for (const auto& [lo, hi] : std::vector<std::pair<double, double>>{
             {0.2, 0.8}, {0.2, 0.7}, {0.0, 1.0}, {0.45, 0.55}, {-0.5, 1.5}}) {
      const double inverted = est->Answer(Query::Range(hi, lo));
      EXPECT_EQ(inverted, est->Answer(Query::Range(lo, hi)))
          << est->name() << " [" << hi << ", " << lo << "]";
      EXPECT_GE(inverted, 0.0) << est->name();
    }
    EXPECT_EQ(est->Answer(Query::Quantile(-0.5)),
              est->Answer(Query::Quantile(0.0)))
        << est->name();
    EXPECT_EQ(est->Answer(Query::Quantile(2.0)),
              est->Answer(Query::Quantile(1.0)))
        << est->name();
  }
}

TEST(QueryTaxonomyTest, MultiDimKindsNormalizeLikeTheOneDimensionalOnes) {
  // The interface-level normalization of the new kinds, pinned for EVERY
  // registered estimator (1-D estimators answer rect/conditional 0.0, but
  // must normalize — not crash or UB — on hostile parameters all the same):
  // any NaN endpoint answers 0.0, inverted bounds swap per axis
  // independently, and ±inf endpoints are legal limits.
  for (auto& est : MakeIngestedEstimators(2101, 4000)) {
    // NaN in any of the four rect endpoints answers 0.0.
    EXPECT_EQ(est->Answer(Query::Rect(kNan, 0.8, 0.2, 0.8)), 0.0) << est->name();
    EXPECT_EQ(est->Answer(Query::Rect(0.2, kNan, 0.2, 0.8)), 0.0) << est->name();
    EXPECT_EQ(est->Answer(Query::Rect(0.2, 0.8, kNan, 0.8)), 0.0) << est->name();
    EXPECT_EQ(est->Answer(Query::Rect(0.2, 0.8, 0.2, kNan)), 0.0) << est->name();
    EXPECT_EQ(est->Answer(Query::Marginal(0, kNan, 0.8)), 0.0) << est->name();
    EXPECT_EQ(est->Answer(Query::Marginal(1, 0.2, kNan)), 0.0) << est->name();
    EXPECT_EQ(est->Answer(Query::Conditional(kNan, 0.8, 0.2, 0.8)), 0.0)
        << est->name();
    EXPECT_EQ(est->Answer(Query::Conditional(0.2, 0.8, 0.2, kNan)), 0.0)
        << est->name();
    // Inverted bounds swap per axis, each axis independently.
    EXPECT_EQ(est->Answer(Query::Rect(0.8, 0.2, 0.3, 0.7)),
              est->Answer(Query::Rect(0.2, 0.8, 0.3, 0.7)))
        << est->name();
    EXPECT_EQ(est->Answer(Query::Rect(0.2, 0.8, 0.7, 0.3)),
              est->Answer(Query::Rect(0.2, 0.8, 0.3, 0.7)))
        << est->name();
    EXPECT_EQ(est->Answer(Query::Rect(0.8, 0.2, 0.7, 0.3)),
              est->Answer(Query::Rect(0.2, 0.8, 0.3, 0.7)))
        << est->name();
    EXPECT_EQ(est->Answer(Query::Marginal(1, 0.7, 0.3)),
              est->Answer(Query::Marginal(1, 0.3, 0.7)))
        << est->name();
    EXPECT_EQ(est->Answer(Query::Conditional(0.8, 0.2, 0.7, 0.3)),
              est->Answer(Query::Conditional(0.2, 0.8, 0.3, 0.7)))
        << est->name();
    // ±inf endpoints are legal limits; the all-space rect is the total mass.
    const double total = est->Answer(Query::Rect(-kInf, kInf, -kInf, kInf));
    if (est->dims() >= 2) {
      EXPECT_GE(total, 0.9) << est->name();
      EXPECT_LE(total, 1.0 + 1e-9) << est->name();
    } else {
      EXPECT_EQ(total, 0.0) << est->name();
    }
  }
}

TEST(QueryTaxonomyTest, MultiDimKindsLowerAsDocumented) {
  for (auto& est : MakeIngestedEstimators(2201, 4000)) {
    // Axis-0 marginal IS the range primitive — for every estimator, 1-D
    // included; a marginal on an axis the estimator does not model is 0.0.
    stats::Rng rng(11);
    for (int rep = 0; rep < 20; ++rep) {
      double a = rng.Uniform(-0.1, 1.1);
      double b = rng.Uniform(-0.1, 1.1);
      if (b < a) std::swap(a, b);
      EXPECT_EQ(est->Answer(Query::Marginal(0, a, b)),
                est->Answer(Query::Range(a, b)))
          << est->name();
    }
    EXPECT_EQ(est->Answer(Query::Marginal(7, 0.2, 0.8)), 0.0) << est->name();
    if (est->dims() < 2) {
      EXPECT_EQ(est->Answer(Query::Rect(0.2, 0.8, 0.2, 0.8)), 0.0)
          << est->name();
      EXPECT_EQ(est->Answer(Query::Conditional(0.2, 0.8, 0.2, 0.8)), 0.0)
          << est->name();
      continue;
    }
    // 2-D: a rect unbounded on axis 1 is the axis-0 marginal, a rect
    // unbounded on axis 0 is the axis-1 marginal, and the conditional is the
    // documented clamped ratio.
    EXPECT_EQ(est->Answer(Query::Rect(0.2, 0.8, -kInf, kInf)),
              est->Answer(Query::Marginal(0, 0.2, 0.8)))
        << est->name();
    EXPECT_EQ(est->Answer(Query::Rect(-kInf, kInf, 0.2, 0.8)),
              est->Answer(Query::Marginal(1, 0.2, 0.8)))
        << est->name();
    const double joint = est->Answer(Query::Rect(0.2, 0.8, 0.3, 0.7));
    const double given = est->Answer(Query::Marginal(1, 0.3, 0.7));
    const double conditional = est->Answer(Query::Conditional(0.2, 0.8, 0.3, 0.7));
    if (given > 0.0) {
      EXPECT_EQ(conditional, std::clamp(joint / given, 0.0, 1.0)) << est->name();
    } else {
      EXPECT_EQ(conditional, 0.0) << est->name();
    }
    // Conditioning on an empty axis-1 slice answers 0.0, not a 0/0 NaN.
    EXPECT_EQ(est->Answer(Query::Conditional(0.2, 0.8, 9.0, 9.5)), 0.0)
        << est->name();
  }
}

TEST(QueryTaxonomyTest, InfiniteEndpointsAreLegalRangeLimits) {
  for (auto& est : MakeIngestedEstimators(1501, 2000)) {
    const double total = est->Answer(Query::Range(-kInf, kInf));
    EXPECT_GE(total, 0.9) << est->name();
    EXPECT_LE(total, 1.0 + 1e-9) << est->name();
    EXPECT_EQ(est->Answer(Query::Less(kInf)), total) << est->name();
  }
}

TEST(QueryTaxonomyTest, QuantilesLandInsideTheDomainAndMatchUniformTruth) {
  for (auto& est : MakeIngestedEstimators(1601, 6000)) {
    const Interval domain = est->Domain();
    for (double p : {0.0, 0.1, 0.5, 0.9, 1.0}) {
      const double q = est->Answer(Query::Quantile(p));
      EXPECT_GE(q, domain.lo) << est->name() << " p=" << p;
      EXPECT_LE(q, domain.hi) << est->name() << " p=" << p;
    }
    // Uniform[0, 1] data: the p-quantile is p up to estimator bias.
    for (double p : {0.2, 0.5, 0.8}) {
      EXPECT_NEAR(est->Answer(Query::Quantile(p)), p, 0.08)
          << est->name() << " p=" << p;
    }
  }
}

TEST(QueryTaxonomyTest, CdfQuantileRoundTrip) {
  // Answer(Cdf(Answer(Quantile(p)))) ≈ p: the tolerance covers estimator
  // granularity (reservoir jumps of 1/sample, histogram bucket fractions)
  // and the signed wavelet estimate's local wiggle.
  for (auto& est : MakeIngestedEstimators(1701, 6000)) {
    for (double p : {0.1, 0.25, 0.5, 0.75, 0.9}) {
      const double quantile = est->Answer(Query::Quantile(p));
      const double round_trip = est->Answer(Query::Cdf(quantile));
      EXPECT_NEAR(round_trip, p, 0.05) << est->name() << " p=" << p;
    }
  }
}

TEST(QueryTaxonomyTest, EmptyEstimatorsAnswerZeroForEveryKind) {
  for (auto& est : MakeAllEstimators()) {
    const std::vector<Query> queries{
        Query::Range(0.2, 0.8), Query::Point(0.5), Query::Less(0.5),
        Query::Greater(0.5),    Query::Cdf(0.5),   Query::Quantile(0.5)};
    std::vector<double> answers(queries.size());
    est->Answer(queries, answers);
    for (size_t i = 0; i < answers.size(); ++i) {
      EXPECT_EQ(answers[i], 0.0) << est->name() << " kind " << i;
    }
  }
}

TEST(QueryTaxonomyTest, EqualityWidthReflectsEstimatorResolution) {
  for (auto& est : MakeAllEstimators()) {
    EXPECT_GE(est->EqualityWidth(), 0.0) << est->name();
    EXPECT_LT(est->EqualityWidth(), 1.0) << est->name();
  }
  // Spot-check the documented widths: one bucket / one grid cell / one
  // finest-level cell.
  EstimatorSpec spec;
  spec.tag = "equi-width";
  spec.buckets = 32;
  EXPECT_DOUBLE_EQ((*MakeEstimator(spec))->EqualityWidth(), 1.0 / 32.0);
  spec = EstimatorSpec{};
  spec.tag = "haar-synopsis";
  spec.grid_log2 = 8;
  EXPECT_DOUBLE_EQ((*MakeEstimator(spec))->EqualityWidth(), 1.0 / 256.0);
  spec = EstimatorSpec{};
  spec.tag = "wavelet-cv";
  spec.j_max = 8;
  spec.table_levels = 6;
  EXPECT_DOUBLE_EQ((*MakeEstimator(spec))->EqualityWidth(), 1.0 / 256.0);
}

TEST(QueryTaxonomyTest, SpecBuiltEstimatorsSnapshotRoundTrip) {
  // The spec ⇄ snapshot-tag relationship end to end: build from a spec,
  // ingest, snapshot, restore through the registry (which rebuilds the shell
  // from the SAME factory), and require bitwise-identical mixed-kind answers.
  stats::Rng rng(1801);
  std::vector<double> values(3000);
  for (double& v : values) v = rng.UniformDouble();
  const std::vector<Query> queries = MixedQueryWorkload(rng, 64, 0.0, 1.0);
  for (auto& est : MakeAllEstimators()) {
    est->InsertBatch(values);
    io::VectorSink sink;
    ASSERT_TRUE(SaveEstimatorSnapshot(*est, sink).ok()) << est->name();
    io::SpanSource source(sink.bytes());
    Result<std::unique_ptr<SelectivityEstimator>> restored =
        LoadEstimatorSnapshot(source);
    ASSERT_TRUE(restored.ok()) << est->name();
    std::vector<double> want(queries.size()), got(queries.size());
    est->Answer(queries, want);
    (*restored)->Answer(queries, got);
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << est->name() << " query " << i;
    }
  }
}

TEST(QueryTaxonomyTest, ServingCacheNeverChangesAnAnswerForAnyTag) {
  // Property over the whole registry: wrapping any spec-built estimator in
  // the serving engine with the result cache enabled answers every mixed-kind
  // workload — dirty queries included — bitwise identically to the
  // cache-disabled service. Two passes per service so the second pass is
  // served from cache, which is exactly where a key-normalization or
  // epoch-tag bug would show up.
  stats::Rng data_rng(1901);
  std::vector<double> values(3000);
  for (double& v : values) v = data_rng.UniformDouble();
  stats::Rng query_rng(1902);
  std::vector<Query> queries = MixedQueryWorkload(query_rng, 96, 0.0, 1.0);
  queries.push_back(Query::Range(0.8, 0.2));  // inverted
  queries.push_back(Query::Range(kNan, 0.5));
  queries.push_back(Query::Point(kNan));
  queries.push_back(Query::Quantile(-0.5));
  queries.push_back(Query::Quantile(2.0));
  queries.push_back(Query::Less(-kInf));
  queries.push_back(Query::Greater(kInf));
  // Multi-dimensional kinds — clean, inverted, NaN, unbounded — so the cache
  // key provably covers the c/d/axis fields on every tag (1-D tags answer
  // them 0.0, which must still round-trip the cache unchanged).
  queries.push_back(Query::Rect(0.2, 0.8, 0.3, 0.7));
  queries.push_back(Query::Rect(0.8, 0.2, 0.7, 0.3));
  queries.push_back(Query::Rect(0.2, 0.8, kNan, 0.7));
  queries.push_back(Query::Rect(-kInf, kInf, -kInf, kInf));
  queries.push_back(Query::Marginal(0, 0.2, 0.8));
  queries.push_back(Query::Marginal(1, 0.2, 0.8));
  queries.push_back(Query::Marginal(7, 0.2, 0.8));
  queries.push_back(Query::Conditional(0.2, 0.8, 0.3, 0.7));
  queries.push_back(Query::Conditional(0.2, 0.8, 9.0, 9.5));

  for (const std::string& tag : EstimatorRegistry::Global().Tags()) {
    EstimatorSpec spec;
    spec.tag = tag;
    spec.dims = EstimatorRegistry::Global().NativeDims(tag);
    spec.buckets = 64;
    spec.grid_log2 = 8;
    spec.budget = 48;
    spec.j_max = 8;
    spec.refit_interval = 512;
    spec.capacity = 512;
    spec.shards = 3;
    spec.block_size = 64;
    spec.sharded_inner_tag = "equi-width";

    serving::ServiceOptions cached;
    cached.publish_interval = 0;
    cached.cache_shards = 4;
    cached.cache_slots_per_shard = 512;
    serving::ServiceOptions uncached = cached;
    uncached.cache_shards = 0;
    Result<std::unique_ptr<serving::EstimatorService>> with_cache =
        serving::EstimatorService::Create(spec, cached);
    Result<std::unique_ptr<serving::EstimatorService>> without_cache =
        serving::EstimatorService::Create(spec, uncached);
    ASSERT_TRUE(with_cache.ok()) << tag;
    ASSERT_TRUE(without_cache.ok()) << tag;
    (*with_cache)->InsertBatch(values);
    (*without_cache)->InsertBatch(values);
    (*with_cache)->Publish();
    (*without_cache)->Publish();

    std::vector<double> want(queries.size());
    (*without_cache)->Answer(queries, want);
    for (int pass = 0; pass < 2; ++pass) {
      std::vector<double> got(queries.size(), -1.0);
      (*with_cache)->Answer(queries, got);
      for (size_t i = 0; i < queries.size(); ++i) {
        // Bitwise comparison (EXPECT_EQ on doubles) on purpose: the cache
        // must be invisible, not merely close.
        EXPECT_EQ(got[i], want[i]) << tag << " query " << i << " pass " << pass;
      }
    }
    EXPECT_GT((*with_cache)->cache_stats().hits, 0u) << tag;
  }
}

}  // namespace
}  // namespace selectivity
}  // namespace wde
