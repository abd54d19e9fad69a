#ifndef WDE_SELECTIVITY_QUERY_WORKLOAD_HPP_
#define WDE_SELECTIVITY_QUERY_WORKLOAD_HPP_

#include <functional>
#include <span>
#include <vector>

#include "selectivity/selectivity_estimator.hpp"
#include "stats/rng.hpp"

namespace wde {
namespace selectivity {

/// Generates `count` kRange queries with both endpoints uniform over the
/// domain (sorted per query).
std::vector<Query> UniformRangeWorkload(stats::Rng& rng, size_t count,
                                        double domain_lo, double domain_hi);

/// Generates `count` kRange queries with uniform centers and widths in
/// [min_width, max_width], clipped to the domain — the typical analytic
/// "short range scan" workload.
std::vector<Query> CenteredRangeWorkload(stats::Rng& rng, size_t count,
                                         double domain_lo, double domain_hi,
                                         double min_width, double max_width);

/// Relative frequencies of the query kinds in a mixed workload (normalized
/// internally; a zero weight drops the kind). The default mix resembles an
/// optimizer trace: mostly ranges with a steady tail of equality, one-sided,
/// CDF and quantile probes.
struct QueryKindMix {
  double range = 0.40;
  double point = 0.12;
  double less = 0.12;
  double greater = 0.12;
  double cdf = 0.12;
  double quantile = 0.12;
  /// Multi-dimensional kinds, off by default so 1-D workloads are unchanged.
  /// Rect/conditional intervals draw both axes uniform over the same domain
  /// (sorted per axis); marginal picks axis 0 or 1 with equal probability.
  double rect = 0.0;
  double marginal = 0.0;
  double conditional = 0.0;
};

/// Generates `count` mixed-kind queries over the domain: range endpoints
/// uniform (sorted per query), point/one-sided/CDF parameters uniform in the
/// domain, quantile levels uniform in [0, 1]. Kinds are drawn independently
/// from `mix`, so the workload interleaves kinds the way live optimizer
/// traffic does rather than batching by kind.
std::vector<Query> MixedQueryWorkload(stats::Rng& rng, size_t count,
                                      double domain_lo, double domain_hi,
                                      const QueryKindMix& mix = {});

/// Accuracy aggregates of an estimator against a ground-truth selectivity
/// oracle. The q-error is max(est, truth)/min(est, truth) with both floored
/// at `qerror_floor` (the DB-standard multiplicative error measure).
/// Scoring runs through the estimator's batch query path (Answer).
struct SelectivityAccuracy {
  double mean_abs_error = 0.0;
  double rmse = 0.0;
  double mean_qerror = 0.0;
  double max_qerror = 0.0;
  size_t queries = 0;
};

SelectivityAccuracy EvaluateAccuracy(
    const SelectivityEstimator& estimator, std::span<const Query> queries,
    const std::function<double(const Query&)>& truth,
    double qerror_floor = 1e-4);

}  // namespace selectivity
}  // namespace wde

#endif  // WDE_SELECTIVITY_QUERY_WORKLOAD_HPP_
