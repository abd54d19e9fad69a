#include "selectivity/query_workload.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <utility>

#include "util/check.hpp"

namespace wde {
namespace selectivity {

namespace {

/// Two uniform draws over [lo, hi] in draw order, sorted: one interval.
std::pair<double, double> SortedUniformPair(stats::Rng& rng, double lo, double hi) {
  double a = rng.Uniform(lo, hi);
  double b = rng.Uniform(lo, hi);
  if (b < a) std::swap(a, b);
  return {a, b};
}

}  // namespace

std::vector<Query> UniformRangeWorkload(stats::Rng& rng, size_t count,
                                        double domain_lo, double domain_hi) {
  WDE_CHECK_LT(domain_lo, domain_hi);
  std::vector<Query> out(count);
  for (Query& q : out) {
    const auto [a, b] = SortedUniformPair(rng, domain_lo, domain_hi);
    q = Query::Range(a, b);
  }
  return out;
}

std::vector<Query> CenteredRangeWorkload(stats::Rng& rng, size_t count,
                                         double domain_lo, double domain_hi,
                                         double min_width, double max_width) {
  WDE_CHECK_LT(domain_lo, domain_hi);
  WDE_CHECK(min_width > 0.0 && max_width >= min_width);
  std::vector<Query> out(count);
  for (Query& q : out) {
    const double width = rng.Uniform(min_width, max_width);
    const double center = rng.Uniform(domain_lo, domain_hi);
    q = Query::Range(std::max(domain_lo, center - width / 2.0),
                     std::min(domain_hi, center + width / 2.0));
  }
  return out;
}

std::vector<Query> MixedQueryWorkload(stats::Rng& rng, size_t count,
                                      double domain_lo, double domain_hi,
                                      const QueryKindMix& mix) {
  WDE_CHECK_LT(domain_lo, domain_hi);
  const double weights[] = {mix.range,    mix.point, mix.less,
                            mix.greater,  mix.cdf,   mix.quantile,
                            mix.rect,     mix.marginal,
                            mix.conditional};
  double total = 0.0;
  for (double w : weights) {
    WDE_CHECK(w >= 0.0, "kind weights must be nonnegative");
    total += w;
  }
  WDE_CHECK(total > 0.0, "at least one kind weight must be positive");
  std::vector<Query> out(count);
  for (Query& q : out) {
    double draw = rng.UniformDouble() * total;
    size_t kind = 0;
    while (kind + 1 < std::size(weights) && draw >= weights[kind]) {
      draw -= weights[kind];
      ++kind;
    }
    switch (static_cast<QueryKind>(kind)) {
      case QueryKind::kRange: {
        const auto [a, b] = SortedUniformPair(rng, domain_lo, domain_hi);
        q = Query::Range(a, b);
        break;
      }
      case QueryKind::kPoint:
        q = Query::Point(rng.Uniform(domain_lo, domain_hi));
        break;
      case QueryKind::kLess:
        q = Query::Less(rng.Uniform(domain_lo, domain_hi));
        break;
      case QueryKind::kGreater:
        q = Query::Greater(rng.Uniform(domain_lo, domain_hi));
        break;
      case QueryKind::kCdf:
        q = Query::Cdf(rng.Uniform(domain_lo, domain_hi));
        break;
      case QueryKind::kQuantile:
        q = Query::Quantile(rng.UniformDouble());
        break;
      case QueryKind::kRect: {
        const auto [a, b] = SortedUniformPair(rng, domain_lo, domain_hi);
        const auto [c, d] = SortedUniformPair(rng, domain_lo, domain_hi);
        q = Query::Rect(a, b, c, d);
        break;
      }
      case QueryKind::kMarginal: {
        const uint8_t axis = rng.UniformDouble() < 0.5 ? 0 : 1;
        const auto [a, b] = SortedUniformPair(rng, domain_lo, domain_hi);
        q = Query::Marginal(axis, a, b);
        break;
      }
      case QueryKind::kConditional: {
        const auto [a, b] = SortedUniformPair(rng, domain_lo, domain_hi);
        const auto [c, d] = SortedUniformPair(rng, domain_lo, domain_hi);
        q = Query::Conditional(a, b, c, d);
        break;
      }
    }
  }
  return out;
}

SelectivityAccuracy EvaluateAccuracy(
    const SelectivityEstimator& estimator, std::span<const Query> queries,
    const std::function<double(const Query&)>& truth, double qerror_floor) {
  SelectivityAccuracy acc;
  acc.queries = queries.size();
  if (queries.empty()) return acc;
  std::vector<double> estimates(queries.size());
  estimator.Answer(queries, estimates);
  double sq_sum = 0.0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const double est = estimates[i];
    const double ref = truth(queries[i]);
    const double abs_err = std::fabs(est - ref);
    acc.mean_abs_error += abs_err;
    sq_sum += abs_err * abs_err;
    const double lo = std::max(std::min(est, ref), qerror_floor);
    const double hi = std::max(std::max(est, ref), qerror_floor);
    const double qerr = hi / lo;
    acc.mean_qerror += qerr;
    acc.max_qerror = std::max(acc.max_qerror, qerr);
  }
  const double n = static_cast<double>(queries.size());
  acc.mean_abs_error /= n;
  acc.rmse = std::sqrt(sq_sum / n);
  acc.mean_qerror /= n;
  return acc;
}

}  // namespace selectivity
}  // namespace wde
