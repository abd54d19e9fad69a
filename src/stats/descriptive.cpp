#include "stats/descriptive.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace wde {
namespace stats {

double Mean(std::span<const double> xs) {
  WDE_CHECK(!xs.empty());
  double acc = 0.0;
  for (double x : xs) acc += x;
  return acc / static_cast<double>(xs.size());
}

double Variance(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = Mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size() - 1);
}

double StdDev(std::span<const double> xs) { return std::sqrt(Variance(xs)); }

double QuantileSorted(std::span<const double> sorted, double p,
                      QuantileMethod method) {
  WDE_CHECK(!sorted.empty());
  WDE_CHECK(p >= 0.0 && p <= 1.0, "quantile level must be in [0,1]");
  const double n = static_cast<double>(sorted.size());
  double h;  // 1-based fractional order statistic index
  switch (method) {
    case QuantileMethod::kType7:
      h = p * (n - 1.0) + 1.0;
      break;
    case QuantileMethod::kMatlab:
      h = p * n + 0.5;
      break;
    default:
      h = p * (n - 1.0) + 1.0;
  }
  h = std::clamp(h, 1.0, n);
  const auto lo = static_cast<size_t>(std::floor(h)) - 1;
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = h - std::floor(h);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double Quantile(std::span<const double> xs, double p, QuantileMethod method) {
  WDE_CHECK(!xs.empty());
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  return QuantileSorted(sorted, p, method);
}

double Iqr(std::span<const double> xs, QuantileMethod method) {
  return Quantile(xs, 0.75, method) - Quantile(xs, 0.25, method);
}

double IqrSorted(std::span<const double> sorted, QuantileMethod method) {
  return QuantileSorted(sorted, 0.75, method) - QuantileSorted(sorted, 0.25, method);
}

}  // namespace stats
}  // namespace wde
