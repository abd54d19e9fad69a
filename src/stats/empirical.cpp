#include "stats/empirical.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace wde {
namespace stats {

double KolmogorovSmirnovDistance(std::span<const double> sample,
                                 const std::function<double(double)>& cdf) {
  WDE_CHECK(!sample.empty());
  std::vector<double> sorted(sample.begin(), sample.end());
  std::sort(sorted.begin(), sorted.end());
  const double n = static_cast<double>(sorted.size());
  double d = 0.0;
  for (size_t i = 0; i < sorted.size(); ++i) {
    const double f = cdf(sorted[i]);
    const double lo = static_cast<double>(i) / n;
    const double hi = static_cast<double>(i + 1) / n;
    d = std::max(d, std::max(std::fabs(f - lo), std::fabs(hi - f)));
  }
  return d;
}

}  // namespace stats
}  // namespace wde
