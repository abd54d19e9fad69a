#include "stats/loss.hpp"

#include <cmath>
#include <vector>

#include "numerics/integration.hpp"
#include "util/check.hpp"

namespace wde {
namespace stats {

double IntegratedSquaredError(std::span<const double> estimate,
                              std::span<const double> truth, double dx) {
  return LpErrorPow(estimate, truth, dx, 2.0);
}

double LpErrorPow(std::span<const double> estimate, std::span<const double> truth,
                  double dx, double p) {
  WDE_CHECK_EQ(estimate.size(), truth.size(), "grids must match");
  WDE_CHECK_GE(p, 1.0);
  std::vector<double> diff(estimate.size());
  for (size_t i = 0; i < estimate.size(); ++i) {
    diff[i] = std::pow(std::fabs(estimate[i] - truth[i]), p);
  }
  return numerics::TrapezoidIntegral(diff, dx);
}

}  // namespace stats
}  // namespace wde
