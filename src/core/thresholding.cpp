#include "core/thresholding.hpp"

#include <cmath>

#include "util/check.hpp"

namespace wde {
namespace core {

const char* ThresholdKindName(ThresholdKind kind) {
  switch (kind) {
    case ThresholdKind::kHard:
      return "hard";
    case ThresholdKind::kSoft:
      return "soft";
  }
  return "unknown";
}

double ApplyThreshold(ThresholdKind kind, double beta, double lambda) {
  WDE_DCHECK(lambda >= 0.0);
  const double magnitude = std::fabs(beta);
  switch (kind) {
    case ThresholdKind::kHard:
      return magnitude > lambda ? beta : 0.0;
    case ThresholdKind::kSoft: {
      const double shrunk = magnitude - lambda;
      if (shrunk <= 0.0) return 0.0;
      return beta >= 0.0 ? shrunk : -shrunk;
    }
  }
  return 0.0;
}

double ThresholdSchedule::LevelLambda(int j) const {
  if (j < j0 || j > j_max()) return kKillLevel;
  return lambda[static_cast<size_t>(j - j0)];
}

ThresholdSchedule TheoreticalSchedule(double k_constant, int j0, int j1, size_t n) {
  WDE_CHECK_GE(j1, j0);
  WDE_CHECK_GT(n, 0u);
  WDE_CHECK_GT(k_constant, 0.0);
  ThresholdSchedule schedule;
  schedule.j0 = j0;
  schedule.lambda.resize(static_cast<size_t>(j1 - j0 + 1));
  for (int j = j0; j <= j1; ++j) {
    schedule.lambda[static_cast<size_t>(j - j0)] =
        k_constant * std::sqrt(static_cast<double>(j) / static_cast<double>(n));
  }
  return schedule;
}

}  // namespace core
}  // namespace wde
