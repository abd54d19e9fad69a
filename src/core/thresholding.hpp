#ifndef WDE_CORE_THRESHOLDING_HPP_
#define WDE_CORE_THRESHOLDING_HPP_

#include <limits>
#include <vector>

#include "util/result.hpp"

namespace wde {
namespace core {

/// The two threshold functions of Donoho et al. used throughout the paper.
enum class ThresholdKind {
  kHard,  // γ_λ(β) = β · 1{|β| > λ}
  kSoft,  // γ_λ(β) = sign(β) (|β| − λ)_+
};

const char* ThresholdKindName(ThresholdKind kind);

/// Applies γ_λ to a coefficient. λ = +inf kills the coefficient.
double ApplyThreshold(ThresholdKind kind, double beta, double lambda);

/// Level-wise threshold schedule for detail levels j0 .. j0+size-1. A value
/// of +infinity disables a level entirely.
struct ThresholdSchedule {
  int j0 = 0;
  std::vector<double> lambda;  // lambda[j - j0]

  int j_max() const { return j0 + static_cast<int>(lambda.size()) - 1; }
  double LevelLambda(int j) const;
  static constexpr double kKillLevel = std::numeric_limits<double>::infinity();
};

/// Theorem 3.1's theoretical schedule λ_j = K √(j/n) on levels [j0, j1].
/// The constant K depends on the (typically unknown) weak-dependence
/// constants, which is exactly why the paper introduces cross-validation; the
/// rule is exposed for the ablation benches.
ThresholdSchedule TheoreticalSchedule(double k_constant, int j0, int j1, size_t n);

}  // namespace core
}  // namespace wde

#endif  // WDE_CORE_THRESHOLDING_HPP_
