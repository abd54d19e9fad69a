#include "core/cross_validation.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>

#include "util/check.hpp"

namespace wde {
namespace core {
namespace {

/// The canonical coefficient ranking of one level: indices i = k − k_lo
/// ordered by (|S1[i]| desc, i asc) — a strict total order on the raw
/// running sums. |S1|/n is monotone in |S1| for fixed n, so this order
/// sweeps the magnitudes |β̂| non-increasingly. The k-ascending tie-break
/// makes the ranking — and therefore the CV optimum at tied magnitudes — a
/// deterministic function of the sums alone.
struct CanonicalLess {
  std::span<const double> s1;
  bool operator()(int32_t a, int32_t b) const {
    const double ma = std::fabs(s1[static_cast<size_t>(a)]);
    const double mb = std::fabs(s1[static_cast<size_t>(b)]);
    if (ma != mb) return ma > mb;
    return a < b;
  }
};

std::vector<int32_t> CanonicalOrder(std::span<const double> s1) {
  std::vector<int32_t> order(s1.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), CanonicalLess{s1});
  return order;
}

LevelCvResult MinimizeLevel(const EmpiricalCoefficients& coefficients, int j,
                            ThresholdKind kind, double lambda_floor) {
  const CoefficientLevel& level = coefficients.detail_level(j);
  const double n = static_cast<double>(coefficients.count());
  const std::vector<int32_t> order = CanonicalOrder(level.s1);

  // Candidate m = number of kept coefficients (the m largest magnitudes).
  // m = 0 corresponds to λ = +inf with criterion value 0. A stabilization
  // floor truncates the candidate set: only thresholds λ = |β̂|_(m) at or
  // above the floor are eligible. CV terms are evaluated lazily in ranked
  // order, so the scan stops paying for them at the first break.
  double best_value = 0.0;
  int best_m = 0;
  double lambda_best = std::numeric_limits<double>::infinity();
  double prefix = 0.0;
  for (size_t m = 1; m <= order.size(); ++m) {
    const auto i = static_cast<size_t>(order[m - 1]);
    const double lambda = std::fabs(level.s1[i] / n);
    if (lambda == 0.0) break;  // zero coefficients cannot be "kept" by |β̂| ≥ λ > 0
    if (lambda < lambda_floor) break;
    prefix += coefficients.CrossValidationTerm(
        j, level.k_lo + static_cast<int>(i));
    double value = prefix;
    if (kind == ThresholdKind::kSoft) {
      value += static_cast<double>(m) * lambda * lambda;
    }
    if (value < best_value) {
      best_value = value;
      best_m = static_cast<int>(m);
      lambda_best = lambda;
    }
  }

  LevelCvResult out;
  out.j = j;
  out.total = level.size();
  out.kept = best_m;
  out.cv_value = best_value;
  out.lambda_hat = lambda_best;
  out.max_magnitude =
      order.empty()
          ? 0.0
          : std::fabs(level.s1[static_cast<size_t>(order.front())] / n);
  return out;
}

}  // namespace

double LevelCvResult::EffectiveLambda() const {
  return std::isfinite(lambda_hat) ? lambda_hat : max_magnitude;
}

const LevelCvResult& CrossValidationResult::Level(int j) const {
  WDE_CHECK(j >= j0 && j <= j_star, "level outside the CV range");
  return levels[static_cast<size_t>(j - j0)];
}

ThresholdSchedule CrossValidationResult::Schedule() const {
  ThresholdSchedule schedule;
  schedule.j0 = j0;
  schedule.lambda.reserve(levels.size());
  for (const LevelCvResult& level : levels) schedule.lambda.push_back(level.lambda_hat);
  return schedule;
}

namespace {

/// Level-wise universal floor √(2 ln K_j) · σ̂_j. Coefficient noise in
/// density estimation is heteroscedastic — Var(β̂_{j,k}) ≈ ∫ψ²_{j,k} f / n
/// varies with the local density level — so σ̂_j is the *largest*
/// per-coefficient standard error √(S2_k)/n on the level: the floor has to
/// hold in the highest-variance region, which is where spurious hard-kept
/// coefficients concentrate. This is the data-driven analogue of the paper's
/// worst-case constant K in λ_j = K √(j/n) (√(2 ln K_j) grows like √j).
double UniversalFloor(const EmpiricalCoefficients& coefficients, int j) {
  const CoefficientLevel& level = coefficients.detail_level(j);
  const double n = static_cast<double>(coefficients.count());
  double max_s2 = 0.0;
  for (double s2 : level.s2) max_s2 = std::max(max_s2, s2);
  const double sigma = std::sqrt(max_s2) / n;
  const double k_j = std::max(2.0, static_cast<double>(level.size()));
  return sigma * std::sqrt(2.0 * std::log(k_j));
}

}  // namespace

CrossValidationResult CrossValidate(const EmpiricalCoefficients& coefficients,
                                    ThresholdKind kind) {
  return CrossValidate(coefficients, kind,
                       kind == ThresholdKind::kHard
                           ? CvStabilization::kUniversalFloor
                           : CvStabilization::kNone);
}

CrossValidationResult CrossValidate(const EmpiricalCoefficients& coefficients,
                                    ThresholdKind kind,
                                    CvStabilization stabilization) {
  WDE_CHECK_GE(coefficients.count(), 2u, "CV needs at least two observations");
  CrossValidationResult out;
  out.kind = kind;
  out.j0 = coefficients.j0();
  out.j_star = coefficients.j_max();
  for (int j = out.j0; j <= out.j_star; ++j) {
    const double floor = stabilization == CvStabilization::kUniversalFloor
                             ? UniversalFloor(coefficients, j)
                             : 0.0;
    out.levels.push_back(MinimizeLevel(coefficients, j, kind, floor));
  }
  // ĵ1: smallest level such that every level from it up to j* selects the
  // empty model (CV_j(λ̂_j) = 0). If even j* keeps coefficients, ĵ1 = j*.
  int j1 = out.j_star;
  for (int j = out.j_star; j >= out.j0; --j) {
    if (out.Level(j).kept > 0) break;
    j1 = j;
  }
  out.j1_hat = j1;
  return out;
}

}  // namespace core
}  // namespace wde
