#ifndef WDE_CORE_CROSS_VALIDATION_HPP_
#define WDE_CORE_CROSS_VALIDATION_HPP_

#include <vector>

#include "core/coefficients.hpp"
#include "core/thresholding.hpp"

namespace wde {
namespace core {

/// Outcome of minimizing the level-j cross-validation criterion (paper §5.1):
///   HTCV: CV_j(λ) = Σ_k 1{|β̂_{j,k}| ≥ λ} [β̂² − (2/(n(n−1))) Σ_{i≠h} ψψ]
///   STCV: same + λ² inside the braces.
/// The criterion is piecewise constant (HT) / quadratic (ST) between
/// consecutive coefficient magnitudes, so the exact minimum over λ > 0 is
/// attained on the candidate set {|β̂_{j,k}|} ∪ {+∞}; we scan it via prefix
/// sums over the magnitude-sorted coefficients.
struct LevelCvResult {
  int j = 0;
  double lambda_hat = 0.0;  // +inf when the optimum keeps no coefficient
  double cv_value = 0.0;    // criterion value at the optimum
  int kept = 0;             // coefficients surviving λ̂_j
  int total = 0;            // coefficients at the level
  double max_magnitude = 0.0;  // largest |β̂_{j,k}| at the level

  /// λ̂_j when finite; otherwise the smallest threshold that kills the whole
  /// level (its largest coefficient magnitude). This is the finite quantity
  /// the paper's Figure 3 averages.
  double EffectiveLambda() const;
};

struct CrossValidationResult {
  ThresholdKind kind = ThresholdKind::kHard;
  int j0 = 0;
  int j_star = 0;  // top level scanned (= log2 n in the paper)
  int j1_hat = 0;  // smallest j with CV_j(λ̂_j) = 0 for all j in [ĵ1, j*]
  std::vector<LevelCvResult> levels;  // one entry per j in [j0, j_star]

  const LevelCvResult& Level(int j) const;

  /// Threshold schedule over [j0, j_star] induced by the per-level optima
  /// (levels with empty optima get an infinite threshold).
  ThresholdSchedule Schedule() const;
};

/// Stabilization of the level-wise minimization.
///
/// The literal HTCV criterion is degenerate at pure-noise levels: the
/// coefficients with the largest |β̂| are exactly those whose realized CV
/// term β̂² − 2û is negative (û being the unbiased β² estimate), so the hard
/// criterion keeps a positive fraction of top order-statistic noise at every
/// level and the estimator's risk explodes — the paper's own Table 1/2
/// (HTCV ≈ STCV, mean ĵ1 ≈ 5) cannot arise from the literal formula. STCV
/// does not suffer from this: its +λ² term makes the empty model optimal on
/// noise levels.
///
/// `kUniversalFloor` therefore restricts the candidate thresholds to
/// λ ≥ σ̂_j √(2 ln K_j), with σ̂_j the largest per-coefficient standard error
/// √S2/n on level j — the classical stabilization, made level-wise — and is
/// the default for hard thresholding. `kNone` is the literal paper formula
/// (default for soft). See DESIGN.md.
enum class CvStabilization { kNone, kUniversalFloor };

/// Runs the HTCV or STCV procedure with the default stabilization for the
/// kind (hard -> universal floor, soft -> literal).
CrossValidationResult CrossValidate(const EmpiricalCoefficients& coefficients,
                                    ThresholdKind kind);

/// Explicit-stabilization variant.
CrossValidationResult CrossValidate(const EmpiricalCoefficients& coefficients,
                                    ThresholdKind kind,
                                    CvStabilization stabilization);

}  // namespace core
}  // namespace wde

#endif  // WDE_CORE_CROSS_VALIDATION_HPP_
