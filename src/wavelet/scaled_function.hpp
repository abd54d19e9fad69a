#ifndef WDE_WAVELET_SCALED_FUNCTION_HPP_
#define WDE_WAVELET_SCALED_FUNCTION_HPP_

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>

#include "numerics/interpolation.hpp"
#include "util/result.hpp"
#include "wavelet/cascade.hpp"
#include "wavelet/filter.hpp"

namespace wde {
namespace wavelet {

/// Half-open translation window [lo, hi] of indices k for which δ_{j,k}(x)
/// can be nonzero.
struct TranslationWindow {
  int lo = 0;
  int hi = -1;  // empty when hi < lo
  int size() const { return hi >= lo ? hi - lo + 1 : 0; }
};

/// Which mother function a batch call addresses.
enum class MotherFunction { kPhi, kPsi };

class WaveletBasis;

/// The immutable tables behind a basis: the filter plus the cascade tables of
/// φ, ψ and their antiderivatives at one dyadic resolution. Built once per
/// (filter, table_levels) while any basis holds them — see
/// WaveletBasis::Create — and shared by every copy and level evaluator.
struct BasisTables {
  WaveletFilter filter;
  int table_levels = 0;
  numerics::UniformGridInterpolator phi;
  numerics::UniformGridInterpolator psi;
  numerics::UniformGridInterpolator phi_cdf;
  numerics::UniformGridInterpolator psi_cdf;
};

/// A hoisted view of one dilation level j of φ or ψ: the 2^j / 2^{j/2}
/// factors, the level translation window and the raw table parameters are
/// computed once at construction, so batch loops pay the per-evaluation setup
/// that the scalar PhiJk/PsiJk entry points redo on every call only once per
/// level. All members use the scalar paths' arithmetic — values, windows and
/// antiderivatives are bit-identical to the WaveletBasis entry points.
///
/// Holds shared ownership of the tables; cheap to create (one per level per
/// batch pass) and safe to keep across calls — a fitted estimate keeps one
/// per level, so its queries never touch a reference count.
class ScaledLevelEvaluator {
 public:
  /// δ_{j,k}(x); identical to PhiJk/PsiJk(j, k, x).
  double Value(int k, double x) const {
    const double u = scale_ * x - static_cast<double>(k);
    // Inlined UniformGridInterpolator::EvaluateOn with the grid step folded
    // into a multiply: the cascade grids start at 0 with a power-of-two step
    // (asserted at construction), so (u − 0)·(1/dx) is exact and equals the
    // scalar path's (u − x0)/dx bit-for-bit.
    const double t = (u - table_x0_) * table_inv_dx_;
    if (t < 0.0 || t > table_t_max_) return 0.0;
    const auto idx = static_cast<size_t>(t);
    if (idx + 1 >= table_n_) return sqrt_scale_ * table_values_[table_n_ - 1];
    const double frac = t - static_cast<double>(idx);
    return sqrt_scale_ * (table_values_[idx] * (1.0 - frac) +
                          table_values_[idx + 1] * frac);
  }

  /// ∫_0^{2^j x − k} δ; identical to {Phi,Psi}Antiderivative(2^j x − k).
  double AntiderivativeAt(int k, double x) const {
    const double u = scale_ * x - static_cast<double>(k);
    if (u <= 0.0) return 0.0;
    if (u >= cdf_x1_) return cdf_last_;
    const double t = (u - cdf_x0_) * cdf_inv_dx_;
    if (t < 0.0 || t > cdf_t_max_) return 0.0;
    const auto idx = static_cast<size_t>(t);
    if (idx + 1 >= cdf_n_) return cdf_values_[cdf_n_ - 1];
    const double frac = t - static_cast<double>(idx);
    return cdf_values_[idx] * (1.0 - frac) + cdf_values_[idx + 1] * frac;
  }

  /// Identical to WaveletBasis::PointWindow(j, x): 2^j·x as a power-of-two
  /// multiply is exact, matching the scalar path's std::ldexp.
  TranslationWindow PointWindow(double x) const {
    const double scaled = scale_ * x;
    TranslationWindow w;
    w.lo = static_cast<int>(std::ceil(scaled)) - support_;
    w.hi = static_cast<int>(std::floor(scaled));
    w.lo = std::max(w.lo, level_lo_);
    w.hi = std::min(w.hi, level_hi_);
    return w;
  }

  /// The streaming-insert inner loop: adds δ_{j,k}(x) to s1[k − k_base] and
  /// δ²_{j,k}(x) to s2[k − k_base] for every k in PointWindow(x).
  /// Bit-identical to calling Value(k, x) per k in ascending order.
  ///
  /// Fast path: when 2^j·x − k is exactly representable across the whole
  /// window (checked by the endpoint identity below — it holds whenever the
  /// window's u-range fits in 53 mantissa bits at x's granularity, i.e. all
  /// but the coarsest levels), consecutive k walk the dyadic table at an
  /// exact integer stride sharing one interpolation weight pair, so the
  /// index/fraction arithmetic is paid once per sample instead of once per
  /// translate. Otherwise falls back to the per-k scalar expressions.
  void AccumulateValueAndSquare(double x, int k_base, double* s1,
                                double* s2) const {
    const TranslationWindow window = PointWindow(x);
    if (window.hi < window.lo) return;
    const double sx = scale_ * x;
    const double u_first = sx - static_cast<double>(window.lo);
    const double span = static_cast<double>(window.hi - window.lo);
    if (u_first - span == sx - static_cast<double>(window.hi)) {
      // Endpoint identity ⇒ u_first is exact ⇒ every u_k = u_first − m is
      // exact, and t_k = u_k·inv_dx (power-of-two step, zero-based grid)
      // reproduces the scalar interpolator bit-for-bit with a shared
      // fractional part.
      const double t_first = (u_first - table_x0_) * table_inv_dx_;
      const auto stride = static_cast<long>(table_inv_dx_);
      long idx = static_cast<long>(t_first);
      const double frac = t_first - static_cast<double>(idx);
      const double omf = 1.0 - frac;
      const long limit = static_cast<long>(table_n_);
      for (int k = window.lo; k <= window.hi; ++k, idx -= stride) {
        double value;
        if (idx >= 0 && idx + 1 < limit) {
          value = sqrt_scale_ *
                  (table_values_[idx] * omf + table_values_[idx + 1] * frac);
        } else if (idx == limit - 1 && frac == 0.0) {
          value = sqrt_scale_ * table_values_[limit - 1];  // exactly at the edge
        } else {
          value = 0.0;  // outside the mother support
        }
        const auto slot = static_cast<size_t>(k - k_base);
        s1[slot] += value;
        s2[slot] += value * value;
      }
      return;
    }
    for (int k = window.lo; k <= window.hi; ++k) {
      const double value = Value(k, x);
      const auto slot = static_cast<size_t>(k - k_base);
      s1[slot] += value;
      s2[slot] += value * value;
    }
  }

  /// The batch-evaluation inner loop: adds Σ_k coeffs[k − coeff_k_lo] ·
  /// δ_{j,k}(x) over PointWindow(x) ∩ [coeff_k_lo, coeff_k_lo + coeff_n) to
  /// *acc, in ascending k. Bit-identical to the per-k scalar loop
  /// `*acc += coeffs[k − coeff_k_lo] * Value(k, x)`: zero coefficients and
  /// out-of-support translates contribute exactly ±0.0 to an accumulator
  /// that is never −0.0 (it starts at +0.0 and IEEE sums of finite terms
  /// only produce −0.0 from all-(−0.0) inputs), so skipping them never
  /// changes a bit. Shares the interpolation weight pair across the window
  /// via the same endpoint-identity fast path as AccumulateValueAndSquare;
  /// the reduction itself stays in scalar order — vectorizing it would
  /// re-associate the sum and break the bitwise contract.
  void AccumulateWeighted(double x, const double* coeffs, int coeff_k_lo,
                          int coeff_n, double* acc) const {
    const TranslationWindow window = PointWindow(x);
    const int lo = std::max(window.lo, coeff_k_lo);
    const int hi = std::min(window.hi, coeff_k_lo + coeff_n - 1);
    if (hi < lo) return;
    const double sx = scale_ * x;
    const double u_first = sx - static_cast<double>(lo);
    const double span = static_cast<double>(hi - lo);
    double local = *acc;
    if (u_first - span == sx - static_cast<double>(hi)) {
      const double t_first = (u_first - table_x0_) * table_inv_dx_;
      const auto stride = static_cast<long>(table_inv_dx_);
      long idx = static_cast<long>(t_first);
      const double frac = t_first - static_cast<double>(idx);
      const double omf = 1.0 - frac;
      const long limit = static_cast<long>(table_n_);
      const double* cp = coeffs + (lo - coeff_k_lo);
      for (int k = lo; k <= hi; ++k, idx -= stride, ++cp) {
        const double c = *cp;
        if (c == 0.0) continue;
        double value;
        if (idx >= 0 && idx + 1 < limit) {
          value = sqrt_scale_ *
                  (table_values_[idx] * omf + table_values_[idx + 1] * frac);
        } else if (idx == limit - 1 && frac == 0.0) {
          value = sqrt_scale_ * table_values_[limit - 1];
        } else {
          continue;  // outside the mother support: scalar term is ±0.0
        }
        local += c * value;
      }
      *acc = local;
      return;
    }
    for (int k = lo; k <= hi; ++k) {
      const double c = coeffs[k - coeff_k_lo];
      if (c == 0.0) continue;
      local += c * Value(k, x);
    }
    *acc = local;
  }

  int j() const { return j_; }
  /// 2^j as a double.
  double scale() const { return scale_; }

  /// The mother antiderivative's value right of its support: AntiderivativeAt
  /// returns it wherever 2^j x − k >= support_end().
  double antiderivative_full() const { return cdf_last_; }
  /// Right end of the mother support (the antiderivative table's last grid
  /// point, the integer support length).
  double support_end() const { return cdf_x1_; }

 private:
  friend class WaveletBasis;

  ScaledLevelEvaluator(int j, std::shared_ptr<const BasisTables> tables,
                       MotherFunction f);

  int j_;
  int support_;
  int level_lo_;
  int level_hi_;
  double scale_;
  double sqrt_scale_;
  double table_x0_, table_inv_dx_, table_t_max_;
  const double* table_values_;
  size_t table_n_;
  double cdf_x0_, cdf_inv_dx_, cdf_t_max_;
  const double* cdf_values_;
  size_t cdf_n_;
  double cdf_x1_;
  double cdf_last_;
  std::shared_ptr<const BasisTables> tables_;
};

/// Fast evaluation of the dilated/translated basis functions
///   φ_{j,k}(x) = 2^{j/2} φ(2^j x − k),   ψ_{j,k}(x) = 2^{j/2} ψ(2^j x − k)
/// backed by cascade tables with linear interpolation. The table resolution
/// (default 2^-12 per unit) matches the paper's grid-approximation scheme;
/// `DaubechiesLagariasEvaluator` provides the exact reference in tests.
///
/// The basis is shared (cheaply copyable) so estimators, selectivity
/// structures and benches can reuse one table; `Create` hands every caller
/// asking for the same filter and resolution the same tables.
///
/// Hot paths come in scalar and batch forms. The batch forms (`EvaluateMany`,
/// `AntiderivativeMany`, and per-level loops through `PhiLevel`/`PsiLevel`)
/// hoist the scale/translate setup out of the inner loop and are guaranteed
/// bit-identical to the scalar calls; sorted inputs additionally walk the
/// dyadic tables cache-coherently (monotone table indices).
class WaveletBasis {
 public:
  /// Tables for `filter` at dyadic resolution 2^-table_levels. Memoized per
  /// process by (filter name, table_levels): while any basis built for
  /// that key is alive, Create returns one sharing its tables instead of
  /// rerunning the cascade. Entries are weak, so tables die with their last
  /// user. Thread-safe.
  static Result<WaveletBasis> Create(const WaveletFilter& filter,
                                     int table_levels = 12);

  const WaveletFilter& filter() const { return tables_->filter; }
  int support_length() const { return tables_->filter.support_length(); }
  /// The dyadic table resolution this basis was built at. Together with
  /// `filter().name()` this identifies the basis exactly — what snapshots
  /// store so a restored estimator rebuilds bit-identical tables.
  int table_levels() const { return tables_->table_levels; }

  /// Mother function values (0 outside [0, support_length]).
  double Phi(double x) const { return tables_->phi.Evaluate(x); }
  double Psi(double x) const { return tables_->psi.Evaluate(x); }

  /// Batch mother-function values: out[i] = Phi(xs[i]) (resp. Psi), with the
  /// table parameters hoisted out of the loop. Bit-identical to the scalar
  /// calls.
  void EvaluateMany(MotherFunction f, std::span<const double> xs,
                    std::span<double> out) const;

  /// Antiderivatives ∫_0^x φ and ∫_0^x ψ (flat outside the support:
  /// 1 resp. 0 to the right). Enable exact range integrals of estimates,
  /// which is what selectivity queries are.
  double PhiAntiderivative(double x) const;
  double PsiAntiderivative(double x) const;

  /// Batch antiderivatives: out[i] = {Phi,Psi}Antiderivative(xs[i]),
  /// bit-identical to the scalar calls.
  void AntiderivativeMany(MotherFunction f, std::span<const double> xs,
                          std::span<double> out) const;

  /// Scaled/translated values.
  double PhiJk(int j, int k, double x) const;
  double PsiJk(int j, int k, double x) const;

  /// Hoisted per-level evaluators for batch loops; bit-identical to
  /// PhiJk/PsiJk, PointWindow and the antiderivatives at that level.
  ScaledLevelEvaluator PhiLevel(int j) const;
  ScaledLevelEvaluator PsiLevel(int j) const;

  /// Translations k with support intersecting [0, 1]:
  /// k in [−(L−2), 2^j − 1] for data on the unit interval.
  TranslationWindow LevelWindow(int j) const;

  /// Translations k for which φ_{j,k}(x) (equivalently ψ_{j,k}(x)) may be
  /// nonzero at the single point x, clamped to LevelWindow(j).
  TranslationWindow PointWindow(int j, double x) const;

 private:
  explicit WaveletBasis(std::shared_ptr<const BasisTables> tables)
      : tables_(std::move(tables)) {}

  std::shared_ptr<const BasisTables> tables_;
};

}  // namespace wavelet
}  // namespace wde

#endif  // WDE_WAVELET_SCALED_FUNCTION_HPP_
