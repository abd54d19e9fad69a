#ifndef WDE_WAVELET_SCALED_FUNCTION_HPP_
#define WDE_WAVELET_SCALED_FUNCTION_HPP_

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "numerics/interpolation.hpp"
#include "numerics/simd.hpp"
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

/// The unclamped point window of 2^j·x = `scaled`: k ∈ [⌈scaled⌉ − support,
/// ⌊scaled⌋]. For scaled ≥ 0 the truncating cast is ⌊scaled⌋ and adding
/// (⌊scaled⌋ < scaled) gives ⌈scaled⌉, which spares the two library calls
/// (a long sequence on baseline x86-64, which has no `roundsd`); every other
/// input keeps std::ceil/std::floor. The same integers either way.
inline TranslationWindow UnclampedPointWindow(double scaled, int support) {
  if (scaled >= 0.0) {
    const int floor_scaled = static_cast<int>(scaled);
    return {floor_scaled + (floor_scaled < scaled) - support, floor_scaled};
  }
  return {static_cast<int>(std::ceil(scaled)) - support,
          static_cast<int>(std::floor(scaled))};
}

/// One mother function's cascade table T[0..n), n = support·2^L + 1 values
/// at step 2^−L from 0, stored tap-major: row p (0 ≤ p ≤ 2^L) holds
/// T[p + (W − 1 − c)·2^L] in column c (0 ≤ c < W, W = support + 1), and 0.0
/// where that index is past n − 1.
///
/// The translates k of one sample at one level read T at idx − m·2^L
/// (m = k − k_first) with one shared fraction: adjacent columns of row
/// idx mod 2^L, and of the next row for T[· + 1]. So their loop is
/// contiguous and has no per-tap branch; the zero padding supplies the
/// scalar interpolator's value at the right end of the support.
class TapMajorTable {
 public:
  /// `values` = T, with (values.size() − 1) a multiple of 2^levels.
  TapMajorTable(std::span<const double> values, int levels);

  /// Piecewise-linear T at x (0 outside [0, support]); bit-identical to
  /// numerics::UniformGridInterpolator(0, 2^−L, T).Evaluate(x): x·2^L is
  /// its exact (x − 0)/2^−L, and the two values read are T[idx], T[idx + 1].
  double Evaluate(double x) const {
    const double t = x * inv_dx_;
    if (t < 0.0 || t > t_max_) return 0.0;
    const auto idx = static_cast<size_t>(t);
    if (idx + 1 >= n_) return taps_[0];  // T[n − 1], exactly at the edge
    const double frac = t - static_cast<double>(idx);
    const double* cell = Cell(idx);
    return cell[0] * (1.0 - frac) + cell[width_] * frac;
  }

  /// Where T[idx] lives (idx < n): T[idx + 1] is Cell(idx)[width()] and
  /// T[idx − m·2^L] is Cell(idx)[m].
  const double* Cell(size_t idx) const {
    return taps_.data() + (idx & mask_) * width_ + (width_ - 1 - (idx >> levels_));
  }

  /// W: the columns per row.
  size_t width() const { return width_; }
  /// 2^L: grid points per unit.
  double inv_dx() const { return inv_dx_; }

 private:
  int levels_;
  size_t mask_;
  size_t width_;
  size_t n_;
  double inv_dx_;
  double t_max_;
  std::vector<double> taps_;
};

class WaveletBasis;

/// The immutable tables behind a basis: the filter, φ and ψ tap-major (see
/// TapMajorTable) and their antiderivatives, all at one dyadic resolution.
/// Built once per (filter, table_levels) while any basis holds them — see
/// WaveletBasis::Create — and shared by every copy and level evaluator.
struct BasisTables {
  WaveletFilter filter;
  int table_levels = 0;
  TapMajorTable phi;
  TapMajorTable psi;
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
    return sqrt_scale_ * table_->Evaluate(scale_ * x - static_cast<double>(k));
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
    return Clamp(UnclampedPointWindow(scale_ * x, support_));
  }

  /// The streaming-insert inner loop: adds δ_{j,k}(x) to s1[k − k_base] and
  /// δ²_{j,k}(x) to s2[k − k_base] for every k in PointWindow(x).
  /// Bit-identical to calling Value(k, x) per k in ascending order.
  ///
  /// The window is cut into runs of translates whose u = 2^j·x − k is
  /// computed exactly up to one shared rounding, so u_k = u_first − m and
  /// every tap of a run shares one fraction and reads adjacent columns of
  /// two tap-major rows: one contiguous SIMD loop (AccumulateRun). Which
  /// path runs when:
  /// - The whole window is one run when the endpoint identity below holds
  ///   over it: the common case at every level but the coarsest.
  /// - Otherwise (mostly j ≤ 3, where u spans several binades at a finer
  ///   spacing than 2^j·x has bits for) the runs are the translates whose
  ///   exact u = f + a (f = 2^j·x − ⌊2^j·x⌋ ∈ [0, 1), a integer) share a
  ///   binade [2^e, 2^{e+1}) of a: fl(2^j·x − k) rounds the same fraction
  ///   bits at the same spacing for all of them. The first run also takes
  ///   every a < 2^{e+1} when 2^j·x ≥ 2^e ≥ 1, where the subtraction is
  ///   exact. About 3.75 runs per such sample at j = 2 on uniform data.
  /// - A run that fails the endpoint identity anyway is walked tap by tap
  ///   through Value(). By the argument above no finite x reaches it; it is
  ///   the guard that keeps the contract if the argument is ever wrong.
  void AccumulateValueAndSquare(double x, int k_base, double* s1,
                                double* s2) const {
    const double sx = scale_ * x;
    const TranslationWindow raw = UnclampedPointWindow(sx, support_);
    const TranslationWindow window = Clamp(raw);
    if (window.hi < window.lo) return;
    if (IsExactRun(sx, window.lo, window.hi)) {
      AccumulateRun(sx, window.lo, window.hi, s1 + (window.lo - k_base),
                    s2 + (window.lo - k_base));
      return;
    }
    for (int run_hi = window.hi; run_hi >= window.lo;) {
      const int a = raw.hi - run_hi;  // ⌊u⌋ of the run's smallest u
      const int run_lo = std::max(window.lo, raw.hi - BinadeEnd(std::max(a, raw.hi)));
      if (IsExactRun(sx, run_lo, run_hi)) {
        AccumulateRun(sx, run_lo, run_hi, s1 + (run_lo - k_base),
                      s2 + (run_lo - k_base));
      } else {
        for (int k = run_lo; k <= run_hi; ++k) {
          const double value = Value(k, x);
          const auto slot = static_cast<size_t>(k - k_base);
          s1[slot] += value;
          s2[slot] += value * value;
        }
      }
      run_hi = run_lo - 1;
    }
  }

  /// The batch-evaluation inner loop: adds Σ_k coeffs[k − coeff_k_lo] ·
  /// δ_{j,k}(x) over PointWindow(x) ∩ [coeff_k_lo, coeff_k_lo + coeff_n) to
  /// *acc, in ascending k. Bit-identical to the per-k scalar loop
  /// `*acc += coeffs[k − coeff_k_lo] * Value(k, x)`: zero coefficients
  /// contribute exactly ±0.0 to an accumulator that is never −0.0 (it starts
  /// at +0.0 and IEEE sums of finite terms only produce −0.0 from
  /// all-(−0.0) inputs), so skipping them never changes a bit. Shares the
  /// interpolation weight pair across the window when the endpoint identity
  /// holds over it, as AccumulateValueAndSquare does; the reduction itself
  /// stays in scalar order — vectorizing it would re-associate the sum and
  /// break the bitwise contract.
  void AccumulateWeighted(double x, const double* coeffs, int coeff_k_lo,
                          int coeff_n, double* acc) const {
    const TranslationWindow window = PointWindow(x);
    const int lo = std::max(window.lo, coeff_k_lo);
    const int hi = std::min(window.hi, coeff_k_lo + coeff_n - 1);
    if (hi < lo) return;
    const double sx = scale_ * x;
    const double* cp = coeffs + (lo - coeff_k_lo);
    double local = *acc;
    if (IsExactRun(sx, lo, hi)) {
      const RunCell run = RunAt(sx - static_cast<double>(lo));
      const double* upper = run.lower + table_->width();
      for (int m = 0; m <= hi - lo; ++m) {
        const double c = cp[m];
        if (c == 0.0) continue;
        local += c * (sqrt_scale_ * (run.lower[m] * run.omf + upper[m] * run.frac));
      }
    } else {
      for (int k = lo; k <= hi; ++k) {
        const double c = cp[k - lo];
        if (c == 0.0) continue;
        local += c * Value(k, x);
      }
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

  /// The shared interpolation state of one run, read at its largest u.
  struct RunCell {
    const double* lower;  // T[idx_first]; the run's taps are lower[0..]
    double omf;           // 1 − frac
    double frac;
  };

  ScaledLevelEvaluator(int j, std::shared_ptr<const BasisTables> tables,
                       MotherFunction f);

  TranslationWindow Clamp(TranslationWindow w) const {
    return {std::max(w.lo, level_lo_), std::min(w.hi, level_hi_)};
  }

  /// The endpoint identity: u_lo − (hi − lo) == u_hi in floating point,
  /// i.e. fl(2^j·x − lo) is exact relative to fl(2^j·x − hi), so every
  /// u_k = u_lo − (k − lo) is exact, t_k = u_k·2^L (power-of-two step,
  /// zero-based grid) reproduces the scalar interpolator bit-for-bit and
  /// all t_k share one fractional part.
  static bool IsExactRun(double sx, int lo, int hi) {
    return (sx - static_cast<double>(lo)) - static_cast<double>(hi - lo) ==
           sx - static_cast<double>(hi);
  }

  /// The last a of the binade run holding a ≥ 0: a itself for 0, else
  /// 2^{e+1} − 1 for a ∈ [2^e, 2^{e+1}).
  static int BinadeEnd(int a) {
    return a == 0 ? 0
                  : static_cast<int>(std::bit_floor(static_cast<unsigned>(a)) * 2u - 1u);
  }

  RunCell RunAt(double u_first) const {
    const double t_first = u_first * table_->inv_dx();
    const auto idx = static_cast<size_t>(t_first);
    const double frac = t_first - static_cast<double>(idx);
    return {table_->Cell(idx), 1.0 - frac, frac};
  }

  /// One exact run k ∈ [lo, hi]: o1[m] += v_m, o2[m] += v_m² for
  /// k = lo + m. Each lane is Value(k, x)'s arithmetic on the same two
  /// table values; lanes write distinct slots, so per-slot stream order,
  /// and with it every bit, is the scalar loop's.
  void AccumulateRun(double sx, int lo, int hi, double* o1, double* o2) const {
    const RunCell run = RunAt(sx - static_cast<double>(lo));
    const double* lower = run.lower;
    const double* upper = lower + table_->width();
    const double omf = run.omf;
    const double frac = run.frac;
    const double root = sqrt_scale_;
    const int count = hi - lo + 1;
    WDE_SIMD_LOOP
    for (int m = 0; m < count; ++m) {
      const double value = root * (lower[m] * omf + upper[m] * frac);
      o1[m] += value;
      o2[m] += value * value;
    }
  }

  int j_;
  int support_;
  int level_lo_;
  int level_hi_;
  double scale_;
  double sqrt_scale_;
  const TapMajorTable* table_;
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
/// Hot paths come in scalar and batch forms. The batch forms (per-level
/// loops through `PhiLevel`/`PsiLevel`) hoist the scale/translate setup out
/// of the inner loop and are guaranteed bit-identical to the scalar calls;
/// sorted inputs additionally walk the dyadic tables cache-coherently
/// (monotone table indices).
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

  /// Antiderivatives ∫_0^x φ and ∫_0^x ψ (flat outside the support:
  /// 1 resp. 0 to the right). Enable exact range integrals of estimates,
  /// which is what selectivity queries are.
  double PhiAntiderivative(double x) const;
  double PsiAntiderivative(double x) const;

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
