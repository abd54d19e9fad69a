#ifndef WDE_NUMERICS_INTERPOLATION_HPP_
#define WDE_NUMERICS_INTERPOLATION_HPP_

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

namespace wde {
namespace numerics {

/// Piecewise-linear interpolant over a uniform grid x0, x0+dx, ...
/// Evaluates to 0 outside the grid span (matching compactly supported
/// functions, the main use case).
///
/// The grid values are immutable and shared between copies, so copies are
/// cheap and never dangle.
class UniformGridInterpolator {
 public:
  UniformGridInterpolator() : x0_(0.0), dx_(1.0) {}
  UniformGridInterpolator(double x0, double dx, std::vector<double> values);

  double x0() const { return x0_; }
  double dx() const { return dx_; }
  std::span<const double> values() const { return view_; }
  /// Right end of the grid span.
  double x1() const;

  double Evaluate(double x) const {
    return EvaluateOn(x0_, dx_, view_.data(), view_.size(), x);
  }

  /// Raw-array core of Evaluate. Batch loops hoist the member loads by
  /// keeping (x0, dx, values, n) in locals and calling this per point; the
  /// arithmetic is the scalar path's, so results are bit-identical.
  static double EvaluateOn(double x0, double dx, const double* values, size_t n,
                           double x) {
    const double t = (x - x0) / dx;
    if (t < 0.0 || t > static_cast<double>(n - 1)) return 0.0;
    const auto idx = static_cast<size_t>(t);
    if (idx + 1 >= n) return values[n - 1];
    const double frac = t - static_cast<double>(idx);
    return values[idx] * (1.0 - frac) + values[idx + 1] * frac;
  }

  /// out[i] = Evaluate(xs[i]) with the grid parameters hoisted out of the
  /// loop; bit-identical to calling Evaluate per point.
  void EvaluateMany(std::span<const double> xs, std::span<double> out) const;

 private:
  double x0_;
  double dx_;
  /// The table, shared so default copy/move keep `view_` valid.
  std::shared_ptr<const std::vector<double>> owned_;
  /// View into `owned_`.
  std::span<const double> view_;
};

}  // namespace numerics
}  // namespace wde

#endif  // WDE_NUMERICS_INTERPOLATION_HPP_
