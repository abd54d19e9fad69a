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
    const size_t n = view_.size();
    const double t = (x - x0_) / dx_;
    if (t < 0.0 || t > static_cast<double>(n - 1)) return 0.0;
    const auto idx = static_cast<size_t>(t);
    if (idx + 1 >= n) return view_[n - 1];
    const double frac = t - static_cast<double>(idx);
    return view_[idx] * (1.0 - frac) + view_[idx + 1] * frac;
  }

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
