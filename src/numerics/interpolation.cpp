#include "numerics/interpolation.hpp"

#include <cmath>

#include "numerics/simd.hpp"
#include "util/check.hpp"

namespace wde {
namespace numerics {

UniformGridInterpolator::UniformGridInterpolator(double x0, double dx,
                                                 std::vector<double> values)
    : x0_(x0),
      dx_(dx),
      owned_(std::make_shared<const std::vector<double>>(std::move(values))) {
  view_ = *owned_;
  WDE_CHECK_GT(dx_, 0.0, "grid spacing must be positive");
  WDE_CHECK_GE(view_.size(), 2u, "need at least two grid points");
}

double UniformGridInterpolator::x1() const {
  return x0_ + dx_ * static_cast<double>(view_.size() - 1);
}

void UniformGridInterpolator::EvaluateMany(std::span<const double> xs,
                                           std::span<double> out) const {
  WDE_CHECK_EQ(xs.size(), out.size(), "EvaluateMany spans must match");
  const double x0 = x0_;
  const double dx = dx_;
  const double* values = view_.data();
  const size_t n = view_.size();
  const double t_max = static_cast<double>(n - 1);
  const size_t count = xs.size();
  // Branch-free rewrite of EvaluateOn: out-of-span lanes index a clamped
  // (valid, discarded) cell and are overridden by selects that use exactly
  // the comparisons EvaluateOn branches on, so every lane stays bit-identical
  // to the scalar path while the loop vectorizes.
  WDE_SIMD_LOOP
  for (size_t i = 0; i < count; ++i) {
    const double t = (xs[i] - x0) / dx;
    const bool inside = t >= 0.0 && t <= t_max;
    const double tc = inside ? t : 0.0;
    size_t idx = static_cast<size_t>(tc);
    idx = idx < n - 2 ? idx : n - 2;
    const double frac = tc - static_cast<double>(idx);
    const double v = values[idx] * (1.0 - frac) + values[idx + 1] * frac;
    out[i] = !inside ? 0.0 : (t >= t_max ? values[n - 1] : v);
  }
}

}  // namespace numerics
}  // namespace wde
