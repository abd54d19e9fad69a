#include "numerics/interpolation.hpp"

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

}  // namespace numerics
}  // namespace wde
