#include "kernel/kernels.hpp"

#include <cmath>
#include <vector>

#include "numerics/integration.hpp"
#include "numerics/simd.hpp"
#include "numerics/special_functions.hpp"
#include "util/check.hpp"

namespace wde {
namespace kernel {
namespace {

double RawKernel(KernelType type, double u) {
  const double au = std::fabs(u);
  switch (type) {
    case KernelType::kEpanechnikov:
      return au <= 1.0 ? 0.75 * (1.0 - u * u) : 0.0;
    case KernelType::kGaussian:
      return numerics::NormalPdf(u);
    case KernelType::kBiweight:
      return au <= 1.0 ? 0.9375 * (1.0 - u * u) * (1.0 - u * u) : 0.0;
    case KernelType::kTriangular:
      return au <= 1.0 ? 1.0 - au : 0.0;
  }
  return 0.0;
}

double RadiusFor(KernelType type) {
  return type == KernelType::kGaussian ? 8.0 : 1.0;
}

// Closed-form antiderivatives ∫_{-R}^{u} K on the open support (-R, R). The
// scalar Cdf and the batch CdfMany evaluate the same expressions.
double BiweightCdfInterior(double u) {
  const double u2 = u * u;
  return 0.5 + 0.9375 * (u - (2.0 / 3.0) * (u2 * u) + 0.2 * (u2 * u2 * u));
}

double TriangularCdfInterior(double u) {
  return u <= 0.0 ? 0.5 * (1.0 + u) * (1.0 + u) : 1.0 - 0.5 * (1.0 - u) * (1.0 - u);
}

double CdfInterior(KernelType type, double u) {
  switch (type) {
    case KernelType::kEpanechnikov:
      return EpanechnikovCdfInterior(u);
    case KernelType::kGaussian:
      return numerics::NormalCdf(u);
    case KernelType::kBiweight:
      return BiweightCdfInterior(u);
    case KernelType::kTriangular:
      return TriangularCdfInterior(u);
  }
  return 0.0;
}

// out[i] = Cdf(us[i]) for one polynomial kernel: the interior closed form on
// every lane (finite for every finite u), then the comparisons Cdf() branches
// on select the saturated 0 or 1.
template <double (*Interior)(double)>
void SaturatedCdfMany(std::span<const double> us, std::span<double> out, double radius) {
  const size_t n = us.size();
  WDE_SIMD_LOOP
  for (size_t i = 0; i < n; ++i) {
    const double u = us[i];
    const double c = Interior(u);
    out[i] = u <= -radius ? 0.0 : (u >= radius ? 1.0 : c);
  }
}

}  // namespace

Kernel::Kernel(KernelType type) : type_(type), radius_(RadiusFor(type)) {
  // Self-convolution table on [-2R, 2R]; by symmetry compute t >= 0 and
  // mirror.
  const size_t kConvPoints = 2049;
  const double conv_dx = 2.0 * radius_ / static_cast<double>(kConvPoints - 1);
  std::vector<double> half(kConvPoints);
  for (size_t i = 0; i < kConvPoints; ++i) {
    const double t = conv_dx * static_cast<double>(i);
    const double lo = std::max(-radius_, t - radius_);
    const double hi = std::min(radius_, t + radius_);
    half[i] = hi > lo ? numerics::IntegrateFunction(
                            [this, t](double u) {
                              return RawKernel(type_, u) * RawKernel(type_, t - u);
                            },
                            lo, hi, 256)
                      : 0.0;
  }
  std::vector<double> conv(2 * kConvPoints - 1);
  for (size_t i = 0; i < kConvPoints; ++i) {
    conv[kConvPoints - 1 + i] = half[i];
    conv[kConvPoints - 1 - i] = half[i];
  }
  conv_table_ = std::make_shared<const numerics::UniformGridInterpolator>(
      -2.0 * radius_, conv_dx, std::move(conv));
}

double Kernel::Evaluate(double u) const { return RawKernel(type_, u); }

void Kernel::EvaluateMany(std::span<const double> us, std::span<double> out) const {
  WDE_CHECK_EQ(us.size(), out.size(), "EvaluateMany spans must match");
  const size_t n = us.size();
  // One loop per kernel type so the dispatch is hoisted; each loop body is
  // the corresponding RawKernel branch verbatim, hence bit-identical.
  switch (type_) {
    case KernelType::kEpanechnikov:
      WDE_SIMD_LOOP
      for (size_t i = 0; i < n; ++i) {
        const double u = us[i];
        out[i] = std::fabs(u) <= 1.0 ? 0.75 * (1.0 - u * u) : 0.0;
      }
      break;
    case KernelType::kGaussian:
      // exp() keeps this one scalar; the hoisted loop still drops the
      // per-element type dispatch.
      for (size_t i = 0; i < n; ++i) out[i] = numerics::NormalPdf(us[i]);
      break;
    case KernelType::kBiweight:
      WDE_SIMD_LOOP
      for (size_t i = 0; i < n; ++i) {
        const double u = us[i];
        out[i] =
            std::fabs(u) <= 1.0 ? 0.9375 * (1.0 - u * u) * (1.0 - u * u) : 0.0;
      }
      break;
    case KernelType::kTriangular:
      WDE_SIMD_LOOP
      for (size_t i = 0; i < n; ++i) {
        const double au = std::fabs(us[i]);
        out[i] = au <= 1.0 ? 1.0 - au : 0.0;
      }
      break;
  }
}

double Kernel::Cdf(double u) const {
  if (u <= -radius_) return 0.0;
  if (u >= radius_) return 1.0;
  return CdfInterior(type_, u);
}

void Kernel::CdfMany(std::span<const double> us, std::span<double> out) const {
  WDE_CHECK_EQ(us.size(), out.size(), "CdfMany spans must match");
  // One loop per kernel type, as in EvaluateMany.
  switch (type_) {
    case KernelType::kEpanechnikov:
      SaturatedCdfMany<EpanechnikovCdfInterior>(us, out, radius_);
      break;
    case KernelType::kGaussian:
      // erfc keeps this one scalar.
      for (size_t i = 0; i < us.size(); ++i) out[i] = Cdf(us[i]);
      break;
    case KernelType::kBiweight:
      SaturatedCdfMany<BiweightCdfInterior>(us, out, radius_);
      break;
    case KernelType::kTriangular:
      SaturatedCdfMany<TriangularCdfInterior>(us, out, radius_);
      break;
  }
}

double Kernel::SelfConvolution(double t) const { return conv_table_->Evaluate(t); }

std::string Kernel::name() const {
  switch (type_) {
    case KernelType::kEpanechnikov:
      return "epanechnikov";
    case KernelType::kGaussian:
      return "gaussian";
    case KernelType::kBiweight:
      return "biweight";
    case KernelType::kTriangular:
      return "triangular";
  }
  return "unknown";
}

}  // namespace kernel
}  // namespace wde
