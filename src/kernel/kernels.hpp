#ifndef WDE_KERNEL_KERNELS_HPP_
#define WDE_KERNEL_KERNELS_HPP_

#include <memory>
#include <span>
#include <string>

#include "numerics/interpolation.hpp"

namespace wde {
namespace kernel {

enum class KernelType { kEpanechnikov, kGaussian, kBiweight, kTriangular };

/// Interior closed form of the Epanechnikov CDF, ½ + ¾u − ¼u³ on (−1, 1).
/// Kernel::Cdf/CdfMany and the KDE's block-moment CDF evaluate their
/// per-sample terms with exactly this expression.
inline double EpanechnikovCdfInterior(double u) {
  return 0.5 + 0.75 * u - 0.25 * (u * u * u);
}

/// A symmetric probability kernel K with unit mass. Provides the kernel
/// itself, its CDF (for selectivity/range queries), and its self-convolution
/// K*K (for the exact ∫f̂² term of least-squares cross-validation). The CDF
/// is the closed-form antiderivative of each shipped kernel (NormalCdf for
/// the Gaussian); the self-convolution is precomputed numerically on a fine
/// grid, with its closed forms used as test oracles.
class Kernel {
 public:
  explicit Kernel(KernelType type);

  double Evaluate(double u) const;

  /// out[i] = Evaluate(us[i]) bit-identically, with the kernel-type dispatch
  /// hoisted out of the loop and the per-type loop SIMD-annotated (see
  /// numerics/simd.hpp for the contract: elementwise, no re-association).
  void EvaluateMany(std::span<const double> us, std::span<double> out) const;

  /// Radius R such that K vanishes outside [-R, R] (effective radius for the
  /// Gaussian).
  double support_radius() const { return radius_; }

  /// ∫_{-∞}^{u} K in closed form; exactly 0 for u <= -R and exactly 1 for
  /// u >= R, so range estimates telescope cleanly.
  double Cdf(double u) const;

  /// out[i] = Cdf(us[i]) bit-identically. The saturation branches are
  /// rewritten as selects over the interior polynomial so the per-type loop
  /// is branch-free and SIMD-annotated (the Gaussian's erfc stays scalar).
  void CdfMany(std::span<const double> us, std::span<double> out) const;

  /// (K*K)(t) = ∫ K(u) K(t-u) du, supported on [-2R, 2R].
  double SelfConvolution(double t) const;

  /// Roughness ∫ K² = (K*K)(0).
  double Roughness() const { return SelfConvolution(0.0); }

  KernelType type() const { return type_; }
  std::string name() const;

 private:
  KernelType type_;
  double radius_;
  std::shared_ptr<const numerics::UniformGridInterpolator> conv_table_;
};

}  // namespace kernel
}  // namespace wde

#endif  // WDE_KERNEL_KERNELS_HPP_
