#include "wavelet/scaled_function.hpp"

#include <cmath>

#include "numerics/integration.hpp"
#include "numerics/simd.hpp"
#include "util/check.hpp"
#include "util/string_util.hpp"

namespace wde {
namespace wavelet {

namespace {

/// Exactly invertible grid steps: 1/dx is representable and multiplication
/// by it reproduces division bit-for-bit. Holds for the cascade tables
/// (dx = 2^-levels); enforced so the hoisted fast path can never silently
/// diverge from the scalar interpolator.
bool IsPowerOfTwo(double dx) {
  int exponent = 0;
  return std::frexp(dx, &exponent) == 0.5;
}

}  // namespace

ScaledLevelEvaluator::ScaledLevelEvaluator(
    int j, int support,
    std::shared_ptr<const numerics::UniformGridInterpolator> table,
    std::shared_ptr<const numerics::UniformGridInterpolator> cdf)
    : j_(j),
      support_(support),
      level_lo_(-(support - 1)),
      level_hi_((1 << j) - 1),
      scale_(static_cast<double>(1 << j)),
      sqrt_scale_(std::sqrt(scale_)),
      table_x0_(table->x0()),
      table_inv_dx_(1.0 / table->dx()),
      table_t_max_(static_cast<double>(table->values().size() - 1)),
      table_values_(table->values().data()),
      table_n_(table->values().size()),
      cdf_x0_(cdf->x0()),
      cdf_inv_dx_(1.0 / cdf->dx()),
      cdf_t_max_(static_cast<double>(cdf->values().size() - 1)),
      cdf_values_(cdf->values().data()),
      cdf_n_(cdf->values().size()),
      cdf_x1_(cdf->x1()),
      cdf_last_(cdf->values().back()),
      table_(std::move(table)),
      cdf_(std::move(cdf)) {
  WDE_CHECK(IsPowerOfTwo(table_->dx()) && IsPowerOfTwo(cdf_->dx()),
            "hoisted level evaluation requires power-of-two grid steps");
  WDE_CHECK(table_->x0() == 0.0 && cdf_->x0() == 0.0,
            "hoisted level evaluation requires zero-based grids");
}

Result<WaveletBasis> WaveletBasis::Create(const WaveletFilter& filter,
                                          int table_levels) {
  if (table_levels < 4 || table_levels > 20) {
    return Status::InvalidArgument("table_levels must be in [4, 20]");
  }
  Result<CascadeTables> tables = ComputeCascadeTables(filter, table_levels);
  if (!tables.ok()) return tables.status();
  const double dx = tables->dx();
  std::vector<double> phi_cdf_values = numerics::CumulativeTrapezoid(tables->phi, dx);
  std::vector<double> psi_cdf_values = numerics::CumulativeTrapezoid(tables->psi, dx);
  auto phi = std::make_shared<const numerics::UniformGridInterpolator>(
      0.0, dx, std::move(tables->phi));
  auto psi = std::make_shared<const numerics::UniformGridInterpolator>(
      0.0, dx, std::move(tables->psi));
  auto phi_cdf = std::make_shared<const numerics::UniformGridInterpolator>(
      0.0, dx, std::move(phi_cdf_values));
  auto psi_cdf = std::make_shared<const numerics::UniformGridInterpolator>(
      0.0, dx, std::move(psi_cdf_values));
  return WaveletBasis(std::make_shared<const WaveletFilter>(filter), table_levels,
                      std::move(phi), std::move(psi), std::move(phi_cdf),
                      std::move(psi_cdf));
}

void WaveletBasis::EvaluateMany(MotherFunction f, std::span<const double> xs,
                                std::span<double> out) const {
  (f == MotherFunction::kPhi ? phi_ : psi_)->EvaluateMany(xs, out);
}

double WaveletBasis::PhiAntiderivative(double x) const {
  if (x <= 0.0) return 0.0;
  if (x >= phi_cdf_->x1()) return phi_cdf_->values().back();
  return phi_cdf_->Evaluate(x);
}

double WaveletBasis::PsiAntiderivative(double x) const {
  if (x <= 0.0) return 0.0;
  if (x >= psi_cdf_->x1()) return psi_cdf_->values().back();
  return psi_cdf_->Evaluate(x);
}

void WaveletBasis::AntiderivativeMany(MotherFunction f, std::span<const double> xs,
                                      std::span<double> out) const {
  WDE_CHECK_EQ(xs.size(), out.size(), "AntiderivativeMany spans must match");
  const numerics::UniformGridInterpolator& cdf =
      f == MotherFunction::kPhi ? *phi_cdf_ : *psi_cdf_;
  const double x0 = cdf.x0();
  const double dx = cdf.dx();
  const double* values = cdf.values().data();
  const size_t n = cdf.values().size();
  const double x1 = cdf.x1();
  const double last = cdf.values().back();
  const double t_max = static_cast<double>(n - 1);
  const size_t count = xs.size();
  // Branch-free rewrite of the scalar ladder (0 left of the support, `last`
  // right of it, EvaluateOn in between): every select uses exactly the
  // comparisons the scalar branches evaluate, out-of-range lanes read a
  // clamped valid cell and are overridden, so the loop vectorizes while
  // staying bit-identical per element.
  WDE_SIMD_LOOP
  for (size_t i = 0; i < count; ++i) {
    const double x = xs[i];
    const double t = (x - x0) / dx;
    const bool on_grid = t >= 0.0 && t <= t_max;
    const double tc = on_grid ? t : 0.0;
    size_t idx = static_cast<size_t>(tc);
    idx = idx < n - 2 ? idx : n - 2;
    const double frac = tc - static_cast<double>(idx);
    const double v = values[idx] * (1.0 - frac) + values[idx + 1] * frac;
    const double interior = !on_grid ? 0.0 : (t >= t_max ? values[n - 1] : v);
    out[i] = x <= 0.0 ? 0.0 : (x >= x1 ? last : interior);
  }
}

double WaveletBasis::PhiJk(int j, int k, double x) const {
  WDE_DCHECK(j >= 0 && j < 31);
  const double scale = static_cast<double>(1 << j);
  return std::sqrt(scale) * phi_->Evaluate(scale * x - static_cast<double>(k));
}

double WaveletBasis::PsiJk(int j, int k, double x) const {
  WDE_DCHECK(j >= 0 && j < 31);
  const double scale = static_cast<double>(1 << j);
  return std::sqrt(scale) * psi_->Evaluate(scale * x - static_cast<double>(k));
}

ScaledLevelEvaluator WaveletBasis::PhiLevel(int j) const {
  WDE_CHECK(j >= 0 && j < 31);
  return ScaledLevelEvaluator(j, support_length(), phi_, phi_cdf_);
}

ScaledLevelEvaluator WaveletBasis::PsiLevel(int j) const {
  WDE_CHECK(j >= 0 && j < 31);
  return ScaledLevelEvaluator(j, support_length(), psi_, psi_cdf_);
}

TranslationWindow WaveletBasis::LevelWindow(int j) const {
  WDE_CHECK(j >= 0 && j < 31);
  TranslationWindow w;
  w.lo = -(support_length() - 1);
  w.hi = (1 << j) - 1;
  return w;
}

TranslationWindow WaveletBasis::PointWindow(int j, double x) const {
  const TranslationWindow level = LevelWindow(j);
  const double scaled = std::ldexp(x, j);  // 2^j x
  // φ(2^j x − k) is nonzero iff 2^j x − k lies in (0, L−1), i.e.
  // k in (2^j x − (L−1), 2^j x).
  TranslationWindow w;
  w.lo = static_cast<int>(std::ceil(scaled)) - support_length();
  w.hi = static_cast<int>(std::floor(scaled));
  w.lo = std::max(w.lo, level.lo);
  w.hi = std::min(w.hi, level.hi);
  return w;
}

}  // namespace wavelet
}  // namespace wde
