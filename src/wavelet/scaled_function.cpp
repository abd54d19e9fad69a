#include "wavelet/scaled_function.hpp"

#include <cmath>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

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

ScaledLevelEvaluator::ScaledLevelEvaluator(int j,
                                           std::shared_ptr<const BasisTables> tables,
                                           MotherFunction f)
    : j_(j), support_(tables->filter.support_length()), tables_(std::move(tables)) {
  const numerics::UniformGridInterpolator& table =
      f == MotherFunction::kPhi ? tables_->phi : tables_->psi;
  const numerics::UniformGridInterpolator& cdf =
      f == MotherFunction::kPhi ? tables_->phi_cdf : tables_->psi_cdf;
  WDE_CHECK(IsPowerOfTwo(table.dx()) && IsPowerOfTwo(cdf.dx()),
            "hoisted level evaluation requires power-of-two grid steps");
  WDE_CHECK(table.x0() == 0.0 && cdf.x0() == 0.0,
            "hoisted level evaluation requires zero-based grids");
  level_lo_ = -(support_ - 1);
  level_hi_ = (1 << j) - 1;
  scale_ = static_cast<double>(1 << j);
  sqrt_scale_ = std::sqrt(scale_);
  table_x0_ = table.x0();
  table_inv_dx_ = 1.0 / table.dx();
  table_t_max_ = static_cast<double>(table.values().size() - 1);
  table_values_ = table.values().data();
  table_n_ = table.values().size();
  cdf_x0_ = cdf.x0();
  cdf_inv_dx_ = 1.0 / cdf.dx();
  cdf_t_max_ = static_cast<double>(cdf.values().size() - 1);
  cdf_values_ = cdf.values().data();
  cdf_n_ = cdf.values().size();
  cdf_x1_ = cdf.x1();
  cdf_last_ = cdf.values().back();
}

namespace {

/// What identifies a basis's tables: the filter's name (which fixes its taps,
/// see filter.hpp) plus the table resolution.
using BasisKey = std::pair<std::string, int>;

Result<std::shared_ptr<const BasisTables>> BuildTables(const WaveletFilter& filter,
                                                       int table_levels) {
  Result<CascadeTables> tables = ComputeCascadeTables(filter, table_levels);
  if (!tables.ok()) return tables.status();
  const double dx = tables->dx();
  std::vector<double> phi_cdf_values = numerics::CumulativeTrapezoid(tables->phi, dx);
  std::vector<double> psi_cdf_values = numerics::CumulativeTrapezoid(tables->psi, dx);
  numerics::UniformGridInterpolator phi(0.0, dx, std::move(tables->phi));
  numerics::UniformGridInterpolator psi(0.0, dx, std::move(tables->psi));
  numerics::UniformGridInterpolator phi_cdf(0.0, dx, std::move(phi_cdf_values));
  numerics::UniformGridInterpolator psi_cdf(0.0, dx, std::move(psi_cdf_values));
  const BasisTables built{filter, table_levels, phi, psi, phi_cdf, psi_cdf};
  return std::make_shared<const BasisTables>(built);
}

}  // namespace

Result<WaveletBasis> WaveletBasis::Create(const WaveletFilter& filter,
                                          int table_levels) {
  if (table_levels < 4 || table_levels > 20) {
    return Status::InvalidArgument("table_levels must be in [4, 20]");
  }
  // Held across the build so concurrent callers of one key get one set of
  // tables; a build takes milliseconds and happens once per live key.
  static std::mutex mu;
  static std::map<BasisKey, std::weak_ptr<const BasisTables>> memo;
  const std::lock_guard<std::mutex> lock(mu);
  BasisKey key{filter.name(), table_levels};
  if (auto it = memo.find(key); it != memo.end()) {
    if (std::shared_ptr<const BasisTables> tables = it->second.lock()) {
      return WaveletBasis(std::move(tables));
    }
  }
  Result<std::shared_ptr<const BasisTables>> tables = BuildTables(filter, table_levels);
  if (!tables.ok()) return tables.status();
  std::erase_if(memo, [](const auto& entry) { return entry.second.expired(); });
  memo[std::move(key)] = *tables;
  return WaveletBasis(std::move(tables).value());
}

void WaveletBasis::EvaluateMany(MotherFunction f, std::span<const double> xs,
                                std::span<double> out) const {
  (f == MotherFunction::kPhi ? tables_->phi : tables_->psi).EvaluateMany(xs, out);
}

double WaveletBasis::PhiAntiderivative(double x) const {
  const numerics::UniformGridInterpolator& cdf = tables_->phi_cdf;
  if (x <= 0.0) return 0.0;
  if (x >= cdf.x1()) return cdf.values().back();
  return cdf.Evaluate(x);
}

double WaveletBasis::PsiAntiderivative(double x) const {
  const numerics::UniformGridInterpolator& cdf = tables_->psi_cdf;
  if (x <= 0.0) return 0.0;
  if (x >= cdf.x1()) return cdf.values().back();
  return cdf.Evaluate(x);
}

void WaveletBasis::AntiderivativeMany(MotherFunction f, std::span<const double> xs,
                                      std::span<double> out) const {
  WDE_CHECK_EQ(xs.size(), out.size(), "AntiderivativeMany spans must match");
  const numerics::UniformGridInterpolator& cdf =
      f == MotherFunction::kPhi ? tables_->phi_cdf : tables_->psi_cdf;
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
  return std::sqrt(scale) * tables_->phi.Evaluate(scale * x - static_cast<double>(k));
}

double WaveletBasis::PsiJk(int j, int k, double x) const {
  WDE_DCHECK(j >= 0 && j < 31);
  const double scale = static_cast<double>(1 << j);
  return std::sqrt(scale) * tables_->psi.Evaluate(scale * x - static_cast<double>(k));
}

ScaledLevelEvaluator WaveletBasis::PhiLevel(int j) const {
  WDE_CHECK(j >= 0 && j < 31);
  return ScaledLevelEvaluator(j, tables_, MotherFunction::kPhi);
}

ScaledLevelEvaluator WaveletBasis::PsiLevel(int j) const {
  WDE_CHECK(j >= 0 && j < 31);
  return ScaledLevelEvaluator(j, tables_, MotherFunction::kPsi);
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
