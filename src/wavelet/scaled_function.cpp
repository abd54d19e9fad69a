#include "wavelet/scaled_function.hpp"

#include <cmath>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "numerics/integration.hpp"
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

TapMajorTable::TapMajorTable(std::span<const double> values, int levels)
    : levels_(levels),
      mask_((size_t{1} << levels) - 1),
      n_(values.size()),
      inv_dx_(std::ldexp(1.0, levels)),
      t_max_(static_cast<double>(values.size() - 1)) {
  const size_t per_unit = size_t{1} << levels;
  WDE_CHECK(n_ >= 2 && (n_ - 1) % per_unit == 0,
            "a tap-major table spans whole units of its grid");
  width_ = (n_ - 1) / per_unit + 1;
  taps_.assign((per_unit + 1) * width_, 0.0);
  for (size_t p = 0; p <= per_unit; ++p) {
    for (size_t c = 0; c < width_; ++c) {
      const size_t idx = p + (width_ - 1 - c) * per_unit;
      if (idx < n_) taps_[p * width_ + c] = values[idx];
    }
  }
}

ScaledLevelEvaluator::ScaledLevelEvaluator(int j,
                                           std::shared_ptr<const BasisTables> tables,
                                           MotherFunction f)
    : j_(j), support_(tables->filter.support_length()), tables_(std::move(tables)) {
  const numerics::UniformGridInterpolator& cdf =
      f == MotherFunction::kPhi ? tables_->phi_cdf : tables_->psi_cdf;
  WDE_CHECK(IsPowerOfTwo(cdf.dx()) && cdf.x0() == 0.0,
            "hoisted level evaluation requires zero-based power-of-two grids");
  level_lo_ = -(support_ - 1);
  level_hi_ = (1 << j) - 1;
  scale_ = static_cast<double>(1 << j);
  sqrt_scale_ = std::sqrt(scale_);
  table_ = f == MotherFunction::kPhi ? &tables_->phi : &tables_->psi;
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
  return std::make_shared<const BasisTables>(BasisTables{
      filter, table_levels, TapMajorTable(tables->phi, table_levels),
      TapMajorTable(tables->psi, table_levels),
      numerics::UniformGridInterpolator(
          0.0, dx, numerics::CumulativeTrapezoid(tables->phi, dx)),
      numerics::UniformGridInterpolator(
          0.0, dx, numerics::CumulativeTrapezoid(tables->psi, dx))});
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
  // φ(2^j x − k) is nonzero iff 2^j x − k lies in (0, L−1), i.e.
  // k in (2^j x − (L−1), 2^j x).
  const TranslationWindow w = UnclampedPointWindow(std::ldexp(x, j), support_length());
  return {std::max(w.lo, level.lo), std::min(w.hi, level.hi)};
}

}  // namespace wavelet
}  // namespace wde
