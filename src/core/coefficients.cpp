#include "core/coefficients.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "numerics/simd.hpp"
#include "util/string_util.hpp"

namespace wde {
namespace core {

int DefaultPrimaryLevel(size_t n, int vanishing_moments) {
  WDE_CHECK_GT(n, 1u);
  const double raw = std::log(static_cast<double>(n)) /
                     (1.0 + static_cast<double>(vanishing_moments));
  int j0 = static_cast<int>(std::floor(raw)) + 1;  // smallest integer > raw
  return std::max(j0, 0);
}

int DefaultTopLevel(size_t n) {
  WDE_CHECK_GT(n, 1u);
  int j = 0;
  while ((n >> (j + 1)) > 0) ++j;
  return j;
}

EmpiricalCoefficients::EmpiricalCoefficients(wavelet::WaveletBasis basis, int j0,
                                             int j_max)
    : basis_(std::move(basis)), j0_(j0), j_max_(j_max) {
  std::vector<memory::ColumnSpec> specs;
  const auto init_level = [this, &specs](int j, bool is_scaling) {
    CoefficientLevel level;
    level.j = j;
    level.is_scaling = is_scaling;
    const wavelet::TranslationWindow window = basis_.LevelWindow(j);
    level.k_lo = window.lo;
    const auto count = static_cast<uint64_t>(window.size());
    specs.push_back({memory::ColumnKind::kF64, count});  // s1
    specs.push_back({memory::ColumnKind::kF64, count});  // s2
    return level;
  };
  scaling_ = init_level(j0_, true);
  details_.reserve(static_cast<size_t>(j_max_ - j0_ + 1));
  for (int j = j0_; j <= j_max_; ++j) details_.push_back(init_level(j, false));
  sums_ = memory::Arena::Create(specs);  // zero-initialized
  BindLevels();
}

EmpiricalCoefficients::EmpiricalCoefficients(const EmpiricalCoefficients& other)
    : basis_(other.basis_),
      j0_(other.j0_),
      j_max_(other.j_max_),
      count_(other.count_),
      sums_(other.sums_),  // CoW share
      scaling_(other.scaling_),
      details_(other.details_) {
  BindLevels();
}

EmpiricalCoefficients& EmpiricalCoefficients::operator=(
    const EmpiricalCoefficients& other) {
  if (this != &other) {
    basis_ = other.basis_;
    j0_ = other.j0_;
    j_max_ = other.j_max_;
    count_ = other.count_;
    sums_ = other.sums_;
    scaling_ = other.scaling_;
    details_ = other.details_;
    BindLevels();
  }
  return *this;
}

void EmpiricalCoefficients::BindLevels() {
  // Shallow bind: the spans view the current storage, which may be shared.
  // Every mutator funnels through EnsureOwnedSums first, so writes
  // never reach storage another accumulator (or a published view) can see.
  const auto bind = [this](CoefficientLevel* level, size_t column) {
    const std::span<const double> s1 = sums_.F64(column);
    const std::span<const double> s2 = sums_.F64(column + 1);
    level->s1 = {const_cast<double*>(s1.data()), s1.size()};
    level->s2 = {const_cast<double*>(s2.data()), s2.size()};
  };
  bind(&scaling_, 0);
  for (size_t i = 0; i < details_.size(); ++i) bind(&details_[i], 2 + 2 * i);
}

void EmpiricalCoefficients::EnsureOwnedSums() {
  const uint8_t* before = sums_.payload();
  sums_.EnsureWritable();
  if (sums_.payload() != before) BindLevels();
}

Result<EmpiricalCoefficients> EmpiricalCoefficients::Create(
    wavelet::WaveletBasis basis, int j0, int j_max) {
  if (j0 < 0 || j_max < j0 || j_max > 26) {
    return Status::InvalidArgument(
        Format("invalid level range [%d, %d]", j0, j_max));
  }
  return EmpiricalCoefficients(std::move(basis), j0, j_max);
}

void EmpiricalCoefficients::AddToLevel(CoefficientLevel* level, double x) {
  const wavelet::TranslationWindow window = basis_.PointWindow(level->j, x);
  for (int k = window.lo; k <= window.hi; ++k) {
    if (!level->Contains(k)) continue;
    const double value = level->is_scaling ? basis_.PhiJk(level->j, k, x)
                                           : basis_.PsiJk(level->j, k, x);
    const size_t idx = static_cast<size_t>(k - level->k_lo);
    level->s1[idx] += value;
    level->s2[idx] += value * value;
  }
}

void EmpiricalCoefficients::Add(double x) {
  WDE_CHECK(x >= 0.0 && x <= 1.0, "observation outside the unit interval");
  EnsureOwnedSums();
  AddToLevel(&scaling_, x);
  for (CoefficientLevel& level : details_) AddToLevel(&level, x);
  ++count_;
}

void EmpiricalCoefficients::AccumulateLevel(CoefficientLevel* level,
                                            std::span<const double> xs) {
  // The point window is always inside the level window (PointWindow clamps),
  // and the level arrays cover the whole level window, so no Contains() check
  // is needed here. Accumulation order per (k) slot matches the scalar path:
  // samples in stream order.
  const wavelet::ScaledLevelEvaluator eval =
      level->is_scaling ? basis_.PhiLevel(level->j) : basis_.PsiLevel(level->j);
  double* s1 = level->s1.data();
  double* s2 = level->s2.data();
  const int k_lo = level->k_lo;
  for (double x : xs) {
    eval.AccumulateValueAndSquare(x, k_lo, s1, s2);
  }
}

void EmpiricalCoefficients::AddAll(std::span<const double> xs) {
  if (xs.empty()) return;  // skip the per-level evaluator setup entirely
  for (double x : xs) {
    WDE_CHECK(x >= 0.0 && x <= 1.0, "observation outside the unit interval");
  }
  EnsureOwnedSums();
  AccumulateLevel(&scaling_, xs);
  for (CoefficientLevel& level : details_) AccumulateLevel(&level, xs);
  count_ += xs.size();
}

Status EmpiricalCoefficients::Merge(const EmpiricalCoefficients& other) {
  if (&other == this) {
    return Status::InvalidArgument("cannot merge an accumulator into itself");
  }
  if (j0_ != other.j0_ || j_max_ != other.j_max_) {
    return Status::FailedPrecondition(
        Format("level range mismatch: [%d, %d] vs [%d, %d]", j0_, j_max_,
               other.j0_, other.j_max_));
  }
  // Same filter ⇒ same basis functions ⇒ the sums estimate the same
  // coefficients. Compared by value: two bases built from equal filters have
  // identical level windows, which the element-wise add below relies on.
  // (Table resolution is not encoded in the sums; accumulators built at
  // different resolutions are the caller's error and cannot be detected.)
  const wavelet::WaveletFilter& f = basis_.filter();
  const wavelet::WaveletFilter& g = other.basis_.filter();
  if (f.name() != g.name() || f.h() != g.h()) {
    return Status::FailedPrecondition(
        Format("wavelet filter mismatch: %s vs %s", f.name().c_str(),
               g.name().c_str()));
  }
  if (other.count_ == 0) return Status::OK();  // exact (bitwise) no-op
  EnsureOwnedSums();
  const auto merge_level = [](CoefficientLevel* into, const CoefficientLevel& from) {
    WDE_CHECK_EQ(into->k_lo, from.k_lo, "merge: level window origin mismatch");
    WDE_CHECK_EQ(into->size(), from.size(), "merge: level window size mismatch");
    // Independent element-wise adds over flat aligned columns: vectorizes
    // without reassociating any per-slot sum.
    double* s1 = into->s1.data();
    double* s2 = into->s2.data();
    const double* f1 = from.s1.data();
    const double* f2 = from.s2.data();
    const size_t n = into->s1.size();
    WDE_SIMD_LOOP
    for (size_t i = 0; i < n; ++i) {
      s1[i] += f1[i];
      s2[i] += f2[i];
    }
  };
  merge_level(&scaling_, other.scaling_);
  for (size_t i = 0; i < details_.size(); ++i) {
    merge_level(&details_[i], other.details_[i]);
  }
  count_ += other.count_;
  return Status::OK();
}

Status SerializeBasisId(const wavelet::WaveletBasis& basis, io::Sink& sink) {
  WDE_RETURN_IF_ERROR(io::WriteString(sink, basis.filter().name()));
  return io::WriteU32(sink, static_cast<uint32_t>(basis.table_levels()));
}

Result<wavelet::WaveletBasis> DeserializeBasisId(io::Source& source) {
  WDE_ASSIGN_OR_RETURN(const std::string name, io::ReadString(source, 64));
  WDE_ASSIGN_OR_RETURN(const uint32_t table_levels, io::ReadU32(source));
  if (table_levels > 20) {
    return Status::InvalidArgument("corrupt basis table resolution");
  }
  Result<wavelet::WaveletFilter> filter = wavelet::WaveletFilter::FromName(name);
  if (!filter.ok()) return filter.status();
  return wavelet::WaveletBasis::Create(*filter, static_cast<int>(table_levels));
}

namespace {

Status SerializeLevel(const CoefficientLevel& level, io::Sink& sink) {
  WDE_RETURN_IF_ERROR(io::WriteI32(sink, level.k_lo));
  WDE_RETURN_IF_ERROR(io::WriteDoubleVector(sink, level.s1));
  return io::WriteDoubleVector(sink, level.s2);
}

/// Reads one level's sums into `level`, which already carries the window
/// geometry re-derived from the basis; serialized geometry must agree.
Status DeserializeLevelInto(io::Source& source, CoefficientLevel* level) {
  WDE_ASSIGN_OR_RETURN(const int32_t k_lo, io::ReadI32(source));
  WDE_ASSIGN_OR_RETURN(std::vector<double> s1, io::ReadDoubleVector(source));
  WDE_ASSIGN_OR_RETURN(std::vector<double> s2, io::ReadDoubleVector(source));
  if (k_lo != level->k_lo || s1.size() != level->s1.size() ||
      s2.size() != level->s2.size()) {
    return Status::InvalidArgument(
        Format("corrupt coefficient level j=%d: window mismatch", level->j));
  }
  // S2 sums squares, so no live accumulator holds a negative one.
  const auto finite = [](double v) { return std::isfinite(v); };
  const auto finite_nonnegative = [](double v) { return std::isfinite(v) && v >= 0.0; };
  if (!std::all_of(s1.begin(), s1.end(), finite) ||
      !std::all_of(s2.begin(), s2.end(), finite_nonnegative)) {
    return Status::InvalidArgument(
        Format("corrupt coefficient level j=%d: non-finite or negative sums", level->j));
  }
  std::copy(s1.begin(), s1.end(), level->s1.begin());
  std::copy(s2.begin(), s2.end(), level->s2.begin());
  return Status::OK();
}

}  // namespace

Status EmpiricalCoefficients::Serialize(io::Sink& sink) const {
  WDE_RETURN_IF_ERROR(SerializeBasisId(basis_, sink));
  WDE_RETURN_IF_ERROR(io::WriteI32(sink, j0_));
  WDE_RETURN_IF_ERROR(io::WriteI32(sink, j_max_));
  WDE_RETURN_IF_ERROR(io::WriteU64(sink, count_));
  WDE_RETURN_IF_ERROR(SerializeLevel(scaling_, sink));
  for (const CoefficientLevel& level : details_) {
    WDE_RETURN_IF_ERROR(SerializeLevel(level, sink));
  }
  return Status::OK();
}

Result<EmpiricalCoefficients> EmpiricalCoefficients::Deserialize(
    io::Source& source) {
  WDE_ASSIGN_OR_RETURN(wavelet::WaveletBasis basis, DeserializeBasisId(source));
  WDE_ASSIGN_OR_RETURN(const int32_t j0, io::ReadI32(source));
  WDE_ASSIGN_OR_RETURN(const int32_t j_max, io::ReadI32(source));
  // Create re-validates the level range, so hostile values cannot size the
  // windows; the constructed accumulator then defines the expected geometry.
  Result<EmpiricalCoefficients> coeffs = Create(std::move(basis), j0, j_max);
  if (!coeffs.ok()) return coeffs.status();
  WDE_ASSIGN_OR_RETURN(const uint64_t count, io::ReadU64(source));
  WDE_RETURN_IF_ERROR(DeserializeLevelInto(source, &coeffs->scaling_));
  for (CoefficientLevel& level : coeffs->details_) {
    WDE_RETURN_IF_ERROR(DeserializeLevelInto(source, &level));
  }
  coeffs->count_ = static_cast<size_t>(count);
  return coeffs;
}

const CoefficientLevel& EmpiricalCoefficients::detail_level(int j) const {
  WDE_CHECK(j >= j0_ && j <= j_max_, "detail level out of range");
  return details_[static_cast<size_t>(j - j0_)];
}

double EmpiricalCoefficients::AlphaHat(int k) const {
  WDE_CHECK_GT(count_, 0u);
  if (!scaling_.Contains(k)) return 0.0;
  return scaling_.s1[static_cast<size_t>(k - scaling_.k_lo)] /
         static_cast<double>(count_);
}

double EmpiricalCoefficients::BetaHat(int j, int k) const {
  WDE_CHECK_GT(count_, 0u);
  const CoefficientLevel& level = detail_level(j);
  if (!level.Contains(k)) return 0.0;
  return level.s1[static_cast<size_t>(k - level.k_lo)] / static_cast<double>(count_);
}

double EmpiricalCoefficients::CrossValidationTerm(int j, int k) const {
  WDE_CHECK_GE(count_, 2u, "CV terms need at least two observations");
  const CoefficientLevel& level = detail_level(j);
  if (!level.Contains(k)) return 0.0;
  const size_t idx = static_cast<size_t>(k - level.k_lo);
  const double n = static_cast<double>(count_);
  const double s1 = level.s1[idx];
  const double s2 = level.s2[idx];
  const double beta = s1 / n;
  return beta * beta - 2.0 * (s1 * s1 - s2) / (n * (n - 1.0));
}

}  // namespace core
}  // namespace wde
