#include "selectivity/grid2d_selectivity.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "multidim/grid2d.hpp"
#include "numerics/simd.hpp"
#include "util/check.hpp"
#include "util/string_util.hpp"

namespace wde {
namespace selectivity {

Grid2dHistogram::Grid2dHistogram(double lo0, double hi0, double lo1,
                                 double hi1, int grid_log2)
    : lo0_(lo0), lo1_(lo1), grid_log2_(grid_log2) {
  WDE_CHECK(internal::IsDomain(lo0, hi0),
            "axis-0 domain must be finite lo < hi with a finite width");
  WDE_CHECK(internal::IsDomain(lo1, hi1),
            "axis-1 domain must be finite lo < hi with a finite width");
  WDE_CHECK_GE(grid_log2, 1);
  WDE_CHECK_LE(grid_log2, 10);
  w0_ = hi0 - lo0;
  w1_ = hi1 - lo1;
  g_ = size_t{1} << grid_log2;
  const memory::ColumnSpec specs[] = {{memory::ColumnKind::kF64, g_ * g_},
                                      {memory::ColumnKind::kF64, g_ * g_}};
  cells_ = memory::Arena::Create(specs);
}

void Grid2dHistogram::Insert(double x) {
  if (!have_pending_) {
    // First coordinate of an observation: buffer it raw. Even a non-finite
    // value must be buffered — dropping it alone would shift the interleave
    // parity and pair every later x with the wrong y.
    pending_ = x;
    have_pending_ = true;
    return;
  }
  const double px = pending_;
  have_pending_ = false;
  if (!std::isfinite(px) || !std::isfinite(x)) return;  // drop the whole point
  const size_t cell =
      multidim::CellIndex1d(std::clamp(px, lo0_, hi0()), lo0_, hi0(), g_) * g_ +
      multidim::CellIndex1d(std::clamp(x, lo1_, hi1()), lo1_, hi1(), g_);
  cells_.MutableF64(0)[cell] += 1.0;
  ++count_;
}

void Grid2dHistogram::RebuildPrefixIfStale() const {
  if (prefix_valid_ && prefix_built_at_count_ == count_) return;
  // Un-share first (MutableF64 may relocate the arena), then read the counts
  // span from the post-relocation storage.
  std::span<double> prefix = cells_.MutableF64(1);
  std::span<const double> counts = cells_.F64(0);
  // Integer-valued counts below 2^53: the summed-area table is exact and
  // bit-identical however the counts were accumulated.
  multidim::InclusivePrefix2d(counts, prefix, g_);
  prefix_valid_ = true;
  prefix_built_at_count_ = count_;
}

double Grid2dHistogram::EstimateRectImpl(double lo0, double hi0_q, double lo1,
                                         double hi1_q) const {
  if (count_ == 0) return 0.0;
  RebuildPrefixIfStale();
  const double mass =
      multidim::RectCount(cells_.F64(1), g_, lo0, hi0_q, lo1, hi1_q, lo0_,
                          hi0(), lo1_, hi1()) /
      static_cast<double>(count_);
  return std::clamp(mass, 0.0, 1.0);
}

double Grid2dHistogram::EstimateRangeImpl(double a, double b) const {
  // The axis-0 marginal IS the range primitive of a 2-D estimator.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  return EstimateRectImpl(a, b, -kInf, kInf);
}

std::string Grid2dHistogram::name() const {
  return Format("grid2d(%d)", grid_log2_);
}

std::unique_ptr<SelectivityEstimator> Grid2dHistogram::CloneEmpty() const {
  // Copy-then-reset keeps lo/span bitwise identical to this instance
  // (re-deriving them could round differently and make the clone spuriously
  // merge-incompatible).
  auto clone = std::make_unique<Grid2dHistogram>(*this);
  const memory::ColumnSpec specs[] = {{memory::ColumnKind::kF64, g_ * g_},
                                      {memory::ColumnKind::kF64, g_ * g_}};
  clone->cells_ = memory::Arena::Create(specs);
  clone->count_ = 0;
  clone->have_pending_ = false;
  clone->pending_ = 0.0;
  clone->prefix_valid_ = false;
  clone->prefix_built_at_count_ = 0;
  return clone;
}

Status Grid2dHistogram::MergeFrom(const SelectivityEstimator& other) {
  Status peer = CheckMergePeer(other);
  if (!peer.ok()) return peer;
  const auto& rhs = static_cast<const Grid2dHistogram&>(other);
  if (lo0_ != rhs.lo0_ || w0_ != rhs.w0_ || lo1_ != rhs.lo1_ ||
      w1_ != rhs.w1_ || g_ != rhs.g_) {
    return Status::FailedPrecondition("MergeFrom: " + name() +
                                      " domain/grid mismatch with " +
                                      rhs.name());
  }
  // Bulk element-wise fold over the contiguous count columns; un-share
  // before taking the raw pointers. The peer's pending coordinate is not an
  // observation and stays with the peer.
  double* dst = cells_.MutableF64(0).data();
  const double* src = rhs.cells_.F64(0).data();
  const size_t n = g_ * g_;
  WDE_SIMD_LOOP
  for (size_t i = 0; i < n; ++i) dst[i] += src[i];
  count_ += rhs.count_;
  prefix_valid_ = false;  // stale; rebuilt at the next query
  prefix_built_at_count_ = 0;
  return Status::OK();
}

Status Grid2dHistogram::SaveStateImpl(io::Sink& sink) const {
  WDE_RETURN_IF_ERROR(io::WriteDouble(sink, lo0_));
  WDE_RETURN_IF_ERROR(io::WriteDouble(sink, w0_));
  WDE_RETURN_IF_ERROR(io::WriteDouble(sink, lo1_));
  WDE_RETURN_IF_ERROR(io::WriteDouble(sink, w1_));
  WDE_RETURN_IF_ERROR(io::WriteI32(sink, grid_log2_));
  WDE_RETURN_IF_ERROR(io::WriteU64(sink, count_));
  WDE_RETURN_IF_ERROR(io::WriteU8(sink, have_pending_ ? 1 : 0));
  WDE_RETURN_IF_ERROR(io::WriteDouble(sink, pending_));
  return io::WriteDoubleVector(sink, cells_.F64(0));
}

Status Grid2dHistogram::LoadStateImpl(io::Source& source) {
  WDE_ASSIGN_OR_RETURN(const double lo0, io::ReadDouble(source));
  WDE_ASSIGN_OR_RETURN(const double w0, io::ReadDouble(source));
  WDE_ASSIGN_OR_RETURN(const double lo1, io::ReadDouble(source));
  WDE_ASSIGN_OR_RETURN(const double w1, io::ReadDouble(source));
  WDE_ASSIGN_OR_RETURN(const int32_t grid_log2, io::ReadI32(source));
  WDE_ASSIGN_OR_RETURN(const uint64_t count, io::ReadU64(source));
  WDE_ASSIGN_OR_RETURN(const uint8_t have_pending, io::ReadU8(source));
  WDE_ASSIGN_OR_RETURN(const double pending, io::ReadDouble(source));
  WDE_ASSIGN_OR_RETURN(std::vector<double> counts, io::ReadDoubleVector(source));
  const size_t g = grid_log2 >= 1 && grid_log2 <= 10
                       ? size_t{1} << grid_log2
                       : 0;
  if (!std::isfinite(lo0) || !std::isfinite(w0) || !(w0 > 0.0) ||
      !std::isfinite(lo1) || !std::isfinite(w1) || !(w1 > 0.0) || g == 0 ||
      have_pending > 1 || counts.size() != g * g || source.remaining() != 0) {
    return Status::InvalidArgument("corrupt grid2d snapshot");
  }
  // w0/w1 are full axis spans: each upper edge hi = lo + w, as hi0()/hi1()
  // compute it, must be finite and above lo, or every answer is NaN.
  const double end0 = lo0 + w0;
  const double end1 = lo1 + w1;
  if (!(end0 > lo0) || !std::isfinite(end0) || !(end1 > lo1) || !std::isfinite(end1) ||
      !internal::IsCountTable(counts, count)) {
    return Status::InvalidArgument("corrupt grid2d snapshot: domain or counts");
  }
  lo0_ = lo0;
  w0_ = w0;
  lo1_ = lo1;
  w1_ = w1;
  grid_log2_ = grid_log2;
  g_ = g;
  count_ = static_cast<size_t>(count);
  have_pending_ = have_pending != 0;
  pending_ = pending;
  const memory::ColumnSpec specs[] = {{memory::ColumnKind::kF64, g_ * g_},
                                      {memory::ColumnKind::kF64, g_ * g_}};
  cells_ = memory::Arena::Create(specs);
  std::copy(counts.begin(), counts.end(), cells_.MutableF64(0).begin());
  // The summed-area table is derived state: rebuilding from identical counts
  // at the first query reproduces identical answers.
  prefix_valid_ = false;
  prefix_built_at_count_ = 0;
  return Status::OK();
}

}  // namespace selectivity
}  // namespace wde
