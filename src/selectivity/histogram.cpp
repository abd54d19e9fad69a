#include "selectivity/histogram.hpp"

#include <algorithm>
#include <cmath>

#include "numerics/simd.hpp"
#include "util/check.hpp"
#include "util/string_util.hpp"

namespace wde {
namespace selectivity {

EquiWidthHistogram::EquiWidthHistogram(double lo, double hi, int buckets) : lo_(lo) {
  WDE_CHECK_LT(lo, hi);
  WDE_CHECK_GT(buckets, 0);
  width_ = (hi - lo) / static_cast<double>(buckets);
  buckets_ = static_cast<size_t>(buckets);
  const memory::ColumnSpec specs[] = {{memory::ColumnKind::kF64, buckets_},
                                      {memory::ColumnKind::kF64, buckets_}};
  bins_ = memory::Arena::Create(specs);
}

RangeQuery EquiWidthHistogram::Domain() const {
  return RangeQuery{lo_, lo_ + width_ * static_cast<double>(buckets_)};
}

void EquiWidthHistogram::Insert(double x) {
  if (!std::isfinite(x)) return;
  const double hi = lo_ + width_ * static_cast<double>(buckets_);
  x = std::clamp(x, lo_, hi);
  auto bucket = static_cast<long>((x - lo_) / width_);
  bucket = std::clamp(bucket, 0L, static_cast<long>(buckets_) - 1);
  bins_.MutableF64(0)[static_cast<size_t>(bucket)] += 1.0;
  ++count_;
}

void EquiWidthHistogram::RebuildPrefixIfStale() const {
  if (prefix_valid_ && prefix_built_at_count_ == count_) return;
  // Un-share first (MutableF64 may relocate the arena), then read the counts
  // span from the post-relocation storage.
  std::span<double> prefix = bins_.MutableF64(1);
  std::span<const double> counts = bins_.F64(0);
  // Blocked scan: bucket counts are integer-valued doubles (exact up to
  // 2^53), so the blocked association is bit-identical to the sequential
  // chain while breaking its per-element latency dependency.
  numerics::PrefixSumExclusiveBlocked(counts, prefix);
  prefix_valid_ = true;
  prefix_built_at_count_ = count_;
}

double EquiWidthHistogram::CdfAt(double x) const {
  const double hi = lo_ + width_ * static_cast<double>(buckets_);
  x = std::clamp(x, lo_, hi);
  const double t = (x - lo_) / width_;
  const auto bucket = std::clamp(static_cast<long>(t), 0L,
                                 static_cast<long>(buckets_) - 1);
  const double frac = t - static_cast<double>(bucket);
  return (bins_.F64(1)[static_cast<size_t>(bucket)] +
          bins_.F64(0)[static_cast<size_t>(bucket)] * frac) /
         static_cast<double>(count_);
}

double EquiWidthHistogram::EstimateRangeImpl(double a, double b) const {
  if (count_ == 0) return 0.0;
  RebuildPrefixIfStale();
  return CdfAt(b) - CdfAt(a);
}

void EquiWidthHistogram::AnswerImpl(std::span<const Query> queries,
                                    std::span<double> out) const {
  if (count_ == 0) {
    // Empty histogram: every mass kind answers 0.0 through the lowering and
    // quantiles answer 0.0 by the interface rule; the canonical loop does
    // both without touching the prefix table.
    for (size_t i = 0; i < queries.size(); ++i) out[i] = AnswerOne(queries[i]);
    return;
  }
  RebuildPrefixIfStale();
  for (size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    switch (q.kind) {
      case QueryKind::kLess:
      case QueryKind::kCdf:
        // One prefix lookup. Bit-identical to the lowering
        // CdfAt(x) - CdfAt(-inf): the -inf endpoint clamps to the lower
        // domain edge where the prefix mass and fraction are exactly zero.
        out[i] = CdfAt(q.a);
        break;
      default:
        out[i] = AnswerOne(q);
        break;
    }
  }
}

std::string EquiWidthHistogram::name() const {
  return Format("equi-width(%d)", buckets());
}

std::unique_ptr<SelectivityEstimator> EquiWidthHistogram::CloneEmpty() const {
  // Copy-then-reset keeps lo_/width_ bitwise identical to this instance
  // (re-deriving hi from lo + width * buckets could round differently and
  // make the clone spuriously merge-incompatible).
  auto clone = std::make_unique<EquiWidthHistogram>(*this);
  const memory::ColumnSpec specs[] = {{memory::ColumnKind::kF64, buckets_},
                                      {memory::ColumnKind::kF64, buckets_}};
  clone->bins_ = memory::Arena::Create(specs);
  clone->count_ = 0;
  clone->prefix_valid_ = false;
  clone->prefix_built_at_count_ = 0;
  return clone;
}

Status EquiWidthHistogram::MergeFrom(const SelectivityEstimator& other) {
  Status peer = CheckMergePeer(other);
  if (!peer.ok()) return peer;
  const auto& rhs = static_cast<const EquiWidthHistogram&>(other);
  if (lo_ != rhs.lo_ || width_ != rhs.width_ || buckets_ != rhs.buckets_) {
    return Status::FailedPrecondition("MergeFrom: " + name() +
                                      " domain/bucket mismatch with " +
                                      rhs.name());
  }
  // Bulk element-wise fold over the contiguous, 64-byte-aligned count
  // columns; un-share before taking the raw pointers.
  double* dst = bins_.MutableF64(0).data();
  const double* src = rhs.bins_.F64(0).data();
  const size_t n = buckets_;
  WDE_SIMD_LOOP
  for (size_t i = 0; i < n; ++i) dst[i] += src[i];
  count_ += rhs.count_;
  prefix_valid_ = false;  // stale; rebuilt at the next query
  prefix_built_at_count_ = 0;
  return Status::OK();
}

Status EquiWidthHistogram::SaveStateImpl(io::Sink& sink) const {
  WDE_RETURN_IF_ERROR(io::WriteDouble(sink, lo_));
  WDE_RETURN_IF_ERROR(io::WriteDouble(sink, width_));
  WDE_RETURN_IF_ERROR(io::WriteU64(sink, count_));
  return io::WriteDoubleVector(sink, bins_.F64(0));
}

Status EquiWidthHistogram::LoadStateImpl(io::Source& source) {
  WDE_ASSIGN_OR_RETURN(const double lo, io::ReadDouble(source));
  WDE_ASSIGN_OR_RETURN(const double width, io::ReadDouble(source));
  WDE_ASSIGN_OR_RETURN(const uint64_t count, io::ReadU64(source));
  WDE_ASSIGN_OR_RETURN(std::vector<double> counts, io::ReadDoubleVector(source));
  if (!std::isfinite(lo) || !std::isfinite(width) || !(width > 0.0) ||
      counts.empty() || counts.size() > (1u << 26) || source.remaining() != 0) {
    return Status::InvalidArgument("corrupt equi-width snapshot");
  }
  // The domain must be finite and non-degenerate in doubles.
  const double hi = lo + width * static_cast<double>(counts.size());
  if (!(hi > lo) || !std::isfinite(hi) || !internal::IsCountTable(counts, count)) {
    return Status::InvalidArgument("corrupt equi-width snapshot: domain or counts");
  }
  lo_ = lo;
  width_ = width;
  count_ = static_cast<size_t>(count);
  buckets_ = counts.size();
  const memory::ColumnSpec specs[] = {{memory::ColumnKind::kF64, buckets_},
                                      {memory::ColumnKind::kF64, buckets_}};
  bins_ = memory::Arena::Create(specs);
  std::copy(counts.begin(), counts.end(), bins_.MutableF64(0).begin());
  // The prefix table is derived state: rebuilding from identical counts at
  // the first query reproduces identical answers.
  prefix_valid_ = false;
  prefix_built_at_count_ = 0;
  return Status::OK();
}

EquiDepthHistogram::EquiDepthHistogram(double lo, double hi, int buckets,
                                       RefitMode refit_mode)
    : lo_(lo), hi_(hi), buckets_(buckets), refit_mode_(refit_mode) {
  WDE_CHECK_LT(lo, hi);
  WDE_CHECK_GT(buckets, 0);
}

void EquiDepthHistogram::Insert(double x) {
  if (!std::isfinite(x)) return;
  values_.push_back(std::clamp(x, lo_, hi_));
}

void EquiDepthHistogram::RebuildIfStale() const {
  if (!boundaries_.empty() && built_at_count_ == values_.size()) return;
  if (refit_mode_ == RefitMode::kIncremental) {
    // Extend the sorted shadow by the appended delta only: sort the tail,
    // one stable merge — O(Δ log Δ + n) against the scratch path's full
    // O(n log n) sort, identical sorted sequence.
    const size_t prev = sorted_.size();
    sorted_.insert(sorted_.end(), values_.begin() + static_cast<ptrdiff_t>(prev),
                   values_.end());
    const auto mid = sorted_.begin() + static_cast<ptrdiff_t>(prev);
    std::sort(mid, sorted_.end());
    std::inplace_merge(sorted_.begin(), mid, sorted_.end());
    BuildBoundariesFromSorted(sorted_);
  } else {
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    BuildBoundariesFromSorted(sorted);
  }
}

void EquiDepthHistogram::BuildBoundariesFromSorted(
    std::span<const double> sorted) const {
  boundaries_.assign(static_cast<size_t>(buckets_) + 1, lo_);
  if (sorted.empty()) {
    boundaries_.back() = hi_;
    built_at_count_ = 0;
    return;
  }
  boundaries_.front() = lo_;
  boundaries_.back() = hi_;
  for (int b = 1; b < buckets_; ++b) {
    const double pos = static_cast<double>(b) / static_cast<double>(buckets_) *
                       static_cast<double>(sorted.size() - 1);
    const auto idx = static_cast<size_t>(pos);
    const double frac = pos - std::floor(pos);
    const double value = sorted[idx] * (1.0 - frac) +
                         sorted[std::min(idx + 1, sorted.size() - 1)] * frac;
    boundaries_[static_cast<size_t>(b)] = value;
  }
  // Boundaries must be non-decreasing even for highly skewed data.
  for (size_t i = 1; i < boundaries_.size(); ++i) {
    boundaries_[i] = std::max(boundaries_[i], boundaries_[i - 1]);
  }
  built_at_count_ = values_.size();
}

double EquiDepthHistogram::CdfAt(double x) const {
  if (x <= boundaries_.front()) return 0.0;
  if (x >= boundaries_.back()) return 1.0;
  const auto it = std::upper_bound(boundaries_.begin(), boundaries_.end(), x);
  const size_t bucket = static_cast<size_t>(it - boundaries_.begin()) - 1;
  const double bucket_lo = boundaries_[bucket];
  const double bucket_hi = boundaries_[bucket + 1];
  const double mass_per_bucket = 1.0 / static_cast<double>(buckets_);
  const double within =
      bucket_hi > bucket_lo ? (x - bucket_lo) / (bucket_hi - bucket_lo) : 1.0;
  return mass_per_bucket * (static_cast<double>(bucket) + within);
}

double EquiDepthHistogram::EstimateRangeImpl(double a, double b) const {
  if (values_.empty()) return 0.0;
  RebuildIfStale();
  return CdfAt(b) - CdfAt(a);
}

void EquiDepthHistogram::AnswerImpl(std::span<const Query> queries,
                                    std::span<double> out) const {
  if (values_.empty()) {
    for (size_t i = 0; i < queries.size(); ++i) out[i] = AnswerOne(queries[i]);
    return;
  }
  RebuildIfStale();
  for (size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    switch (q.kind) {
      case QueryKind::kLess:
      case QueryKind::kCdf:
        // One CdfAt. Bit-identical to CdfAt(x) - CdfAt(-inf): the -inf
        // endpoint falls below the first boundary, where CdfAt is exactly 0.
        out[i] = CdfAt(q.a);
        break;
      default:
        out[i] = AnswerOne(q);
        break;
    }
  }
}

std::string EquiDepthHistogram::name() const {
  return Format("equi-depth(%d)", buckets_);
}

std::unique_ptr<SelectivityEstimator> EquiDepthHistogram::CloneEmpty() const {
  return std::make_unique<EquiDepthHistogram>(lo_, hi_, buckets_, refit_mode_);
}

Status EquiDepthHistogram::MergeFrom(const SelectivityEstimator& other) {
  Status peer = CheckMergePeer(other);
  if (!peer.ok()) return peer;
  const auto& rhs = static_cast<const EquiDepthHistogram&>(other);
  if (lo_ != rhs.lo_ || hi_ != rhs.hi_ || buckets_ != rhs.buckets_) {
    return Status::FailedPrecondition("MergeFrom: " + name() +
                                      " domain/bucket mismatch with " +
                                      rhs.name());
  }
  // The sorted shadow survives: it mirrors the immutable prefix
  // values_[0..sorted_.size()), which appends never disturb.
  values_.insert(values_.end(), rhs.values_.begin(), rhs.values_.end());
  boundaries_.clear();  // stale; rebuilt (sorted) at the next query
  built_at_count_ = 0;
  return Status::OK();
}

Status EquiDepthHistogram::MergeTailFrom(const SelectivityEstimator& other,
                                         size_t from_count) {
  Status peer = CheckMergePeer(other);
  if (!peer.ok()) return peer;
  const auto& rhs = static_cast<const EquiDepthHistogram&>(other);
  if (lo_ != rhs.lo_ || hi_ != rhs.hi_ || buckets_ != rhs.buckets_) {
    return Status::FailedPrecondition("MergeTailFrom: " + name() +
                                      " domain/bucket mismatch with " +
                                      rhs.name());
  }
  if (from_count > rhs.values_.size()) {
    return Status::InvalidArgument("MergeTailFrom: from_count past peer count");
  }
  // Append only the peer's tail; the boundary cache goes stale through the
  // ordinary count check and the next rebuild delta-merges the delta.
  values_.insert(values_.end(),
                 rhs.values_.begin() + static_cast<ptrdiff_t>(from_count),
                 rhs.values_.end());
  return Status::OK();
}

Status EquiDepthHistogram::SaveStateImpl(io::Sink& sink) const {
  WDE_RETURN_IF_ERROR(io::WriteDouble(sink, lo_));
  WDE_RETURN_IF_ERROR(io::WriteDouble(sink, hi_));
  WDE_RETURN_IF_ERROR(io::WriteI32(sink, buckets_));
  return io::WriteDoubleVector(sink, values_);
}

Status EquiDepthHistogram::LoadStateImpl(io::Source& source) {
  WDE_ASSIGN_OR_RETURN(const double lo, io::ReadDouble(source));
  WDE_ASSIGN_OR_RETURN(const double hi, io::ReadDouble(source));
  WDE_ASSIGN_OR_RETURN(const int32_t buckets, io::ReadI32(source));
  WDE_ASSIGN_OR_RETURN(std::vector<double> values, io::ReadDoubleVector(source));
  // The bucket cap mirrors equi-width's cell cap: RebuildIfStale allocates
  // buckets + 1 boundaries, so an unbounded hostile count would turn into a
  // multi-GB allocation at the first query instead of an error here.
  if (!std::isfinite(lo) || !std::isfinite(hi) || !(lo < hi) || buckets <= 0 ||
      buckets > (1 << 26) || source.remaining() != 0) {
    return Status::InvalidArgument("corrupt equi-depth snapshot");
  }
  // Insert clamps into [lo, hi] and drops non-finite values, so a value
  // outside the domain (NaN included) was never inserted.
  for (double x : values) {
    if (!(x >= lo && x <= hi)) {
      return Status::InvalidArgument(
          "corrupt equi-depth snapshot: value outside the domain");
    }
  }
  lo_ = lo;
  hi_ = hi;
  buckets_ = buckets;
  values_ = std::move(values);
  sorted_.clear();  // rebuilt (one full sort) at the first post-restore query
  boundaries_.clear();
  built_at_count_ = 0;
  return Status::OK();
}

}  // namespace selectivity
}  // namespace wde
