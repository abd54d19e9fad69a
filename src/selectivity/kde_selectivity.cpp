#include "selectivity/kde_selectivity.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "kernel/bandwidth.hpp"
#include "memory/arena.hpp"

namespace wde {
namespace selectivity {
namespace {

// A one-column arena for n samples, filled by the caller.
memory::Arena SampleColumn(size_t n) {
  const memory::ColumnSpec specs[] = {{memory::ColumnKind::kF64, n}};
  return memory::Arena::Create(specs);
}

// The rule-of-thumb Epanechnikov KDE over an ascending column, which it
// adopts as its sample storage. The bandwidth comes from sorted order
// statistics in O(1), so it is bitwise-reproducible from the sorted multiset
// alone (insertion order never enters).
std::optional<kernel::KernelDensityEstimator> FitSorted(memory::Arena sorted) {
  const double bandwidth = kernel::RuleOfThumbBandwidthSorted(sorted.F64(0));
  Result<kernel::KernelDensityEstimator> kde =
      kernel::KernelDensityEstimator::AdoptSorted(
          kernel::Kernel(kernel::KernelType::kEpanechnikov), bandwidth,
          std::move(sorted));
  if (!kde.ok()) return std::nullopt;
  return std::move(kde).value();
}

}  // namespace

void KdeSelectivity::MaterializeValues() {
  if (!sorted_view_) return;
  const std::span<const double> sorted = kde_->samples();
  values_.assign(sorted.begin(), sorted.end());
  sorted_view_ = false;
}

void KdeSelectivity::Insert(double x) {
  if (!std::isfinite(x)) return;
  MaterializeValues();
  values_.push_back(std::clamp(x, options_.domain_lo, options_.domain_hi));
}

void KdeSelectivity::InsertBatch(std::span<const double> xs) {
  if (xs.empty()) return;
  MaterializeValues();
  // No exact-fit reserve: amortized vector growth beats a
  // reallocate-per-chunk pattern under repeated batch ingestion.
  for (double x : xs) {
    if (!std::isfinite(x)) continue;
    values_.push_back(std::clamp(x, options_.domain_lo, options_.domain_hi));
  }
}

void KdeSelectivity::RefitIfStale() const {
  if (count() < 4) return;
  // A view is fitted at its full count, so it never reaches Refit().
  if (!kde_.has_value() || count() - fitted_at_count_ >= options_.refit_interval) {
    Refit();
  }
  // The first query of any kind primes the CDF index, so a batch fanned out
  // across threads after one warm-up query only reads it.
  if (kde_.has_value()) kde_->PrepareCdf();
}

void KdeSelectivity::ForceRefitImpl() const {
  if (count() < 4) return;
  if (kde_.has_value() && fitted_at_count_ == count()) return;
  Refit();
}

std::unique_ptr<SelectivityEstimator> KdeSelectivity::CloneForView() const {
  ForceRefit();
  if (!kde_.has_value() || fitted_at_count_ != count()) {
    return std::make_unique<KdeSelectivity>(*this);  // nothing fitted
  }
  auto view = std::make_unique<KdeSelectivity>(options_);
  view->kde_ = kde_;
  view->fitted_at_count_ = fitted_at_count_;
  view->sorted_view_ = true;
  return view;
}

void KdeSelectivity::Refit() const {
  // Every refit builds a NEW sample column: the previous fitted column may be
  // shared with CloneForView copies (published serving views), so it must
  // never be mutated in place.
  memory::Arena column = SampleColumn(values_.size());
  const std::span<double> buffer = column.MutableF64(0);
  const bool incremental = options_.refit_mode == RefitMode::kIncremental &&
                           kde_.has_value() &&
                           kde_->samples().size() == fitted_at_count_ &&
                           fitted_at_count_ <= values_.size();
  if (incremental) {
    // The previous fitted column is the sorted permutation of
    // values_[0..fitted_at_count_) (the buffer only ever appends): copy it,
    // append the unfitted tail, sort only the tail, one stable merge.
    // O(Δ log Δ + n) instead of O(n log n), identical sorted sequence.
    const std::span<const double> prev = kde_->samples();
    const auto mid = std::copy(prev.begin(), prev.end(), buffer.begin());
    std::copy(values_.begin() + static_cast<ptrdiff_t>(prev.size()), values_.end(), mid);
    std::sort(mid, buffer.end());
    std::inplace_merge(buffer.begin(), mid, buffer.end());
  } else {
    std::copy(values_.begin(), values_.end(), buffer.begin());
    std::sort(buffer.begin(), buffer.end());
  }
  std::optional<kernel::KernelDensityEstimator> kde = FitSorted(std::move(column));
  if (kde.has_value()) {
    kde_ = std::move(kde);
    fitted_at_count_ = values_.size();
  }
}

double KdeSelectivity::EstimateRangeImpl(double a, double b) const {
  RefitIfStale();
  if (!kde_.has_value()) {
    // Tiny-sample fallback: exact fraction of buffered values.
    if (values_.empty()) return 0.0;
    size_t hits = 0;
    for (double x : values_) {
      if (x >= a && x <= b) ++hits;
    }
    return static_cast<double>(hits) / static_cast<double>(values_.size());
  }
  if (a == -std::numeric_limits<double>::infinity()) {
    // The Less/Cdf lowering: one kernel-CDF endpoint.
    return std::clamp(kde_->CdfAt(b), 0.0, 1.0);
  }
  // CDF difference instead of the O(n) per-sample IntegrateRange sum: each
  // endpoint is O(log n + 64); the batch path below uses the identical
  // expression.
  return std::clamp(kde_->CdfAt(b) - kde_->CdfAt(a), 0.0, 1.0);
}

std::unique_ptr<SelectivityEstimator> KdeSelectivity::CloneEmpty() const {
  return std::make_unique<KdeSelectivity>(options_);
}

Status KdeSelectivity::MergeFrom(const SelectivityEstimator& other) {
  Status peer = CheckMergePeer(other);
  if (!peer.ok()) return peer;
  const auto& rhs = static_cast<const KdeSelectivity&>(other);
  // refit_interval paces only the owner's staleness and is deliberately not
  // checked (same rationale as the wavelet sketch's MergeFrom).
  if (options_.domain_lo != rhs.options_.domain_lo ||
      options_.domain_hi != rhs.options_.domain_hi) {
    return Status::FailedPrecondition("MergeFrom: kde options mismatch");
  }
  MaterializeValues();
  const std::span<const double> incoming = rhs.Values();
  values_.insert(values_.end(), incoming.begin(), incoming.end());
  kde_.reset();  // refit from the merged buffer at the next query
  fitted_at_count_ = 0;
  return Status::OK();
}

Status KdeSelectivity::MergeTailFrom(const SelectivityEstimator& other,
                                     size_t from_count) {
  Status peer = CheckMergePeer(other);
  if (!peer.ok()) return peer;
  const auto& rhs = static_cast<const KdeSelectivity&>(other);
  if (options_.domain_lo != rhs.options_.domain_lo ||
      options_.domain_hi != rhs.options_.domain_hi) {
    return Status::FailedPrecondition("MergeTailFrom: kde options mismatch");
  }
  if (rhs.sorted_view_) {
    return Status::FailedPrecondition(
        "MergeTailFrom: peer is a sorted view without stream positions");
  }
  if (from_count > rhs.values_.size()) {
    return Status::InvalidArgument("MergeTailFrom: from_count past peer count");
  }
  // Append only the peer's tail; the fitted KDE stays (stale) so the next
  // refit delta-merges instead of rebuilding.
  MaterializeValues();
  values_.insert(values_.end(), rhs.values_.begin() + static_cast<ptrdiff_t>(from_count),
                 rhs.values_.end());
  return Status::OK();
}

Status KdeSelectivity::SaveStateImpl(io::Sink& sink) const {
  WDE_RETURN_IF_ERROR(io::WriteDouble(sink, options_.domain_lo));
  WDE_RETURN_IF_ERROR(io::WriteDouble(sink, options_.domain_hi));
  WDE_RETURN_IF_ERROR(io::WriteU64(sink, options_.refit_interval));
  WDE_RETURN_IF_ERROR(io::WriteU64(sink, fitted_at_count_));
  // One vector: the fitted sorted sample (a permutation of the first
  // fitted_at_count_ observations), then the unfitted tail in stream order.
  // Restore adopts the sorted prefix as is, so it never re-sorts.
  const std::span<const double> fitted =
      kde_.has_value() ? kde_->samples() : std::span<const double>();
  const std::span<const double> tail = Values().subspan(fitted.size());
  WDE_RETURN_IF_ERROR(io::WriteU64(sink, fitted.size() + tail.size()));
  WDE_RETURN_IF_ERROR(io::WriteDoubles(sink, fitted));
  return io::WriteDoubles(sink, tail);
}

Status KdeSelectivity::LoadStateImpl(io::Source& source) {
  Options options;
  WDE_ASSIGN_OR_RETURN(options.domain_lo, io::ReadDouble(source));
  WDE_ASSIGN_OR_RETURN(options.domain_hi, io::ReadDouble(source));
  WDE_ASSIGN_OR_RETURN(options.refit_interval, io::ReadU64(source));
  WDE_ASSIGN_OR_RETURN(const uint64_t fitted_at, io::ReadU64(source));
  WDE_ASSIGN_OR_RETURN(std::vector<double> values, io::ReadDoubleVector(source));
  // A live estimator fits only at four or more values, so a fitted prefix
  // of one to three values is corrupt.
  if (!std::isfinite(options.domain_lo) || !std::isfinite(options.domain_hi) ||
      !(options.domain_lo < options.domain_hi) || options.refit_interval == 0 ||
      fitted_at > values.size() || (fitted_at > 0 && fitted_at < 4) ||
      source.remaining() != 0) {
    return Status::InvalidArgument("corrupt kde snapshot");
  }
  // Insert clamps into the domain and drops non-finite values, so a value
  // outside [domain_lo, domain_hi] (NaN included) was never inserted.
  for (double x : values) {
    if (!(x >= options.domain_lo && x <= options.domain_hi)) {
      return Status::InvalidArgument("corrupt kde snapshot: value outside the domain");
    }
  }
  // Refit on the saved sorted prefix without sorting, reproducing the saved
  // estimator's KDE — bandwidth and all — exactly (the sorted-order-statistics
  // recipe the live refit uses). AdoptSorted rejects a prefix out of order.
  std::optional<kernel::KernelDensityEstimator> kde;
  if (fitted_at > 0) {
    memory::Arena column = SampleColumn(static_cast<size_t>(fitted_at));
    std::copy(values.begin(), values.begin() + static_cast<ptrdiff_t>(fitted_at),
              column.MutableF64(0).begin());
    kde = FitSorted(std::move(column));
    if (!kde.has_value()) {
      return Status::InvalidArgument("corrupt kde snapshot: unfittable sample");
    }
  }
  options.refit_mode = options_.refit_mode;  // pacing knob, never serialized
  options_ = options;
  values_ = std::move(values);
  sorted_view_ = false;
  kde_ = std::move(kde);
  fitted_at_count_ = static_cast<size_t>(fitted_at);
  return Status::OK();
}

void KdeSelectivity::AnswerImpl(std::span<const Query> queries,
                               std::span<double> out) const {
  // The public wrapper guarantees matched spans, a non-empty batch and
  // normalized queries.
  RefitIfStale();  // no inserts between queries: staleness is checked once
  if (!kde_.has_value()) {
    // Tiny-sample fallback, matching the scalar lowering per query.
    for (size_t i = 0; i < queries.size(); ++i) out[i] = AnswerOne(queries[i]);
    return;
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    switch (q.kind) {
      case QueryKind::kLess:
      case QueryKind::kCdf:
        out[i] = std::clamp(kde_->CdfAt(q.a), 0.0, 1.0);
        break;
      case QueryKind::kQuantile:
        out[i] = QuantileByBisection(q.a);
        break;
      case QueryKind::kRect:
      case QueryKind::kMarginal:
      case QueryKind::kConditional:
        // No range lowering exists for these; the shared multi-dim dispatch
        // (0.0 / axis-0 marginal for this 1-D estimator) is the contract.
        out[i] = AnswerOne(q);
        break;
      default: {
        const RangeQuery r = LowerToRange(q);
        out[i] = std::clamp(kde_->CdfAt(r.hi) - kde_->CdfAt(r.lo), 0.0, 1.0);
        break;
      }
    }
  }
}

}  // namespace selectivity
}  // namespace wde
