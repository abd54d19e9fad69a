#include "selectivity/kde_selectivity.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "kernel/bandwidth.hpp"
#include "memory/fast_state.hpp"

namespace wde {
namespace selectivity {
namespace {

// The rule-of-thumb Epanechnikov KDE over an ascending buffer, which it
// adopts as its sample storage. The bandwidth comes from sorted order
// statistics in O(1), so it is bitwise-reproducible from the sorted multiset
// alone (insertion order never enters).
std::optional<kernel::KernelDensityEstimator> FitSorted(
    std::shared_ptr<std::vector<double>> buffer) {
  const double bandwidth = kernel::RuleOfThumbBandwidthSorted(*buffer);
  const std::span<const double> sorted(buffer->data(), buffer->size());
  Result<kernel::KernelDensityEstimator> kde =
      kernel::KernelDensityEstimator::FromSorted(
          kernel::Kernel(kernel::KernelType::kEpanechnikov), bandwidth, sorted,
          std::move(buffer));
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
  // Every refit builds a NEW owned buffer: the previous fitted buffer may be
  // shared with CloneForView copies (published serving views) or borrowed
  // zero-copy from a snapshot arena, so it must never be mutated in place.
  auto buffer = std::make_shared<std::vector<double>>();
  buffer->reserve(values_.size());
  const bool incremental = options_.refit_mode == RefitMode::kIncremental &&
                           kde_.has_value() &&
                           kde_->samples().size() == fitted_at_count_ &&
                           fitted_at_count_ <= values_.size();
  if (incremental) {
    // The previous fitted buffer is the sorted permutation of
    // values_[0..fitted_at_count_) (the buffer only ever appends): copy it,
    // append the unfitted tail, sort only the tail, one stable merge.
    // O(Δ log Δ + n) instead of O(n log n), identical sorted sequence.
    const std::span<const double> prev = kde_->samples();
    buffer->assign(prev.begin(), prev.end());
    buffer->insert(buffer->end(), values_.begin() + prev.size(), values_.end());
    const auto mid = buffer->begin() + static_cast<ptrdiff_t>(prev.size());
    std::sort(mid, buffer->end());
    std::inplace_merge(buffer->begin(), mid, buffer->end());
  } else {
    buffer->assign(values_.begin(), values_.end());
    std::sort(buffer->begin(), buffer->end());
  }
  std::optional<kernel::KernelDensityEstimator> kde = FitSorted(std::move(buffer));
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
  WDE_RETURN_IF_ERROR(io::WriteDoubleVector(sink, Values()));
  // Format v2 tail: the retired tree-evaluation tolerance, always 0.0 (every
  // answer is exact now); v1 payloads simply end at the vector.
  return io::WriteDouble(sink, 0.0);
}

Status KdeSelectivity::LoadStateImpl(io::Source& source) {
  Options options;
  WDE_ASSIGN_OR_RETURN(options.domain_lo, io::ReadDouble(source));
  WDE_ASSIGN_OR_RETURN(options.domain_hi, io::ReadDouble(source));
  WDE_ASSIGN_OR_RETURN(options.refit_interval, io::ReadU64(source));
  WDE_ASSIGN_OR_RETURN(const uint64_t fitted_at_count, io::ReadU64(source));
  WDE_ASSIGN_OR_RETURN(std::vector<double> values, io::ReadDoubleVector(source));
  double tolerance = 0.0;  // v2 tail; absent in v1 payloads
  if (source.remaining() != 0) {
    WDE_ASSIGN_OR_RETURN(tolerance, io::ReadDouble(source));
  }
  // The retired tolerance is validated, then ignored: snapshots saved with a
  // positive tolerance restore as exact.
  if (!std::isfinite(options.domain_lo) || !std::isfinite(options.domain_hi) ||
      !(options.domain_lo < options.domain_hi) || options.refit_interval == 0 ||
      !std::isfinite(tolerance) || tolerance < 0.0 ||
      fitted_at_count > values.size() || source.remaining() != 0) {
    return Status::InvalidArgument("corrupt kde snapshot");
  }
  options.refit_mode = options_.refit_mode;  // pacing knob, never serialized
  options_ = options;
  values_ = std::move(values);
  sorted_view_ = false;
  kde_.reset();
  fitted_at_count_ = 0;
  // Refit from the prefix the saved estimator had fitted on (the buffer only
  // ever appends), reproducing its cached KDE — bandwidth and all — exactly:
  // sort the prefix and run the same sorted-order-statistics recipe the live
  // refit uses, so even the degenerate StdDev fallback sums in the same
  // (sorted) order and the restored bandwidth is bit-exact.
  if (fitted_at_count >= 4) {
    auto buffer = std::make_shared<std::vector<double>>(
        values_.begin(), values_.begin() + static_cast<ptrdiff_t>(fitted_at_count));
    std::sort(buffer->begin(), buffer->end());
    kde_ = FitSorted(std::move(buffer));
    if (kde_.has_value()) fitted_at_count_ = static_cast<size_t>(fitted_at_count);
  }
  return Status::OK();
}

Status KdeSelectivity::SaveFastStateImpl(memory::FastStateWriter& writer) const {
  WDE_RETURN_IF_ERROR(io::WriteDouble(writer.head(), options_.domain_lo));
  WDE_RETURN_IF_ERROR(io::WriteDouble(writer.head(), options_.domain_hi));
  WDE_RETURN_IF_ERROR(io::WriteU64(writer.head(), options_.refit_interval));
  WDE_RETURN_IF_ERROR(io::WriteDouble(writer.head(), 0.0));  // see SaveStateImpl
  WDE_RETURN_IF_ERROR(io::WriteU64(writer.head(), fitted_at_count_));
  WDE_RETURN_IF_ERROR(io::WriteU64(writer.head(), count()));
  const bool has_kde = kde_.has_value();
  WDE_RETURN_IF_ERROR(io::WriteU8(writer.head(), has_kde ? 1 : 0));
  writer.AddF64(Values());
  if (has_kde) {
    // The already-sorted fitted buffer plus its bandwidth: restore adopts
    // both verbatim instead of re-sorting and re-deriving.
    WDE_RETURN_IF_ERROR(io::WriteDouble(writer.head(), kde_->bandwidth()));
    writer.AddF64(kde_->samples());
  }
  return Status::OK();
}

Status KdeSelectivity::LoadFastStateImpl(memory::FastStateReader& reader) {
  Options options;
  WDE_ASSIGN_OR_RETURN(options.domain_lo, io::ReadDouble(reader.head()));
  WDE_ASSIGN_OR_RETURN(options.domain_hi, io::ReadDouble(reader.head()));
  WDE_ASSIGN_OR_RETURN(options.refit_interval, io::ReadU64(reader.head()));
  WDE_ASSIGN_OR_RETURN(const double tolerance, io::ReadDouble(reader.head()));
  WDE_ASSIGN_OR_RETURN(const uint64_t fitted_at, io::ReadU64(reader.head()));
  WDE_ASSIGN_OR_RETURN(const uint64_t n_values, io::ReadU64(reader.head()));
  WDE_ASSIGN_OR_RETURN(const uint8_t has_kde, io::ReadU8(reader.head()));
  double bandwidth = 0.0;
  if (has_kde == 1) {
    WDE_ASSIGN_OR_RETURN(bandwidth, io::ReadDouble(reader.head()));
  }
  std::vector<memory::ColumnSpec> expected = {
      {memory::ColumnKind::kF64, static_cast<size_t>(n_values)}};
  if (has_kde == 1) {
    expected.push_back({memory::ColumnKind::kF64, static_cast<size_t>(fitted_at)});
  }
  // The retired tolerance is validated, then ignored (see LoadStateImpl).
  if (!std::isfinite(options.domain_lo) || !std::isfinite(options.domain_hi) ||
      !(options.domain_lo < options.domain_hi) || options.refit_interval == 0 ||
      !std::isfinite(tolerance) || tolerance < 0.0 ||
      has_kde > 1 || fitted_at > n_values ||
      (has_kde == 1 && !(std::isfinite(bandwidth) && bandwidth > 0.0)) ||
      reader.head().remaining() != 0 ||
      !memory::ColumnsMatch(reader.arena(), expected)) {
    return Status::InvalidArgument("corrupt kde fast state");
  }
  std::optional<kernel::KernelDensityEstimator> kde;
  if (has_kde == 1) {
    // FromSorted verifies ascending order in O(n) — the only scan the fast
    // restore pays — and borrows the column zero-copy; the arena's storage
    // keepalive anchors the bytes whether they live in an mmapped image or
    // in the reader's own heap copy.
    WDE_ASSIGN_OR_RETURN(
        kde, kernel::KernelDensityEstimator::FromSorted(
                 kernel::Kernel(kernel::KernelType::kEpanechnikov), bandwidth,
                 reader.arena().F64(1), reader.arena().storage_keepalive()));
  }
  const std::span<const double> values = reader.arena().F64(0);
  options.refit_mode = options_.refit_mode;  // pacing knob, never serialized
  options_ = options;
  values_.assign(values.begin(), values.end());
  sorted_view_ = false;
  kde_ = std::move(kde);
  fitted_at_count_ = kde_.has_value() ? static_cast<size_t>(fitted_at) : 0;
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
