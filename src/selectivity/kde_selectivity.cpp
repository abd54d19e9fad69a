#include "selectivity/kde_selectivity.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "kernel/bandwidth.hpp"
#include "memory/arena.hpp"
#include "selectivity/sorted_prefix.hpp"

namespace wde {
namespace selectivity {
namespace {

// The rule-of-thumb Epanechnikov KDE over an ascending column, which it
// adopts as its sample storage. The bandwidth comes from sorted order
// statistics in O(1), so it is bitwise-reproducible from the sorted multiset
// alone (insertion order never enters). A sample without spread (all values
// equal) has no bandwidth: no fit. Neither has a restored column that is not
// ascending: its bandwidth may come out 0 or non-finite, and AdoptSorted
// rejects that and the order alike.
std::optional<kernel::KernelDensityEstimator> FitSorted(memory::Arena sorted) {
  if (sorted.F64(0).front() == sorted.F64(0).back()) return std::nullopt;
  const double bandwidth =
      kernel::internal::RuleOfThumbBandwidthSortedOrZero(sorted.F64(0));
  Result<kernel::KernelDensityEstimator> kde =
      kernel::KernelDensityEstimator::AdoptSorted(
          kernel::Kernel(kernel::KernelType::kEpanechnikov), bandwidth,
          std::move(sorted));
  if (!kde.ok()) return std::nullopt;
  return std::move(kde).value();
}

}  // namespace

void KdeSelectivity::Insert(double x) {
  if (!std::isfinite(x)) return;
  tail_.push_back(std::clamp(x, options_.domain_lo, options_.domain_hi));
}

void KdeSelectivity::InsertBatch(std::span<const double> xs) {
  // No exact-fit reserve: amortized vector growth beats a
  // reallocate-per-chunk pattern under repeated batch ingestion.
  for (double x : xs) {
    if (!std::isfinite(x)) continue;
    tail_.push_back(std::clamp(x, options_.domain_lo, options_.domain_hi));
  }
}

void KdeSelectivity::RefitIfStale() const {
  if (count() < 4) return;
  // Without a fit, any new value is worth a retry; a sample that could not
  // fit is not retried until one arrives.
  const bool unfitted_tail = !kde_.has_value() && !tail_.empty();
  if (unfitted_tail || tail_.size() >= options_.refit_interval) Refit();
  // The first query of any kind primes the CDF index, so a batch fanned out
  // across threads after one warm-up query only reads it.
  if (kde_.has_value()) kde_->PrepareCdf();
}

void KdeSelectivity::ForceRefitImpl() const {
  if (count() < 4 || tail_.empty()) return;
  Refit();
}

std::unique_ptr<SelectivityEstimator> KdeSelectivity::CloneForView() const {
  ForceRefit();
  return std::make_unique<KdeSelectivity>(*this);
}

void KdeSelectivity::Refit() const {
  memory::Arena sorted = FoldSortedTail(Prefix(), tail_);
  std::optional<kernel::KernelDensityEstimator> kde = FitSorted(sorted);
  if (kde.has_value()) {
    kde_ = std::move(kde);
    unfit_ = memory::Arena();
  } else if (!kde_.has_value()) {
    unfit_ = std::move(sorted);  // no spread: the fold is the prefix
  } else {
    return;  // unfittable after a fit: keep the previous fit and tail
  }
  tail_ = std::vector<double>();  // release it: the prefix holds the values now
}

double KdeSelectivity::EstimateRangeImpl(double a, double b) const {
  RefitIfStale();
  if (!kde_.has_value()) {
    // Tiny-sample and no-spread fallback: the exact fraction of the
    // observations, counted in O(log n) over the (unfitted) sorted prefix.
    if (count() == 0) return 0.0;
    const std::span<const double> prefix = Prefix();
    const auto lo = std::lower_bound(prefix.begin(), prefix.end(), a);
    auto hits = static_cast<size_t>(std::upper_bound(lo, prefix.end(), b) - lo);
    for (double x : tail_) {
      if (x >= a && x <= b) ++hits;
    }
    return static_cast<double>(hits) / static_cast<double>(count());
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
  // Both sides' observations go into the tail and the fit is dropped: the
  // next query refits from the merged multiset (or falls back to the exact
  // fraction if that refit fails).
  const std::span<const double> own = Prefix();
  tail_.insert(tail_.begin(), own.begin(), own.end());
  kde_.reset();
  unfit_ = memory::Arena();
  const std::span<const double> incoming = rhs.Prefix();
  tail_.insert(tail_.end(), incoming.begin(), incoming.end());
  tail_.insert(tail_.end(), rhs.tail_.begin(), rhs.tail_.end());
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
  // Stream positions exist only in the peer's tail; its fitted prefix is
  // sorted. A peer refit past from_count (a view, say) cannot serve it.
  const size_t fitted = rhs.Prefix().size();
  if (from_count < fitted) {
    return Status::FailedPrecondition(
        "MergeTailFrom: from_count inside the peer's fitted prefix");
  }
  if (from_count > rhs.count()) {
    return Status::InvalidArgument("MergeTailFrom: from_count past peer count");
  }
  // Append only the peer's tail; the fitted KDE stays (stale) so the next
  // refit delta-merges instead of rebuilding.
  const auto skip = static_cast<ptrdiff_t>(from_count - fitted);
  tail_.insert(tail_.end(), rhs.tail_.begin() + skip, rhs.tail_.end());
  return Status::OK();
}

Status KdeSelectivity::SaveStateImpl(io::Sink& sink) const {
  WDE_RETURN_IF_ERROR(io::WriteDouble(sink, options_.domain_lo));
  WDE_RETURN_IF_ERROR(io::WriteDouble(sink, options_.domain_hi));
  WDE_RETURN_IF_ERROR(io::WriteU64(sink, options_.refit_interval));
  // The in-memory layout as is: the fitted prefix size, then one vector of
  // the sorted prefix followed by the tail in arrival order. An unfitted
  // prefix is saved as tail (fitted size 0): restore refits only a prefix.
  const std::span<const double> prefix = Prefix();
  WDE_RETURN_IF_ERROR(io::WriteU64(sink, kde_.has_value() ? prefix.size() : 0));
  WDE_RETURN_IF_ERROR(io::WriteU64(sink, prefix.size() + tail_.size()));
  WDE_RETURN_IF_ERROR(io::WriteDoubles(sink, prefix));
  return io::WriteDoubles(sink, tail_);
}

Status KdeSelectivity::LoadStateImpl(io::Source& source) {
  Options options;
  WDE_ASSIGN_OR_RETURN(options.domain_lo, io::ReadDouble(source));
  WDE_ASSIGN_OR_RETURN(options.domain_hi, io::ReadDouble(source));
  WDE_ASSIGN_OR_RETURN(options.refit_interval, io::ReadU64(source));
  WDE_ASSIGN_OR_RETURN(const uint64_t fitted, io::ReadU64(source));
  WDE_ASSIGN_OR_RETURN(const uint64_t total, io::ReadU64(source));
  // A live estimator fits only at four or more values, so a fitted prefix
  // of one to three values is corrupt. The vector must fill the rest of the
  // payload exactly, which is checked before anything is allocated.
  if (!internal::IsDomain(options.domain_lo, options.domain_hi) ||
      options.refit_interval == 0 || total != source.remaining() / sizeof(double) ||
      source.remaining() % sizeof(double) != 0 || fitted > total ||
      (fitted > 0 && fitted < 4)) {
    return Status::InvalidArgument("corrupt kde snapshot");
  }
  // The prefix goes straight into the sample column, which the read fills
  // whole, the rest into the tail.
  const memory::ColumnSpec spec[] = {{memory::ColumnKind::kF64, fitted}};
  memory::Arena column = memory::Arena::CreateForOverwrite(spec);
  std::vector<double> tail(static_cast<size_t>(total - fitted));
  WDE_RETURN_IF_ERROR(io::ReadDoubles(source, column.MutableF64(0)));
  WDE_RETURN_IF_ERROR(io::ReadDoubles(source, tail));
  // Insert clamps into the domain and drops non-finite values, so a value
  // outside [domain_lo, domain_hi] (NaN included) was never inserted.
  const auto in_domain = [&options](double x) {
    return x >= options.domain_lo && x <= options.domain_hi;
  };
  // The prefix is checked at its two ends only: AdoptSorted then proves it
  // ascending, with comparisons that fail on NaN, in the sweep that builds
  // its index, so every value lies between two values inside the domain.
  const std::span<const double> prefix = column.F64(0);
  if (!std::ranges::all_of(tail, in_domain) ||
      (fitted > 0 && (!in_domain(prefix.front()) || !in_domain(prefix.back())))) {
    return Status::InvalidArgument("corrupt kde snapshot: value outside the domain");
  }
  // Refit on the saved sorted prefix without sorting, reproducing the saved
  // estimator's KDE — bandwidth and all — exactly (the sorted-order-statistics
  // recipe the live refit uses).
  std::optional<kernel::KernelDensityEstimator> kde;
  if (fitted > 0) {
    kde = FitSorted(std::move(column));
    if (!kde.has_value()) {
      return Status::InvalidArgument(
          "corrupt kde snapshot: unfittable or unsorted sample");
    }
  }
  options_ = options;
  tail_ = std::move(tail);
  kde_ = std::move(kde);
  unfit_ = memory::Arena();
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
        const Interval r = LowerToRange(q);
        out[i] = std::clamp(kde_->CdfAt(r.hi) - kde_->CdfAt(r.lo), 0.0, 1.0);
        break;
      }
    }
  }
}

}  // namespace selectivity
}  // namespace wde
