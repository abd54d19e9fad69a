#include "selectivity/kde2d_selectivity.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "kernel/bandwidth.hpp"
#include "multidim/prod_kde2d.hpp"
#include "util/check.hpp"

namespace wde {
namespace selectivity {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Below this many observations the exact-fraction fallback answers (the
/// same threshold as the 1-D KDE's refit guard).
constexpr size_t kMinFitSample = 4;
/// Pilot grid resolution for the adaptive factors: 32 × 32.
constexpr int kPilotLog2 = 5;
/// Least-squares CV runs on at most this many evenly strided sorted points;
/// the result rescales to the full sample by (m/n)^{1/5}.
constexpr size_t kCvSubsampleCap = 512;

/// CV-refined bandwidth off an ascending-sorted coordinate array: LSCV over
/// an evenly strided subsample (deterministic indices (j·n)/m, ascending,
/// so the subsample is itself sorted), rescaled by the n^{-1/5} bandwidth
/// law. Falls back to `rot` when the CV answer degenerates.
double CvRefinedBandwidth(const kernel::Kernel& kernel,
                          std::span<const double> sorted, double rot) {
  const size_t n = sorted.size();
  const size_t m = std::min(n, kCvSubsampleCap);
  std::vector<double> sub(m);
  for (size_t j = 0; j < m; ++j) sub[j] = sorted[j * n / m];
  const double cv = kernel::LeastSquaresCvBandwidth(kernel, sub);
  if (!std::isfinite(cv) || !(cv > 0.0)) return rot;
  return cv * std::pow(static_cast<double>(m) / static_cast<double>(n), 0.2);
}

}  // namespace

Kde2dSelectivity::Kde2dSelectivity(const Options& options)
    : options_(options), kernel_(kernel::KernelType::kEpanechnikov) {
  WDE_CHECK_LT(options.domain_lo0, options.domain_hi0);
  WDE_CHECK_LT(options.domain_lo1, options.domain_hi1);
  WDE_CHECK_GT(options.refit_interval, 0u);
}

void Kde2dSelectivity::Insert(double x) {
  if (!have_pending_) {
    // First coordinate: buffer raw — even non-finite, or the interleave
    // parity would shift and pair later coordinates wrongly.
    pending_ = x;
    have_pending_ = true;
    return;
  }
  const double px = pending_;
  have_pending_ = false;
  if (!std::isfinite(px) || !std::isfinite(x)) return;  // drop the whole point
  xs_.push_back(std::clamp(px, options_.domain_lo0, options_.domain_hi0));
  ys_.push_back(std::clamp(x, options_.domain_lo1, options_.domain_hi1));
}

void Kde2dSelectivity::RefitIfStale() const {
  if (count() < kMinFitSample || count() == unfit_count_) return;
  if (fitted_.has_value() && xs_.size() < options_.refit_interval) return;
  Refit();
}

void Kde2dSelectivity::ForceRefitImpl() const {
  if (count() < kMinFitSample || count() == unfit_count_) return;
  if (fitted_.has_value() && xs_.empty()) return;
  Refit();
}

void Kde2dSelectivity::Refit() const {
  std::optional<Fitted> fit =
      BuildFit(fitted_.has_value() ? &*fitted_ : nullptr, xs_, ys_);
  if (!fit.has_value()) {
    // Degenerate: keep the previous fit (or the fallback) and the tail, and
    // do not retry at this count.
    unfit_count_ = count();
    return;
  }
  fitted_ = std::move(fit);
  // Release the tail: the fitted columns hold the observations now.
  xs_ = std::vector<double>();
  ys_ = std::vector<double>();
}

std::optional<Kde2dSelectivity::Fitted> Kde2dSelectivity::BuildFit(
    const Fitted* prev, std::span<const double> xs,
    std::span<const double> ys) const {
  // Every fit builds a NEW arena: the previous fitted columns may be shared
  // with CloneForView copies.
  const size_t m = prev != nullptr ? prev->n : 0;
  const size_t fit_n = m + xs.size();
  const memory::ColumnSpec specs[] = {{memory::ColumnKind::kF64, fit_n},
                                      {memory::ColumnKind::kF64, fit_n},
                                      {memory::ColumnKind::kF64, fit_n},
                                      {memory::ColumnKind::kF64, fit_n}};
  memory::Arena arena = memory::Arena::Create(specs);
  const std::span<double> sx = arena.MutableF64(0);
  const std::span<double> sy = arena.MutableF64(1);
  const std::span<double> ty = arena.MutableF64(2);
  const std::span<double> lambdas = arena.MutableF64(3);
  // The previous sample (sorted) first, then the new observations.
  if (prev != nullptr) {
    std::copy(prev->sx().begin(), prev->sx().end(), sx.begin());
    std::copy(prev->sy().begin(), prev->sy().end(), sy.begin());
    std::copy(prev->ty().begin(), prev->ty().end(), ty.begin());
  }
  const auto offset = static_cast<ptrdiff_t>(m);
  std::copy(xs.begin(), xs.end(), sx.begin() + offset);
  std::copy(ys.begin(), ys.end(), sy.begin() + offset);
  std::copy(ys.begin(), ys.end(), ty.begin() + offset);
  if (options_.refit_mode == RefitMode::kIncremental) {
    // Sort only the tail, one stable merge into the sorted prefix.
    multidim::MergeSortedTailLex(sx, sy, m);
    std::sort(ty.begin() + offset, ty.end());
    std::inplace_merge(ty.begin(), ty.begin() + offset, ty.end());
  } else {
    multidim::SortPointsLex(sx, sy);
    std::sort(ty.begin(), ty.end());
  }
  // Bandwidths from sorted order statistics (sx is ascending in x by lex
  // order; ty is the sorted axis-1 shadow): bitwise-reproducible from the
  // sorted multiset alone, so both refit modes — and the snapshot-restore
  // re-fit — derive identical values. An axis without spread has none.
  if (sx.front() == sx.back() || ty.front() == ty.back()) return std::nullopt;
  double hx = kernel::RuleOfThumbBandwidthSorted(sx);
  double hy = kernel::RuleOfThumbBandwidthSorted(ty);
  if (options_.cv_bandwidths && fit_n >= 16) {
    hx = CvRefinedBandwidth(kernel_, sx, hx);
    hy = CvRefinedBandwidth(kernel_, ty, hy);
  }
  if (!std::isfinite(hx) || !(hx > 0.0) || !std::isfinite(hy) || !(hy > 0.0)) {
    return std::nullopt;  // degenerate sample; keep the previous fit/fallback
  }
  Fitted fit;
  fit.lambda_max = multidim::AdaptiveLambdas(
      sx, sy, options_.domain_lo0, options_.domain_hi0, options_.domain_lo1,
      options_.domain_hi1, options_.alpha, kPilotLog2, lambdas);
  fit.arena = std::move(arena);
  fit.n = fit_n;
  fit.hx = hx;
  fit.hy = hy;
  return fit;
}

double Kde2dSelectivity::EstimateRectImpl(double lo0, double hi0, double lo1,
                                          double hi1) const {
  RefitIfStale();
  if (!fitted_.has_value()) {
    // Tiny-sample (or degenerate-bandwidth) fallback: exact fraction of the
    // observations (all in the tail) inside the rectangle.
    if (xs_.empty()) return 0.0;
    size_t hits = 0;
    for (size_t i = 0; i < xs_.size(); ++i) {
      if (xs_[i] >= lo0 && xs_[i] <= hi0 && ys_[i] >= lo1 && ys_[i] <= hi1) {
        ++hits;
      }
    }
    return static_cast<double>(hits) / static_cast<double>(xs_.size());
  }
  // Scratch lives on this call's stack: concurrent readers over one fitted
  // state (the sharded engine fans batch chunks across threads) never share
  // mutable buffers.
  multidim::ProdKde2dScratch scratch;
  const double sum = multidim::ProdKde2dRectSum(
      kernel_, fitted_->sx(), fitted_->sy(), fitted_->lambdas(), fitted_->hx,
      fitted_->hy, fitted_->lambda_max, lo0, hi0, lo1, hi1, scratch);
  return std::clamp(sum / static_cast<double>(fitted_->n), 0.0, 1.0);
}

double Kde2dSelectivity::EstimateRangeImpl(double a, double b) const {
  // The axis-0 marginal IS the range primitive of a 2-D estimator.
  return EstimateRectImpl(a, b, -kInf, kInf);
}

std::unique_ptr<SelectivityEstimator> Kde2dSelectivity::CloneEmpty() const {
  return std::make_unique<Kde2dSelectivity>(options_);
}

Status Kde2dSelectivity::MergeFrom(const SelectivityEstimator& other) {
  Status peer = CheckMergePeer(other);
  if (!peer.ok()) return peer;
  const auto& rhs = static_cast<const Kde2dSelectivity&>(other);
  // refit_interval/refit_mode pace only the owner's staleness; domains, α
  // and the CV flag shape answers and must match.
  if (options_.domain_lo0 != rhs.options_.domain_lo0 ||
      options_.domain_hi0 != rhs.options_.domain_hi0 ||
      options_.domain_lo1 != rhs.options_.domain_lo1 ||
      options_.domain_hi1 != rhs.options_.domain_hi1 ||
      options_.alpha != rhs.options_.alpha ||
      options_.cv_bandwidths != rhs.options_.cv_bandwidths) {
    return Status::FailedPrecondition("MergeFrom: kde2d options mismatch");
  }
  // Both sides' observations go into the tail and the fit is dropped: the
  // next query refits from the merged multiset (or falls back to the exact
  // fraction if that refit fails).
  if (fitted_.has_value()) {
    xs_.insert(xs_.begin(), fitted_->sx().begin(), fitted_->sx().end());
    ys_.insert(ys_.begin(), fitted_->sy().begin(), fitted_->sy().end());
    fitted_.reset();
  }
  if (rhs.fitted_.has_value()) {
    xs_.insert(xs_.end(), rhs.fitted_->sx().begin(), rhs.fitted_->sx().end());
    ys_.insert(ys_.end(), rhs.fitted_->sy().begin(), rhs.fitted_->sy().end());
  }
  xs_.insert(xs_.end(), rhs.xs_.begin(), rhs.xs_.end());
  ys_.insert(ys_.end(), rhs.ys_.begin(), rhs.ys_.end());
  return Status::OK();
}

Status Kde2dSelectivity::MergeTailFrom(const SelectivityEstimator& other,
                                       size_t from_count) {
  Status peer = CheckMergePeer(other);
  if (!peer.ok()) return peer;
  const auto& rhs = static_cast<const Kde2dSelectivity&>(other);
  if (options_.domain_lo0 != rhs.options_.domain_lo0 ||
      options_.domain_hi0 != rhs.options_.domain_hi0 ||
      options_.domain_lo1 != rhs.options_.domain_lo1 ||
      options_.domain_hi1 != rhs.options_.domain_hi1 ||
      options_.alpha != rhs.options_.alpha ||
      options_.cv_bandwidths != rhs.options_.cv_bandwidths) {
    return Status::FailedPrecondition("MergeTailFrom: kde2d options mismatch");
  }
  // Stream positions exist only in the peer's tail; its prefix is sorted.
  const size_t fitted = rhs.fitted_.has_value() ? rhs.fitted_->n : 0;
  if (from_count < fitted) {
    return Status::FailedPrecondition(
        "MergeTailFrom: from_count inside the peer's fitted prefix");
  }
  if (from_count > rhs.count()) {
    return Status::InvalidArgument("MergeTailFrom: from_count past peer count");
  }
  // Append only the peer's tail observations; the fitted state stays
  // (stale) so the next refit delta-merges instead of rebuilding.
  const auto skip = static_cast<ptrdiff_t>(from_count - fitted);
  xs_.insert(xs_.end(), rhs.xs_.begin() + skip, rhs.xs_.end());
  ys_.insert(ys_.end(), rhs.ys_.begin() + skip, rhs.ys_.end());
  return Status::OK();
}

Status Kde2dSelectivity::SaveStateImpl(io::Sink& sink) const {
  WDE_RETURN_IF_ERROR(io::WriteDouble(sink, options_.domain_lo0));
  WDE_RETURN_IF_ERROR(io::WriteDouble(sink, options_.domain_hi0));
  WDE_RETURN_IF_ERROR(io::WriteDouble(sink, options_.domain_lo1));
  WDE_RETURN_IF_ERROR(io::WriteDouble(sink, options_.domain_hi1));
  WDE_RETURN_IF_ERROR(io::WriteU64(sink, options_.refit_interval));
  WDE_RETURN_IF_ERROR(io::WriteDouble(sink, options_.alpha));
  WDE_RETURN_IF_ERROR(io::WriteU8(sink, options_.cv_bandwidths ? 1 : 0));
  const size_t fitted = fitted_.has_value() ? fitted_->n : 0;
  WDE_RETURN_IF_ERROR(io::WriteU64(sink, fitted));
  WDE_RETURN_IF_ERROR(io::WriteU8(sink, have_pending_ ? 1 : 0));
  WDE_RETURN_IF_ERROR(io::WriteDouble(sink, pending_));
  // Each coordinate vector: the lex-sorted prefix, then the tail.
  WDE_RETURN_IF_ERROR(io::WriteU64(sink, count()));
  if (fitted_.has_value()) WDE_RETURN_IF_ERROR(io::WriteDoubles(sink, fitted_->sx()));
  WDE_RETURN_IF_ERROR(io::WriteDoubles(sink, xs_));
  WDE_RETURN_IF_ERROR(io::WriteU64(sink, count()));
  if (fitted_.has_value()) WDE_RETURN_IF_ERROR(io::WriteDoubles(sink, fitted_->sy()));
  return io::WriteDoubles(sink, ys_);
}

Status Kde2dSelectivity::LoadStateImpl(io::Source& source) {
  Options options;
  WDE_ASSIGN_OR_RETURN(options.domain_lo0, io::ReadDouble(source));
  WDE_ASSIGN_OR_RETURN(options.domain_hi0, io::ReadDouble(source));
  WDE_ASSIGN_OR_RETURN(options.domain_lo1, io::ReadDouble(source));
  WDE_ASSIGN_OR_RETURN(options.domain_hi1, io::ReadDouble(source));
  WDE_ASSIGN_OR_RETURN(options.refit_interval, io::ReadU64(source));
  WDE_ASSIGN_OR_RETURN(options.alpha, io::ReadDouble(source));
  WDE_ASSIGN_OR_RETURN(const uint8_t cv, io::ReadU8(source));
  WDE_ASSIGN_OR_RETURN(const uint64_t fitted_at_count, io::ReadU64(source));
  WDE_ASSIGN_OR_RETURN(const uint8_t have_pending, io::ReadU8(source));
  WDE_ASSIGN_OR_RETURN(const double pending, io::ReadDouble(source));
  WDE_ASSIGN_OR_RETURN(std::vector<double> xs, io::ReadDoubleVector(source));
  WDE_ASSIGN_OR_RETURN(std::vector<double> ys, io::ReadDoubleVector(source));
  if (!std::isfinite(options.domain_lo0) || !std::isfinite(options.domain_hi0) ||
      !(options.domain_lo0 < options.domain_hi0) ||
      !std::isfinite(options.domain_lo1) || !std::isfinite(options.domain_hi1) ||
      !(options.domain_lo1 < options.domain_hi1) ||
      options.refit_interval == 0 || !std::isfinite(options.alpha) ||
      options.alpha < 0.0 || options.alpha > 1.0 || cv > 1 ||
      have_pending > 1 || xs.size() != ys.size() ||
      fitted_at_count > xs.size() || source.remaining() != 0) {
    return Status::InvalidArgument("corrupt kde2d snapshot");
  }
  // Insert drops non-finite points and clamps both coordinates into their
  // domains, so a coordinate outside them (NaN included) was never inserted.
  // (The pending half-pair is raw by design and may be anything.)
  for (size_t i = 0; i < xs.size(); ++i) {
    if (!(xs[i] >= options.domain_lo0 && xs[i] <= options.domain_hi0) ||
        !(ys[i] >= options.domain_lo1 && ys[i] <= options.domain_hi1)) {
      return Status::InvalidArgument("corrupt kde2d snapshot: point outside the domain");
    }
  }
  options.cv_bandwidths = cv != 0;
  options.refit_mode = options_.refit_mode;  // pacing knob, never serialized
  // Re-fit the saved prefix (a deterministic function of its multiset, so
  // bit-exact), with the loaded options on a scratch instance so a rejected
  // load leaves this one untouched. A live estimator records a fitted count
  // only after a successful fit of kMinFitSample or more observations.
  const auto fit_n = static_cast<size_t>(fitted_at_count);
  std::optional<Fitted> fit;
  if (fit_n > 0) {
    if (fit_n >= kMinFitSample) {
      fit = Kde2dSelectivity(options).BuildFit(
          nullptr, std::span(xs).first(fit_n), std::span(ys).first(fit_n));
    }
    if (!fit.has_value()) {
      return Status::InvalidArgument("corrupt kde2d snapshot: unfittable fitted count");
    }
  }
  options_ = options;
  fitted_ = std::move(fit);
  unfit_count_ = 0;
  xs_.assign(xs.begin() + static_cast<ptrdiff_t>(fit_n), xs.end());
  ys_.assign(ys.begin() + static_cast<ptrdiff_t>(fit_n), ys.end());
  have_pending_ = have_pending != 0;
  pending_ = pending;
  return Status::OK();
}

}  // namespace selectivity
}  // namespace wde
