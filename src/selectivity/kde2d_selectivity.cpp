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
  if (xs_.size() < kMinFitSample) return;
  if (fitted_.has_value() &&
      xs_.size() - fitted_at_count_ < options_.refit_interval) {
    return;
  }
  Refit();
}

void Kde2dSelectivity::ForceRefitImpl() const {
  if (xs_.size() < kMinFitSample) return;
  if (fitted_.has_value() && fitted_at_count_ == xs_.size()) return;
  Refit();
}

void Kde2dSelectivity::Refit() const {
  const bool incremental = options_.refit_mode == RefitMode::kIncremental &&
                           fitted_.has_value() &&
                           fitted_->n == fitted_at_count_ &&
                           fitted_at_count_ <= xs_.size();
  std::optional<Fitted> fit =
      BuildFit(xs_.size(), incremental ? &*fitted_ : nullptr);
  if (fit.has_value()) {
    fitted_ = std::move(fit);
    fitted_at_count_ = xs_.size();
  }
}

std::optional<Kde2dSelectivity::Fitted> Kde2dSelectivity::BuildFit(
    size_t fit_n, const Fitted* prev) const {
  // Every fit builds a NEW arena: the previous fitted columns may be shared
  // with CloneForView copies.
  const memory::ColumnSpec specs[] = {{memory::ColumnKind::kF64, fit_n},
                                      {memory::ColumnKind::kF64, fit_n},
                                      {memory::ColumnKind::kF64, fit_n},
                                      {memory::ColumnKind::kF64, fit_n}};
  memory::Arena arena = memory::Arena::Create(specs);
  const std::span<double> sx = arena.MutableF64(0);
  const std::span<double> sy = arena.MutableF64(1);
  const std::span<double> ty = arena.MutableF64(2);
  const std::span<double> lambdas = arena.MutableF64(3);
  if (prev != nullptr && prev->n <= fit_n) {
    // The previous fitted arrays are the sorted permutations of the
    // observation prefix [0, prev->n) (the buffers only ever append): copy
    // them, append the unfitted tail, sort only the tail, one stable merge.
    std::copy(prev->sx().begin(), prev->sx().end(), sx.begin());
    std::copy(prev->sy().begin(), prev->sy().end(), sy.begin());
    std::copy(xs_.begin() + static_cast<ptrdiff_t>(prev->n),
              xs_.begin() + static_cast<ptrdiff_t>(fit_n),
              sx.begin() + static_cast<ptrdiff_t>(prev->n));
    std::copy(ys_.begin() + static_cast<ptrdiff_t>(prev->n),
              ys_.begin() + static_cast<ptrdiff_t>(fit_n),
              sy.begin() + static_cast<ptrdiff_t>(prev->n));
    multidim::MergeSortedTailLex(sx, sy, prev->n);
    std::copy(prev->ty().begin(), prev->ty().end(), ty.begin());
    std::copy(ys_.begin() + static_cast<ptrdiff_t>(prev->n),
              ys_.begin() + static_cast<ptrdiff_t>(fit_n),
              ty.begin() + static_cast<ptrdiff_t>(prev->n));
    const auto mid = ty.begin() + static_cast<ptrdiff_t>(prev->n);
    std::sort(mid, ty.end());
    std::inplace_merge(ty.begin(), mid, ty.end());
  } else {
    std::copy(xs_.begin(), xs_.begin() + static_cast<ptrdiff_t>(fit_n),
              sx.begin());
    std::copy(ys_.begin(), ys_.begin() + static_cast<ptrdiff_t>(fit_n),
              sy.begin());
    multidim::SortPointsLex(sx, sy);
    std::copy(ys_.begin(), ys_.begin() + static_cast<ptrdiff_t>(fit_n),
              ty.begin());
    std::sort(ty.begin(), ty.end());
  }
  // Bandwidths from sorted order statistics (sx is ascending in x by lex
  // order; ty is the sorted axis-1 shadow): bitwise-reproducible from the
  // sorted multiset alone, so both refit modes — and the snapshot-restore
  // re-fit — derive identical values.
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
  fit.col0 = 0;
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
    // buffered observations inside the rectangle.
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
  xs_.insert(xs_.end(), rhs.xs_.begin(), rhs.xs_.end());
  ys_.insert(ys_.end(), rhs.ys_.begin(), rhs.ys_.end());
  fitted_.reset();  // refit from the merged buffers at the next query
  fitted_at_count_ = 0;
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
  if (from_count > rhs.xs_.size()) {
    return Status::InvalidArgument("MergeTailFrom: from_count past peer count");
  }
  // Append only the peer's tail observations; the fitted state stays
  // (stale) so the next refit delta-merges instead of rebuilding.
  xs_.insert(xs_.end(), rhs.xs_.begin() + static_cast<ptrdiff_t>(from_count),
             rhs.xs_.end());
  ys_.insert(ys_.end(), rhs.ys_.begin() + static_cast<ptrdiff_t>(from_count),
             rhs.ys_.end());
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
  WDE_RETURN_IF_ERROR(io::WriteU64(sink, fitted_at_count_));
  WDE_RETURN_IF_ERROR(io::WriteU8(sink, have_pending_ ? 1 : 0));
  WDE_RETURN_IF_ERROR(io::WriteDouble(sink, pending_));
  WDE_RETURN_IF_ERROR(io::WriteDoubleVector(sink, xs_));
  return io::WriteDoubleVector(sink, ys_);
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
  options_ = options;
  xs_ = std::move(xs);
  ys_ = std::move(ys);
  have_pending_ = have_pending != 0;
  pending_ = pending;
  fitted_.reset();
  fitted_at_count_ = 0;
  // Re-fit over the prefix the saved estimator had fitted on: the fit is a
  // deterministic function of the prefix multiset, and the saved
  // fitted_at_count only ever advances on a successful (non-degenerate)
  // fit, so this reproduces the saved fitted state — bandwidths, adaptive
  // factors and all — bit-exactly.
  if (fitted_at_count >= kMinFitSample) {
    std::optional<Fitted> fit =
        BuildFit(static_cast<size_t>(fitted_at_count), nullptr);
    if (fit.has_value()) {
      fitted_ = std::move(fit);
      fitted_at_count_ = static_cast<size_t>(fitted_at_count);
    }
  }
  return Status::OK();
}

}  // namespace selectivity
}  // namespace wde
