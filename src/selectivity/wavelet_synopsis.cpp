#include "selectivity/wavelet_synopsis.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/string_util.hpp"

namespace wde {
namespace selectivity {

WaveletSynopsisSelectivity::WaveletSynopsisSelectivity(const Options& options)
    : options_(options),
      haar_(wavelet::WaveletFilter::Haar()),
      counts_(1ULL << options.grid_log2, 0.0) {}

Result<WaveletSynopsisSelectivity> WaveletSynopsisSelectivity::Create(
    const Options& options) {
  if (!internal::IsDomain(options.domain_lo, options.domain_hi)) {
    return Status::InvalidArgument("domain must be finite lo < hi with a finite width");
  }
  if (options.grid_log2 < 2 || options.grid_log2 > 22) {
    return Status::InvalidArgument("grid_log2 must be in [2, 22]");
  }
  if (options.budget == 0 || options.rebuild_interval == 0) {
    return Status::InvalidArgument("budget and rebuild_interval must be positive");
  }
  return WaveletSynopsisSelectivity(options);
}

void WaveletSynopsisSelectivity::Insert(double x) {
  if (!std::isfinite(x)) return;  // dirty input: ignore, do not poison the grid
  const double t = std::clamp(
      (x - options_.domain_lo) / (options_.domain_hi - options_.domain_lo), 0.0, 1.0);
  const size_t cell = std::min(counts_.size() - 1,
                               static_cast<size_t>(t * static_cast<double>(
                                                           counts_.size())));
  counts_[cell] += 1.0;
  ++count_;
}

void WaveletSynopsisSelectivity::RebuildIfStale() const {
  if (!reconstructed_.empty() &&
      count_ - built_at_count_ < options_.rebuild_interval) {
    return;
  }
  Result<wavelet::DwtCoefficients> transform =
      wavelet::ForwardDwt(haar_, counts_, options_.grid_log2);
  WDE_CHECK_OK(transform.status());
  // Rank all detail coefficients by magnitude; keep the `budget` largest
  // (the approximation coefficient — total mass — is always kept). Ties at
  // the cutoff are broken arbitrarily but deterministically by scan order.
  std::vector<double*> slots;
  for (auto& level : transform->details) {
    for (double& d : level) slots.push_back(&d);
  }
  if (slots.size() > options_.budget) {
    std::nth_element(slots.begin(),
                     slots.begin() + static_cast<long>(options_.budget),
                     slots.end(), [](const double* a, const double* b) {
                       return std::fabs(*a) > std::fabs(*b);
                     });
    for (size_t i = options_.budget; i < slots.size(); ++i) *slots[i] = 0.0;
  }
  retained_ = 0;
  for (const double* d : slots) retained_ += (*d != 0.0);
  Result<std::vector<double>> rec = wavelet::InverseDwt(haar_, *transform);
  WDE_CHECK_OK(rec.status());
  reconstructed_ = std::move(rec).value();
  // Negative smoothed counts are meaningless; clip.
  for (double& c : reconstructed_) c = std::max(c, 0.0);
  built_at_count_ = count_;
}

std::unique_ptr<SelectivityEstimator> WaveletSynopsisSelectivity::CloneEmpty()
    const {
  return std::unique_ptr<SelectivityEstimator>(
      new WaveletSynopsisSelectivity(options_));
}

Status WaveletSynopsisSelectivity::MergeFrom(const SelectivityEstimator& other) {
  Status peer = CheckMergePeer(other);
  if (!peer.ok()) return peer;
  const auto& rhs = static_cast<const WaveletSynopsisSelectivity&>(other);
  // rebuild_interval paces only the owner's staleness and is deliberately
  // not checked (same rationale as the wavelet sketch's MergeFrom). The
  // budget shapes this synopsis's own compression of the merged grid, so it
  // must agree for the merged answers to mean what the caller configured.
  if (options_.domain_lo != rhs.options_.domain_lo ||
      options_.domain_hi != rhs.options_.domain_hi ||
      options_.grid_log2 != rhs.options_.grid_log2 ||
      options_.budget != rhs.options_.budget) {
    return Status::FailedPrecondition("MergeFrom: synopsis options mismatch");
  }
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += rhs.counts_[i];
  count_ += rhs.count_;
  reconstructed_.clear();  // force a rebuild from the merged grid
  built_at_count_ = 0;
  retained_ = 0;
  return Status::OK();
}

Status WaveletSynopsisSelectivity::SaveStateImpl(io::Sink& sink) const {
  WDE_RETURN_IF_ERROR(io::WriteDouble(sink, options_.domain_lo));
  WDE_RETURN_IF_ERROR(io::WriteDouble(sink, options_.domain_hi));
  WDE_RETURN_IF_ERROR(io::WriteI32(sink, options_.grid_log2));
  WDE_RETURN_IF_ERROR(io::WriteU64(sink, options_.budget));
  WDE_RETURN_IF_ERROR(io::WriteU64(sink, options_.rebuild_interval));
  WDE_RETURN_IF_ERROR(io::WriteU64(sink, count_));
  WDE_RETURN_IF_ERROR(io::WriteDoubleVector(sink, counts_));
  WDE_RETURN_IF_ERROR(io::WriteU8(sink, reconstructed_.empty() ? 0 : 1));
  if (reconstructed_.empty()) return Status::OK();
  WDE_RETURN_IF_ERROR(io::WriteDoubleVector(sink, reconstructed_));
  WDE_RETURN_IF_ERROR(io::WriteU64(sink, retained_));
  return io::WriteU64(sink, built_at_count_);
}

Status WaveletSynopsisSelectivity::LoadStateImpl(io::Source& source) {
  Options options;
  WDE_ASSIGN_OR_RETURN(options.domain_lo, io::ReadDouble(source));
  WDE_ASSIGN_OR_RETURN(options.domain_hi, io::ReadDouble(source));
  WDE_ASSIGN_OR_RETURN(options.grid_log2, io::ReadI32(source));
  WDE_ASSIGN_OR_RETURN(options.budget, io::ReadU64(source));
  WDE_ASSIGN_OR_RETURN(options.rebuild_interval, io::ReadU64(source));
  WDE_ASSIGN_OR_RETURN(const uint64_t count, io::ReadU64(source));
  WDE_ASSIGN_OR_RETURN(std::vector<double> counts, io::ReadDoubleVector(source));
  if (!internal::IsDomain(options.domain_lo, options.domain_hi) ||
      options.grid_log2 < 2 || options.grid_log2 > 22 || options.budget == 0 ||
      options.rebuild_interval == 0 ||
      counts.size() != (1ULL << options.grid_log2)) {
    return Status::InvalidArgument("corrupt synopsis snapshot");
  }
  if (!internal::IsCountTable(counts, count)) {
    return Status::InvalidArgument("corrupt synopsis snapshot: counts");
  }
  WDE_ASSIGN_OR_RETURN(const uint8_t has_cache, io::ReadU8(source));
  std::vector<double> reconstructed;
  uint64_t retained = 0;
  uint64_t built_at_count = 0;
  if (has_cache != 0) {
    WDE_ASSIGN_OR_RETURN(reconstructed, io::ReadDoubleVector(source));
    WDE_ASSIGN_OR_RETURN(retained, io::ReadU64(source));
    WDE_ASSIGN_OR_RETURN(built_at_count, io::ReadU64(source));
    if (reconstructed.size() != counts.size() || built_at_count > count ||
        retained > reconstructed.size() ||
        // A thresholded reconstruction never outweighs the counts it was
        // built from; bounding it keeps every range sum finite.
        !std::all_of(reconstructed.begin(), reconstructed.end(),
                     [](double v) { return std::abs(v) <= 0x1p53; })) {
      return Status::InvalidArgument("corrupt synopsis reconstruction cache");
    }
  }
  if (source.remaining() != 0) {
    return Status::InvalidArgument("corrupt synopsis snapshot: trailing bytes");
  }
  options_ = options;
  count_ = static_cast<size_t>(count);
  counts_ = std::move(counts);
  reconstructed_ = std::move(reconstructed);
  retained_ = static_cast<size_t>(retained);
  built_at_count_ = static_cast<size_t>(built_at_count);
  return Status::OK();
}

double WaveletSynopsisSelectivity::EstimateRangeImpl(double a, double b) const {
  if (count_ == 0) return 0.0;
  RebuildIfStale();
  const double width = options_.domain_hi - options_.domain_lo;
  const double cells = static_cast<double>(reconstructed_.size());
  const double ta = std::clamp((a - options_.domain_lo) / width, 0.0, 1.0) * cells;
  const double tb = std::clamp((b - options_.domain_lo) / width, 0.0, 1.0) * cells;
  double acc = 0.0;
  const auto cell_lo = static_cast<size_t>(ta);
  const auto cell_hi = std::min(static_cast<size_t>(tb), reconstructed_.size() - 1);
  for (size_t i = cell_lo; i <= cell_hi; ++i) {
    const double overlap = std::min(tb, static_cast<double>(i + 1)) -
                           std::max(ta, static_cast<double>(i));
    if (overlap > 0.0) acc += reconstructed_[i] * overlap;
  }
  // Dropped detail coefficients can push a partial range below 0 or above
  // 1; clamp to the probability range like every other estimator.
  return std::clamp(acc / static_cast<double>(count_), 0.0, 1.0);
}

size_t WaveletSynopsisSelectivity::RetainedCoefficients() const {
  RebuildIfStale();
  return retained_;
}

std::string WaveletSynopsisSelectivity::name() const {
  return Format("haar-synopsis(B=%zu)", options_.budget);
}

}  // namespace selectivity
}  // namespace wde
