#include "selectivity/wavelet_selectivity.hpp"

#include <algorithm>
#include <cmath>

#include "util/string_util.hpp"
#include "wavelet/filter.hpp"

namespace wde {
namespace selectivity {

Result<StreamingWaveletSelectivity> StreamingWaveletSelectivity::Create(
    const wavelet::WaveletBasis& basis, const Options& options) {
  Result<core::WaveletDensityFit> fit = core::WaveletDensityFit::CreateStreaming(
      basis, options.j0, options.j_max, options.domain_lo, options.domain_hi);
  if (!fit.ok()) return fit.status();
  if (options.refit_interval == 0) {
    return Status::InvalidArgument("refit_interval must be positive");
  }
  return StreamingWaveletSelectivity(std::move(fit).value(), options);
}

void StreamingWaveletSelectivity::Insert(double x) {
  if (!std::isfinite(x)) return;
  fit_.Add(std::clamp(x, options_.domain_lo, options_.domain_hi));
  if (fit_.count() - fitted_at_count_ >= options_.refit_interval) RefitIfStale();
}

void StreamingWaveletSelectivity::InsertBatch(std::span<const double> xs) {
  if (xs.empty()) return;
  insert_scratch_.clear();
  insert_scratch_.reserve(xs.size());
  for (double x : xs) {
    if (!std::isfinite(x)) continue;  // drop dirty input, as Insert does
    insert_scratch_.push_back(std::clamp(x, options_.domain_lo, options_.domain_hi));
  }
  // Feed the accumulator in chunks that end exactly where the scalar loop
  // would have refit, so the cached estimate goes through the same sequence
  // of (refit point, coefficient state) pairs as per-point insertion.
  std::span<double> rest(insert_scratch_);
  while (!rest.empty()) {
    const size_t since_refit = fit_.count() - fitted_at_count_;
    const size_t until_refit =
        since_refit >= options_.refit_interval ? 1
                                               : options_.refit_interval - since_refit;
    const size_t chunk = std::min(until_refit, rest.size());
    fit_.AddBatchInPlace(rest.first(chunk));
    rest = rest.subspan(chunk);
    if (fit_.count() - fitted_at_count_ >= options_.refit_interval) RefitIfStale();
  }
}

void StreamingWaveletSelectivity::Refit() const {
  if (fit_.count() < 2) return;
  // Every sum mutation (Add/AddBatch/Merge) advances count(), so an
  // unchanged count means unchanged sums and a bit-identical re-derivation:
  // skip it. This is what makes ForceRefit idempotent.
  if (estimate_.has_value() && cv_.has_value() &&
      fitted_at_count_ == fit_.count()) {
    return;
  }
  cv_ = core::CrossValidate(fit_.coefficients(), options_.kind);
  estimate_ = fit_.Estimate(cv_->Schedule(), options_.kind);
  fitted_at_count_ = fit_.count();
}

void StreamingWaveletSelectivity::RefitIfStale() const {
  if (!estimate_.has_value() ||
      fit_.count() - fitted_at_count_ >= options_.refit_interval) {
    Refit();
  }
}

double StreamingWaveletSelectivity::EstimateRangeImpl(double a, double b) const {
  if (fit_.count() < 2) return 0.0;
  RefitIfStale();
  if (!estimate_.has_value()) return 0.0;
  // Clamp to [0, 1]: the thresholded expansion is a near-density but not a
  // guaranteed one.
  return std::clamp(estimate_->IntegrateRange(a, b), 0.0, 1.0);
}

std::unique_ptr<SelectivityEstimator> StreamingWaveletSelectivity::CloneEmpty()
    const {
  Result<StreamingWaveletSelectivity> clone =
      Create(fit_.coefficients().basis(), options_);
  WDE_CHECK(clone.ok(), "options were valid at construction");
  return std::make_unique<StreamingWaveletSelectivity>(std::move(clone).value());
}

Status StreamingWaveletSelectivity::MergeFrom(const SelectivityEstimator& other) {
  Status peer = CheckMergePeer(other);
  if (!peer.ok()) return peer;
  const auto& rhs = static_cast<const StreamingWaveletSelectivity&>(other);
  // Domain and threshold kind must agree (they shape what the merged sums
  // mean and how this sketch reconstructs from them); the coefficient merge
  // below checks the basis and level range. refit_interval is deliberately
  // NOT checked: it only paces this sketch's own staleness, so replicas may
  // run with refits disabled (huge interval) and still merge into a
  // normally-paced target — the recommended sharded-ingest configuration.
  if (options_.domain_lo != rhs.options_.domain_lo ||
      options_.domain_hi != rhs.options_.domain_hi ||
      options_.kind != rhs.options_.kind) {
    return Status::FailedPrecondition("MergeFrom: sketch options mismatch");
  }
  Status merged = fit_.Merge(rhs.fit_);
  if (!merged.ok()) return merged;
  // The cached estimate no longer reflects the sums; rebuild lazily from the
  // merged coefficients at the next query.
  estimate_.reset();
  cv_.reset();
  fitted_at_count_ = 0;
  return Status::OK();
}

void StreamingWaveletSelectivity::AnswerImpl(std::span<const Query> queries,
                                             std::span<double> out) const {
  // The public wrapper guarantees matched spans, a non-empty batch (so the
  // refit below mirrors the scalar path) and normalized queries.
  if (fit_.count() < 2) {
    // Matches the scalar lowering: every mass kind answers 0.0 through
    // EstimateRangeImpl's empty check, and quantiles answer 0.0 only when
    // count() == 0 — a 1-point sketch still bisects its (flat-zero) CDF.
    for (size_t i = 0; i < queries.size(); ++i) out[i] = AnswerOne(queries[i]);
    return;
  }
  RefitIfStale();  // no inserts between queries: staleness is checked once
  if (!estimate_.has_value()) {
    for (size_t i = 0; i < queries.size(); ++i) out[i] = AnswerOne(queries[i]);
    return;
  }
  // Lower every mass kind to range endpoints (Less/Cdf become signed-CDF
  // evaluations over (-inf, x], which the clamped antiderivative pass
  // handles exactly) and integrate the whole batch in one call; quantiles
  // run the shared bisection against the now-fresh estimate.
  std::vector<double> a, b, integrated;
  std::vector<size_t> position;
  a.reserve(queries.size());
  b.reserve(queries.size());
  position.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    if (q.kind == QueryKind::kQuantile) {
      out[i] = QuantileByBisection(q.a);
      continue;
    }
    if (q.kind == QueryKind::kRect || q.kind == QueryKind::kMarginal ||
        q.kind == QueryKind::kConditional) {
      // No range lowering exists for these; the shared multi-dim dispatch
      // (0.0 / axis-0 marginal for this 1-D estimator) is the contract.
      out[i] = AnswerOne(q);
      continue;
    }
    const Interval r = LowerToRange(q);
    a.push_back(r.lo);
    b.push_back(r.hi);
    position.push_back(i);
  }
  if (position.empty()) return;
  integrated.resize(position.size());
  estimate_->IntegrateRangeMany(a, b, integrated);
  for (size_t j = 0; j < position.size(); ++j) {
    out[position[j]] = std::clamp(integrated[j], 0.0, 1.0);
  }
}

namespace {

Status SerializeCvResult(const core::CrossValidationResult& cv, io::Sink& sink) {
  WDE_RETURN_IF_ERROR(io::WriteU8(sink, static_cast<uint8_t>(cv.kind)));
  WDE_RETURN_IF_ERROR(io::WriteI32(sink, cv.j0));
  WDE_RETURN_IF_ERROR(io::WriteI32(sink, cv.j_star));
  WDE_RETURN_IF_ERROR(io::WriteI32(sink, cv.j1_hat));
  WDE_RETURN_IF_ERROR(io::WriteU64(sink, cv.levels.size()));
  for (const core::LevelCvResult& level : cv.levels) {
    WDE_RETURN_IF_ERROR(io::WriteI32(sink, level.j));
    WDE_RETURN_IF_ERROR(io::WriteDouble(sink, level.lambda_hat));
    WDE_RETURN_IF_ERROR(io::WriteDouble(sink, level.cv_value));
    WDE_RETURN_IF_ERROR(io::WriteI32(sink, level.kept));
    WDE_RETURN_IF_ERROR(io::WriteI32(sink, level.total));
    WDE_RETURN_IF_ERROR(io::WriteDouble(sink, level.max_magnitude));
  }
  return Status::OK();
}

Result<core::CrossValidationResult> DeserializeCvResult(io::Source& source) {
  core::CrossValidationResult cv;
  WDE_ASSIGN_OR_RETURN(const uint8_t kind, io::ReadU8(source));
  if (kind > 1) return Status::InvalidArgument("corrupt CV threshold kind");
  cv.kind = static_cast<core::ThresholdKind>(kind);
  WDE_ASSIGN_OR_RETURN(cv.j0, io::ReadI32(source));
  WDE_ASSIGN_OR_RETURN(cv.j_star, io::ReadI32(source));
  WDE_ASSIGN_OR_RETURN(cv.j1_hat, io::ReadI32(source));
  WDE_ASSIGN_OR_RETURN(const uint64_t n_levels, io::ReadU64(source));
  if (n_levels > 64) return Status::InvalidArgument("corrupt CV level count");
  cv.levels.reserve(static_cast<size_t>(n_levels));
  for (uint64_t i = 0; i < n_levels; ++i) {
    core::LevelCvResult level;
    WDE_ASSIGN_OR_RETURN(level.j, io::ReadI32(source));
    WDE_ASSIGN_OR_RETURN(level.lambda_hat, io::ReadDouble(source));
    WDE_ASSIGN_OR_RETURN(level.cv_value, io::ReadDouble(source));
    WDE_ASSIGN_OR_RETURN(level.kept, io::ReadI32(source));
    WDE_ASSIGN_OR_RETURN(level.total, io::ReadI32(source));
    WDE_ASSIGN_OR_RETURN(level.max_magnitude, io::ReadDouble(source));
    cv.levels.push_back(level);
  }
  return cv;
}

/// A restored CV result is read through CrossValidationResult::Level(j),
/// which indexes levels[j - j0] for any j in [j0, j_star]: it must have
/// exactly one in-order entry per level of the sketch's fit.
bool CvResultFitsSketch(const core::CrossValidationResult& cv,
                        const StreamingWaveletSelectivity::Options& options) {
  if (cv.kind != options.kind) return false;
  if (cv.j0 != options.j0 || cv.j_star != options.j_max) return false;
  if (cv.j1_hat < cv.j0 || cv.j1_hat > cv.j_star) return false;
  if (cv.levels.size() != static_cast<size_t>(cv.j_star - cv.j0 + 1)) return false;
  for (size_t i = 0; i < cv.levels.size(); ++i) {
    const core::LevelCvResult& level = cv.levels[i];
    if (level.j != cv.j0 + static_cast<int>(i)) return false;
    if (level.kept < 0 || level.kept > level.total) return false;
  }
  return true;
}

}  // namespace

Status StreamingWaveletSelectivity::SaveStateImpl(io::Sink& sink) const {
  WDE_RETURN_IF_ERROR(io::WriteDouble(sink, options_.domain_lo));
  WDE_RETURN_IF_ERROR(io::WriteDouble(sink, options_.domain_hi));
  WDE_RETURN_IF_ERROR(io::WriteI32(sink, options_.j0));
  WDE_RETURN_IF_ERROR(io::WriteI32(sink, options_.j_max));
  WDE_RETURN_IF_ERROR(io::WriteU8(sink, static_cast<uint8_t>(options_.kind)));
  WDE_RETURN_IF_ERROR(io::WriteU64(sink, options_.refit_interval));
  WDE_RETURN_IF_ERROR(fit_.Serialize(sink));
  WDE_RETURN_IF_ERROR(io::WriteU64(sink, fitted_at_count_));
  WDE_RETURN_IF_ERROR(io::WriteU8(sink, estimate_.has_value() ? 1 : 0));
  if (estimate_.has_value()) WDE_RETURN_IF_ERROR(estimate_->Serialize(sink));
  WDE_RETURN_IF_ERROR(io::WriteU8(sink, cv_.has_value() ? 1 : 0));
  if (cv_.has_value()) WDE_RETURN_IF_ERROR(SerializeCvResult(*cv_, sink));
  return Status::OK();
}

Status StreamingWaveletSelectivity::LoadStateImpl(io::Source& source) {
  Options options;
  WDE_ASSIGN_OR_RETURN(options.domain_lo, io::ReadDouble(source));
  WDE_ASSIGN_OR_RETURN(options.domain_hi, io::ReadDouble(source));
  WDE_ASSIGN_OR_RETURN(options.j0, io::ReadI32(source));
  WDE_ASSIGN_OR_RETURN(options.j_max, io::ReadI32(source));
  WDE_ASSIGN_OR_RETURN(const uint8_t kind, io::ReadU8(source));
  WDE_ASSIGN_OR_RETURN(options.refit_interval, io::ReadU64(source));
  if (!internal::IsDomain(options.domain_lo, options.domain_hi) || kind > 1 ||
      options.refit_interval == 0) {
    return Status::InvalidArgument("corrupt wavelet sketch options");
  }
  options.kind = static_cast<core::ThresholdKind>(kind);
  Result<core::WaveletDensityFit> fit = core::WaveletDensityFit::Deserialize(source);
  if (!fit.ok()) return fit.status();
  if (fit->domain_lo() != options.domain_lo ||
      fit->domain_hi() != options.domain_hi ||
      fit->coefficients().j0() != options.j0 ||
      fit->coefficients().j_max() != options.j_max) {
    return Status::InvalidArgument(
        "corrupt wavelet sketch: options disagree with fit");
  }
  WDE_ASSIGN_OR_RETURN(const uint64_t fitted_at_count, io::ReadU64(source));
  if (fitted_at_count > fit->count()) {
    return Status::InvalidArgument("corrupt wavelet sketch fit point");
  }
  WDE_ASSIGN_OR_RETURN(const uint8_t has_estimate, io::ReadU8(source));
  std::optional<core::WaveletEstimate> estimate;
  if (has_estimate != 0) {
    Result<core::WaveletEstimate> loaded =
        core::WaveletEstimate::Deserialize(fit->coefficients().basis(), source);
    if (!loaded.ok()) return loaded.status();
    estimate = std::move(loaded).value();
  }
  WDE_ASSIGN_OR_RETURN(const uint8_t has_cv, io::ReadU8(source));
  std::optional<core::CrossValidationResult> cv;
  if (has_cv != 0) {
    Result<core::CrossValidationResult> loaded = DeserializeCvResult(source);
    if (!loaded.ok()) return loaded.status();
    if (!CvResultFitsSketch(*loaded, options)) {
      return Status::InvalidArgument(
          "corrupt wavelet sketch: CV result disagrees with fit");
    }
    cv = std::move(loaded).value();
  }
  if (source.remaining() != 0) {
    return Status::InvalidArgument("corrupt wavelet sketch snapshot: trailing bytes");
  }
  options_ = options;
  fit_ = std::move(fit).value();
  fitted_at_count_ = static_cast<size_t>(fitted_at_count);
  estimate_ = std::move(estimate);
  cv_ = std::move(cv);
  insert_scratch_.clear();
  return Status::OK();
}

std::string StreamingWaveletSelectivity::name() const {
  return Format("wavelet-%scv(j0=%d,j*=%d)",
                options_.kind == core::ThresholdKind::kSoft ? "st" : "ht",
                options_.j0, options_.j_max);
}

}  // namespace selectivity
}  // namespace wde
