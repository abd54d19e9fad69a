#ifndef WDE_SELECTIVITY_WAVELET_SELECTIVITY_HPP_
#define WDE_SELECTIVITY_WAVELET_SELECTIVITY_HPP_

#include <cmath>
#include <optional>
#include <vector>

#include "core/adaptive.hpp"
#include "core/cross_validation.hpp"
#include "core/estimator.hpp"
#include "selectivity/selectivity_estimator.hpp"

namespace wde {
namespace selectivity {

/// The paper's adaptive wavelet estimator packaged as a streaming selectivity
/// estimator. Because the HTCV/STCV criteria depend only on the running sums
/// (S1, S2, n) per coefficient (see `EmpiricalCoefficients`), inserts are
/// O(levels × filter_length) table lookups and *no sample buffer is kept* —
/// the estimator is a true sketch. The thresholded estimate is re-derived
/// from the sums when stale (every `refit_interval` inserts, or lazily at
/// query time), and range queries use exact basis antiderivatives.
///
/// Crucially for streams, the cross-validated thresholds adapt to the
/// dependence structure of the stream (the paper's point): no mixing
/// constants need to be known.
class StreamingWaveletSelectivity : public SelectivityEstimator {
 public:
  struct Options {
    double domain_lo = 0.0;
    double domain_hi = 1.0;
    int j0 = 2;
    int j_max = 11;  // level budget fixed up front (memory O(2^j_max))
    core::ThresholdKind kind = core::ThresholdKind::kSoft;
    size_t refit_interval = 1024;
    /// kIncremental (default) warm-starts each refit's cross-validation from
    /// the previous coefficient ranking (core::CvCache): only coefficients
    /// whose (S1, S2) sums changed since the last fit are re-sorted into the
    /// ranking, so the per-level O(K log K) sort is paid only for levels a
    /// delta actually touched. kScratch re-ranks every level from zero.
    /// Identical results either way (the cache never changes the canonical
    /// order, only how it is produced); reconstruction is full in both modes.
    /// A pacing knob like refit_interval: not serialized; restore preserves
    /// the live mode and cold-starts the cache.
    RefitMode refit_mode = RefitMode::kIncremental;
  };

  static Result<StreamingWaveletSelectivity> Create(
      const wavelet::WaveletBasis& basis, const Options& options);

  void Insert(double x) override;

  /// Genuinely batched insert: cleans the batch (drop non-finite, clamp),
  /// then feeds the coefficient accumulator level-by-level with hoisted
  /// table setup instead of per-sample. The periodic-refit cadence is
  /// replayed at the same stream positions as the scalar loop, so observable
  /// behavior is bit-identical.
  void InsertBatch(std::span<const double> xs) override;

  size_t count() const override { return fit_.count(); }
  std::string name() const override;

  /// Mergeable: the sketch state is the (S1, S2, n) running sums, which are
  /// additive — see `EmpiricalCoefficients::Merge`. A merged sketch refits
  /// from the combined sums at the next query and matches the sequential
  /// sketch (refit at the same count) to ~1e-12 relative.
  std::unique_ptr<SelectivityEstimator> CloneEmpty() const override;
  /// Folds `other`'s coefficient sums into this sketch and invalidates the
  /// cached estimate; requires identical options and a compatible basis.
  Status MergeFrom(const SelectivityEstimator& other) override;
  WDE_SELECTIVITY_MERGE_TAG()
  const char* snapshot_type_tag() const override { return "wavelet-cv"; }

  /// Brings the cached estimate up to date with the sums (CV +
  /// reconstruction); normally lazy. No-op when already fitted at the
  /// current count: every mutation of the sums also advances count(), so an
  /// unchanged count implies unchanged sums and an identical re-derivation.
  void Refit() const;

  /// Point density estimate (refits lazily like EstimateRange).
  double EstimateDensity(double x) const;

  /// The most recent cross-validation result, if any refit has happened.
  const std::optional<core::CrossValidationResult>& last_cv() const { return cv_; }

  /// One finest-level cell: the sketch resolves nothing narrower than
  /// 2^-j_max of its domain.
  double EqualityWidth() const override {
    return (options_.domain_hi - options_.domain_lo) *
           std::ldexp(1.0, -options_.j_max);
  }
  RangeQuery Domain() const override {
    return RangeQuery{options_.domain_lo, options_.domain_hi};
  }

  /// O(levels), not O(coefficients): the copy shares the (S1, S2) sums
  /// arena copy-on-write (see EmpiricalCoefficients's copy constructor).
  std::unique_ptr<SelectivityEstimator> CloneForView() const override {
    return std::make_unique<StreamingWaveletSelectivity>(*this);
  }

 protected:
  double EstimateRangeImpl(double a, double b) const override;

  /// Genuinely batched queries: one staleness check, then every mass kind
  /// (ranges, points, one-sided, CDF — the latter two as signed-CDF
  /// evaluations of the thresholded expansion) lowers to range endpoints
  /// answered in one pass per reconstruction level across the whole batch
  /// (exact basis antiderivatives); quantiles run the shared bisection.
  /// Bit-identical to the scalar lowering loop.
  void AnswerImpl(std::span<const Query> queries,
                  std::span<double> out) const override;

  /// Quiesce: run the (possibly warm-started) refit now.
  void ForceRefitImpl() const override { Refit(); }

  /// Persists the options, the (S1, S2, n) sums (with the basis identity —
  /// filter name + table resolution — so restore rebuilds bit-identical
  /// tables), and the cached thresholded estimate + CV result. The cache
  /// cannot be re-derived once the sums have moved past the fit point, so
  /// persisting it keeps mid-refit-interval saves bit-identical on restore.
  Status SaveStateImpl(io::Sink& sink) const override;
  Status LoadStateImpl(io::Source& source) override;

 private:
  StreamingWaveletSelectivity(core::WaveletDensityFit fit, const Options& options)
      : options_(options), fit_(std::move(fit)) {}

  void RefitIfStale() const;

  Options options_;
  core::WaveletDensityFit fit_;
  std::vector<double> insert_scratch_;  // cleaned batch, reused across calls
  mutable std::optional<core::WaveletEstimate> estimate_;
  mutable std::optional<core::CrossValidationResult> cv_;
  /// CV warm-start state (kIncremental only). Never serialized: a restored
  /// sketch cold-starts its first refit. Copied by value with the estimator,
  /// so CloneForView copies diverge without sharing.
  mutable core::CvCache cv_cache_;
  mutable size_t fitted_at_count_ = 0;
};

}  // namespace selectivity
}  // namespace wde

#endif  // WDE_SELECTIVITY_WAVELET_SELECTIVITY_HPP_
