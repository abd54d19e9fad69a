#ifndef WDE_SELECTIVITY_WAVELET_SYNOPSIS_HPP_
#define WDE_SELECTIVITY_WAVELET_SYNOPSIS_HPP_

#include <vector>

#include "selectivity/selectivity_estimator.hpp"
#include "util/result.hpp"
#include "wavelet/dwt.hpp"
#include "wavelet/filter.hpp"

namespace wde {
namespace selectivity {

/// The classic database "wavelet synopsis" (Matias–Vitter–Wang, SIGMOD'98):
/// take the Haar DWT of the equi-width frequency vector and keep only the
/// `budget` largest-magnitude coefficients. This is the standard DB
/// compression baseline the paper's estimator should be compared against:
/// the synopsis thresholds by a fixed *count* (space budget), whereas the
/// adaptive estimator thresholds by cross-validated per-level *levels*
/// (statistical risk). Tests and the selectivity benches put them side by
/// side.
///
/// Maintains the count grid incrementally; the compressed transform is
/// rebuilt lazily when stale. The truncated reconstruction can dip below
/// zero or overshoot, so range answers are clamped to [0, 1].
///
/// Mergeable: the frequency grid is exact integer cell counts, so merging
/// replicas over disjoint sub-streams is bit-identical to one synopsis over
/// the concatenated stream (the top-B compression reruns on the merged grid).
class WaveletSynopsisSelectivity : public SelectivityEstimator {
 public:
  struct Options {
    double domain_lo = 0.0;
    double domain_hi = 1.0;
    int grid_log2 = 10;      // 2^10 base cells
    size_t budget = 64;      // coefficients retained
    size_t rebuild_interval = 1024;
  };

  static Result<WaveletSynopsisSelectivity> Create(const Options& options);

  void Insert(double x) override;
  size_t count() const override { return count_; }
  std::string name() const override;

  /// One grid cell: the synopsis resolves nothing narrower than its base
  /// frequency grid.
  double EqualityWidth() const override {
    return (options_.domain_hi - options_.domain_lo) /
           static_cast<double>(counts_.size());
  }
  RangeQuery Domain() const override {
    return RangeQuery{options_.domain_lo, options_.domain_hi};
  }

  std::unique_ptr<SelectivityEstimator> CloneEmpty() const override;
  /// Adds `other`'s cell counts element-wise and invalidates the compressed
  /// transform; requires identical options.
  Status MergeFrom(const SelectivityEstimator& other) override;
  WDE_SELECTIVITY_MERGE_TAG()
  const char* snapshot_type_tag() const override { return "haar-synopsis"; }

  /// Number of non-zero retained coefficients after the last rebuild.
  size_t RetainedCoefficients() const;

  std::unique_ptr<SelectivityEstimator> CloneForView() const override {
    return std::unique_ptr<SelectivityEstimator>(
        new WaveletSynopsisSelectivity(*this));
  }

 protected:
  double EstimateRangeImpl(double a, double b) const override;
  /// Persists the integer count grid bit-exactly plus, when present, the
  /// compressed reconstruction cache (it cannot be re-derived once the grid
  /// has moved on), so a mid-rebuild-interval save restores to the same —
  /// possibly stale — answers the saved synopsis was serving.
  Status SaveStateImpl(io::Sink& sink) const override;
  Status LoadStateImpl(io::Source& source) override;
  /// Quiesce: rebuild the compressed transform at the current count (the
  /// interval gate of RebuildIfStale does not apply to a forced refit).
  void ForceRefitImpl() const override {
    if (!reconstructed_.empty() && built_at_count_ == count_) return;
    reconstructed_.clear();  // defeat the interval gate; rebuild runs now
    RebuildIfStale();
  }

 private:
  explicit WaveletSynopsisSelectivity(const Options& options);

  void RebuildIfStale() const;

  Options options_;
  wavelet::WaveletFilter haar_;
  std::vector<double> counts_;
  size_t count_ = 0;
  mutable std::vector<double> reconstructed_;  // smoothed counts after top-B
  mutable size_t built_at_count_ = 0;
  mutable size_t retained_ = 0;
};

}  // namespace selectivity
}  // namespace wde

#endif  // WDE_SELECTIVITY_WAVELET_SYNOPSIS_HPP_
