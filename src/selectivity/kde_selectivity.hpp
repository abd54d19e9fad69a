#ifndef WDE_SELECTIVITY_KDE_SELECTIVITY_HPP_
#define WDE_SELECTIVITY_KDE_SELECTIVITY_HPP_

#include <optional>
#include <vector>

#include "kernel/kde.hpp"
#include "selectivity/selectivity_estimator.hpp"

namespace wde {
namespace selectivity {

/// Kernel-density selectivity baseline: buffers the stream (unlike the
/// wavelet sketch it is NOT bounded-memory), rebuilds an Epanechnikov KDE
/// with the rule-of-thumb bandwidth when stale, and answers every range as a
/// difference of kernel antiderivatives (KernelDensityEstimator::CdfAt —
/// O(log n + 64) per endpoint from the block prefix-moment index; one-sided/
/// CDF kinds use a single endpoint, bit-identical to the (-inf, x]
/// lowering).
///
/// Mergeable: the sample buffers concatenate in merge order and the KDE
/// refits from the merged buffer. Answers depend only on the *sorted
/// multiset* of buffered values — the rule-of-thumb bandwidth is derived
/// from sorted order statistics (RuleOfThumbBandwidthSorted) — so merges in
/// any order, including the sharded wrapper's round-robin partition, answer
/// bit-identically to sequential ingest of the same multiset (the only
/// possible buffer difference is the placement of ±0.0 among equal keys,
/// which every downstream expression treats identically).
///
/// Refits honor Options::refit_mode. kScratch re-sorts the whole buffer per
/// refit; kIncremental (the default) reuses the previously fitted KDE's
/// sorted sample buffer as a sorted prefix, sorts only the new tail and does
/// one stable in-place merge — O(Δ log Δ + n) instead of O(n log n) — into a
/// freshly allocated buffer (fitted buffers are shared with CloneForView
/// copies, so a refit never mutates them).
/// Both modes derive the bandwidth from the same sorted sequence, so their
/// answers are bitwise-identical (refit_equivalence_test).
///
/// Sorted-only views: CloneForView() force-refits this estimator (the
/// incremental tail merge) and returns a copy holding only the shared fitted
/// KDE — no copy of the raw stream. A view's raw values ARE its sorted
/// buffer, which changes nothing it answers (answers depend only on the
/// sorted multiset). count(), SaveState and MergeFrom-as-source read the
/// sorted buffer; Insert/InsertBatch/MergeFrom/MergeTailFrom
/// into a view first copy it back into the raw buffer. A view cannot be the
/// peer of MergeTailFrom: stream positions mean nothing on a sorted buffer.
class KdeSelectivity : public SelectivityEstimator {
 public:
  struct Options {
    double domain_lo = 0.0;
    double domain_hi = 1.0;
    size_t refit_interval = 1024;
    /// How refits rebuild the sorted sample buffer (see the class comment).
    /// A pacing knob like refit_interval: not serialized, not part of the
    /// merge-compatibility key; snapshot restore preserves the live mode.
    RefitMode refit_mode = RefitMode::kIncremental;
  };

  explicit KdeSelectivity(const Options& options) : options_(options) {}

  void Insert(double x) override;

  /// Batched append: one reservation for the clean subset; identical buffer
  /// contents to the scalar loop.
  void InsertBatch(std::span<const double> xs) override;

  size_t count() const override {
    return sorted_view_ ? kde_->sample_size() : values_.size();
  }
  std::string name() const override { return "kde-rot"; }

  /// The KDE's natural resolution is its bandwidth, but the bandwidth moves
  /// with refits; the declared equality width is the static domain fraction
  /// 1/1024 so point-query answers do not change meaning across refits.
  double EqualityWidth() const override {
    return (options_.domain_hi - options_.domain_lo) / 1024.0;
  }
  Interval Domain() const override {
    return Interval{options_.domain_lo, options_.domain_hi};
  }

  std::unique_ptr<SelectivityEstimator> CloneEmpty() const override;
  /// Appends `other`'s buffered values and invalidates the fitted KDE;
  /// requires identical options.
  Status MergeFrom(const SelectivityEstimator& other) override;
  /// Tail-merge support for the sharded incremental merged-view refresh:
  /// appends only other's values from `from_count` onward and leaves the
  /// fitted KDE intact (stale) for the next refit to delta-merge. Fails when
  /// `other` is a sorted-only view.
  bool SupportsTailMerge() const override { return true; }
  Status MergeTailFrom(const SelectivityEstimator& other,
                       size_t from_count) override;
  WDE_SELECTIVITY_MERGE_TAG()
  const char* snapshot_type_tag() const override { return "kde-rot"; }

  /// Force-refits this estimator, then returns a sorted-only view sharing
  /// the fitted KDE (sorted buffer and moment index) — see the class
  /// comment. Below four values nothing is fitted and the copy is plain.
  std::unique_ptr<SelectivityEstimator> CloneForView() const override;

 protected:
  /// clamp(F̂(b) − F̂(a)) from the kernel CDF; a (-inf, x] range (the
  /// Less/Cdf lowering) is a single endpoint.
  double EstimateRangeImpl(double a, double b) const override;
  /// State: options, the fit point, and one vector holding the fitted
  /// KDE's sorted sample followed by the unfitted tail in stream order.
  /// Restore validates every value (finite, inside the domain, the prefix
  /// ascending) and adopts the prefix as the fitted sample without sorting.
  /// A restored writer's raw buffer therefore holds its fitted prefix in
  /// sorted order, which changes nothing it answers or saves.
  Status SaveStateImpl(io::Sink& sink) const override;
  Status LoadStateImpl(io::Source& source) override;

  /// Batched queries: one staleness check/refit, then kernel-CDF integrals
  /// (windowed for one-sided kinds) straight off the fitted KDE; quantiles
  /// through the shared bisection. Bit-identical to the scalar loop.
  void AnswerImpl(std::span<const Query> queries,
                  std::span<double> out) const override;

  /// Refits whenever any unfitted tail exists (not just past the interval),
  /// so a quiesced estimator is fitted at its full count — exactly the state
  /// a fresh rebuild reaches on its first query.
  void ForceRefitImpl() const override;

 private:
  void RefitIfStale() const;
  /// Unconditional refit at the current count, honoring refit_mode.
  void Refit() const;
  /// The raw observations: values_, or the sorted buffer on a view.
  std::span<const double> Values() const {
    return sorted_view_ ? kde_->samples() : std::span<const double>(values_);
  }
  /// Turns a sorted-only view back into a writer: values_ = sorted buffer.
  void MaterializeValues();

  Options options_;
  /// Raw observations in arrival order; empty on a sorted-only view.
  std::vector<double> values_;
  /// True on a sorted-only view: kde_ is fitted at the full count and its
  /// sorted buffer stands in for values_.
  bool sorted_view_ = false;
  mutable std::optional<kernel::KernelDensityEstimator> kde_;
  mutable size_t fitted_at_count_ = 0;
};

}  // namespace selectivity
}  // namespace wde

#endif  // WDE_SELECTIVITY_KDE_SELECTIVITY_HPP_
