#ifndef WDE_SELECTIVITY_KDE_SELECTIVITY_HPP_
#define WDE_SELECTIVITY_KDE_SELECTIVITY_HPP_

#include <optional>
#include <span>
#include <vector>

#include "kernel/kde.hpp"
#include "memory/arena.hpp"
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
/// One copy of the observations: the fitted KDE's sorted sample column is
/// the prefix, and `tail_` holds only the values inserted since the last
/// refit, in arrival order. A refit folds the tail into a NEW column
/// (FoldSortedTail) and clears it; fitted columns are shared copy-on-write
/// with CloneForView copies and never mutated. Answers depend only on the
/// *sorted multiset* of observations — the rule-of-thumb bandwidth is
/// derived from sorted order statistics (RuleOfThumbBandwidthSorted) — so
/// merges in any order, including the sharded wrapper's round-robin
/// partition, answer bit-identically to sequential ingest of the same
/// multiset. The column's order is canonical (OrderKey: −0.0 before +0.0),
/// so the buffer, and with it the snapshot, is the same bytes too.
///
/// Refits honor Options::refit_mode. kScratch radix-sorts every observation
/// per refit; kIncremental (the default) radix-sorts a copy of the tail and
/// merges it with the prefix straight into the new column, which AdoptSorted
/// then verifies and indexes in one sweep — O(Δ + n), one write and one read
/// of the column. Both modes build the same sorted column, so their answers
/// and snapshots are bitwise-identical (refit_equivalence_test). A sample
/// without spread (every value equal) has no fit: its refit keeps the sorted
/// fold as an unfitted prefix, queries answer the exact fraction of it in
/// O(log n), and the fit is retried only once a new value arrives.
///
/// Mergeable: MergeFrom moves both sides' observations into the tail and
/// drops the fit, so the next query refits from the merged multiset.
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

  explicit KdeSelectivity(const Options& options) : options_(options) {
    WDE_CHECK(internal::IsDomain(options.domain_lo, options.domain_hi),
              "domain must be finite lo < hi with a finite width");
  }

  void Insert(double x) override;

  /// Batched append: one reservation for the clean subset; identical buffer
  /// contents to the scalar loop.
  void InsertBatch(std::span<const double> xs) override;

  size_t count() const override { return Prefix().size() + tail_.size(); }
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
  /// Appends `other`'s observations to the tail and drops the fitted KDE;
  /// requires identical options.
  Status MergeFrom(const SelectivityEstimator& other) override;
  /// Tail-merge support for the sharded incremental merged-view refresh:
  /// appends only other's values from `from_count` onward and leaves the
  /// fitted KDE intact (stale) for the next refit to delta-merge. Stream
  /// positions exist only in the tail, so `from_count` below other's fitted
  /// prefix fails with FailedPrecondition and leaves this estimator as is.
  bool SupportsTailMerge() const override { return true; }
  Status MergeTailFrom(const SelectivityEstimator& other,
                       size_t from_count) override;
  WDE_SELECTIVITY_MERGE_TAG()
  const char* snapshot_type_tag() const override { return "kde-rot"; }

  /// Force-refits this estimator, then copies it: the copy shares the fitted
  /// KDE (sorted column and moment index), or the unfitted prefix of a
  /// sample without spread, and its tail is empty. Below four values nothing
  /// is fitted and the tail is copied.
  std::unique_ptr<SelectivityEstimator> CloneForView() const override;

 protected:
  /// clamp(F̂(b) − F̂(a)) from the kernel CDF; a (-inf, x] range (the
  /// Less/Cdf lowering) is a single endpoint.
  double EstimateRangeImpl(double a, double b) const override;
  /// State: options, the fitted prefix size, and one vector holding the
  /// fitted KDE's sorted sample followed by the tail in arrival order — the
  /// in-memory layout itself. Restore reads the prefix straight into a new
  /// sample column and the rest into the tail, validates every value
  /// (finite, inside the domain, the prefix ascending) and adopts the prefix
  /// as the fitted sample without sorting.
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
  /// The sorted prefix: the fitted KDE's sample, or the unfitted fold of a
  /// sample without spread; empty before the first refit.
  std::span<const double> Prefix() const {
    if (kde_.has_value()) return kde_->samples();
    return unfit_.empty() ? std::span<const double>() : unfit_.F64(0);
  }

  Options options_;
  /// Observations inserted since the last successful refit, in arrival
  /// order; every observation when nothing is fitted.
  mutable std::vector<double> tail_;
  mutable std::optional<kernel::KernelDensityEstimator> kde_;
  /// The sorted fold of a refit that found no spread, while kde_ is empty;
  /// shared copy-on-write with views like a fitted column.
  mutable memory::Arena unfit_;
};

}  // namespace selectivity
}  // namespace wde

#endif  // WDE_SELECTIVITY_KDE_SELECTIVITY_HPP_
