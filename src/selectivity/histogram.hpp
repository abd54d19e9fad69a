#ifndef WDE_SELECTIVITY_HISTOGRAM_HPP_
#define WDE_SELECTIVITY_HISTOGRAM_HPP_

#include <span>
#include <vector>

#include "memory/arena.hpp"
#include "selectivity/selectivity_estimator.hpp"

namespace wde {
namespace selectivity {

/// Classic equi-width histogram over a fixed domain with the
/// continuous-uniform assumption inside buckets — the standard optimizer
/// baseline the wavelet estimator competes with.
///
/// Queries run off a lazily rebuilt prefix-sum table: EstimateRangeImpl is
/// F(b) - F(a) with F evaluated in O(1) (bucket index + within-bucket
/// fraction), so ranges, one-sided predicates and CDF probes all cost O(1)
/// instead of a scan over every bucket, and the AnswerImpl override answers
/// Less/Cdf kinds with a single prefix lookup.
///
/// Mergeable: bucket counts are exact integer sums, so merging replicas over
/// disjoint sub-streams is bit-identical to one histogram over the
/// concatenated stream.
class EquiWidthHistogram : public SelectivityEstimator {
 public:
  EquiWidthHistogram(double lo, double hi, int buckets);

  void Insert(double x) override;
  size_t count() const override { return count_; }
  std::string name() const override;

  /// One bucket: the histogram's resolution is its equality width.
  double EqualityWidth() const override { return width_; }
  Interval Domain() const override;

  std::unique_ptr<SelectivityEstimator> CloneEmpty() const override;
  /// Adds `other`'s bucket counts element-wise; requires identical domain
  /// and bucket count.
  Status MergeFrom(const SelectivityEstimator& other) override;
  WDE_SELECTIVITY_MERGE_TAG()
  const char* snapshot_type_tag() const override { return "equi-width"; }

  int buckets() const { return static_cast<int>(buckets_); }

  /// Bucket counts (column 0 of the fitted-state arena).
  std::span<const double> bucket_counts() const { return bins_.F64(0); }

  /// O(1) + O(columns): the copy shares the bins arena copy-on-write.
  std::unique_ptr<SelectivityEstimator> CloneForView() const override {
    return std::make_unique<EquiWidthHistogram>(*this);
  }

 protected:
  double EstimateRangeImpl(double a, double b) const override;
  /// One staleness check for the whole batch, then Less/Cdf kinds answer
  /// with a single prefix-sum lookup (bit-identical to the two-lookup range
  /// lowering because F(domain lo) is exactly 0); other kinds fall back to
  /// the canonical lowering.
  void AnswerImpl(std::span<const Query> queries,
                  std::span<double> out) const override;
  /// Quiesce: rebuild the prefix table now (the only lazy state).
  void ForceRefitImpl() const override { RebuildPrefixIfStale(); }
  Status SaveStateImpl(io::Sink& sink) const override;
  Status LoadStateImpl(io::Source& source) override;

 private:
  void RebuildPrefixIfStale() const;
  /// Estimated CDF at x (prefix mass + within-bucket fraction, continuous-
  /// uniform inside the bucket). Requires a fresh prefix table and count_>0.
  double CdfAt(double x) const;

  double lo_;
  double width_;
  size_t buckets_ = 0;
  size_t count_ = 0;
  /// Columns: [0] bucket counts, [1] exclusive prefix sums (derived cache,
  /// lazily rebuilt). Copies share the arena copy-on-write; the first
  /// mutation (insert, merge, load, or a prefix rebuild) un-shares it.
  mutable memory::Arena bins_;
  mutable bool prefix_valid_ = false;
  mutable size_t prefix_built_at_count_ = 0;
};

/// Equi-depth (equi-height) histogram: bucket boundaries at sample quantiles,
/// equal mass per bucket, linear interpolation inside buckets. Rebuilt lazily
/// from the retained values when stale (rebuild cost shows up in the perf
/// benches, as it would in ANALYZE).
///
/// One copy of the retained values: a sorted prefix column (shared
/// copy-on-write with views) plus an arrival-order tail of later inserts. A
/// rebuild folds the tail into a new prefix (FoldSortedTail). The boundaries
/// are a deterministic function of the sorted sequence, so the histogram
/// answers bitwise as a fresh one fed the same stream
/// (refit_equivalence_test).
///
/// Mergeable: the retained values concatenate, and the lazy rebuild sorts,
/// so merged replicas answer exactly like the sequential histogram.
class EquiDepthHistogram : public SelectivityEstimator {
 public:
  EquiDepthHistogram(double lo, double hi, int buckets);

  void Insert(double x) override;
  size_t count() const override { return Prefix().size() + tail_.size(); }
  std::string name() const override;

  /// One average-depth bucket of the domain (the boundaries move with the
  /// data; the declared resolution is the static domain fraction).
  double EqualityWidth() const override {
    return (hi_ - lo_) / static_cast<double>(buckets_);
  }
  Interval Domain() const override { return Interval{lo_, hi_}; }

  /// Rebuilds, then copies: the copy shares the prefix, with no tail.
  std::unique_ptr<SelectivityEstimator> CloneForView() const override {
    ForceRefit();
    return std::make_unique<EquiDepthHistogram>(*this);
  }

  std::unique_ptr<SelectivityEstimator> CloneEmpty() const override;
  /// Appends `other`'s retained values and invalidates the boundary cache;
  /// requires identical domain and bucket count.
  Status MergeFrom(const SelectivityEstimator& other) override;
  /// Tail-merge support for the sharded incremental merged-view refresh:
  /// appends only other's tail values from `from_count` onward (inside its
  /// sorted prefix: FailedPrecondition); the next rebuild folds them in.
  bool SupportsTailMerge() const override { return true; }
  Status MergeTailFrom(const SelectivityEstimator& other,
                       size_t from_count) override;
  WDE_SELECTIVITY_MERGE_TAG()
  const char* snapshot_type_tag() const override { return "equi-depth"; }

 protected:
  double EstimateRangeImpl(double a, double b) const override;
  /// One boundary rebuild for the whole batch, then Less/Cdf kinds answer
  /// with a single CdfAt (bit-identical to the range lowering: CdfAt at the
  /// lower domain edge is exactly 0); other kinds fall back to the
  /// canonical lowering.
  void AnswerImpl(std::span<const Query> queries,
                  std::span<double> out) const override;
  /// Only the values travel (prefix first; restore takes any order into the
  /// tail): the restored histogram re-derives identical boundaries.
  Status SaveStateImpl(io::Sink& sink) const override;
  Status LoadStateImpl(io::Source& source) override;
  /// Quiesce: rebuild the boundary cache now (the only lazy state).
  void ForceRefitImpl() const override { RebuildIfStale(); }

 private:
  void RebuildIfStale() const;
  /// Derives the buckets_ + 1 boundary values from an ascending-sorted view
  /// of the retained values, so the cache is a deterministic function of the
  /// sorted sequence alone.
  void BuildBoundariesFromSorted(std::span<const double> sorted) const;
  /// Estimated CDF at x from the bucket boundaries.
  double CdfAt(double x) const;

  double lo_;
  double hi_;
  int buckets_;
  std::span<const double> Prefix() const {
    return prefix_.empty() ? std::span<const double>() : prefix_.F64(0);
  }

  mutable memory::Arena prefix_;      // one ascending column, or none
  mutable std::vector<double> tail_;  // inserted since the last rebuild
  mutable std::vector<double> boundaries_;  // buckets_ + 1 entries
};

}  // namespace selectivity
}  // namespace wde

#endif  // WDE_SELECTIVITY_HISTOGRAM_HPP_
