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
/// Rebuilds honor the RefitMode passed at construction. kScratch re-sorts
/// the whole retained buffer per rebuild; kIncremental (the default)
/// maintains a sorted shadow of the retained buffer across rebuilds — sort
/// only the values appended since the last rebuild, one stable in-place
/// merge — so a rebuild costs O(Δ log Δ + n) instead of O(n log n). The
/// boundaries are a deterministic function of the sorted sequence, so both
/// modes answer bitwise-identically (refit_equivalence_test).
///
/// Mergeable: the retained sample buffers concatenate, and the lazy rebuild
/// sorts, so merged replicas answer exactly like the sequential histogram.
class EquiDepthHistogram : public SelectivityEstimator {
 public:
  EquiDepthHistogram(double lo, double hi, int buckets,
                     RefitMode refit_mode = RefitMode::kIncremental);

  void Insert(double x) override;
  size_t count() const override { return values_.size(); }
  std::string name() const override;

  /// One average-depth bucket of the domain (the boundaries move with the
  /// data; the declared resolution is the static domain fraction).
  double EqualityWidth() const override {
    return (hi_ - lo_) / static_cast<double>(buckets_);
  }
  Interval Domain() const override { return Interval{lo_, hi_}; }

  std::unique_ptr<SelectivityEstimator> CloneForView() const override {
    return std::make_unique<EquiDepthHistogram>(*this);
  }

  std::unique_ptr<SelectivityEstimator> CloneEmpty() const override;
  /// Appends `other`'s retained values and invalidates the boundary cache;
  /// requires identical domain and bucket count.
  Status MergeFrom(const SelectivityEstimator& other) override;
  /// Tail-merge support for the sharded incremental merged-view refresh:
  /// appends only other's values from `from_count` onward; the sorted shadow
  /// and boundary cache stay (stale) for the next rebuild to delta-merge.
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
  /// The boundary cache is rebuilt whenever the retained count changes, so
  /// only the values travel: the restored histogram re-derives identical
  /// boundaries at its first query.
  Status SaveStateImpl(io::Sink& sink) const override;
  Status LoadStateImpl(io::Source& source) override;
  /// Quiesce: rebuild the boundary cache now (the only lazy state).
  void ForceRefitImpl() const override { RebuildIfStale(); }

 private:
  void RebuildIfStale() const;
  /// Derives the buckets_ + 1 boundary values from an ascending-sorted view
  /// of the retained values — shared by both refit modes, so the cache is a
  /// deterministic function of the sorted sequence alone.
  void BuildBoundariesFromSorted(std::span<const double> sorted) const;
  /// Estimated CDF at x from the bucket boundaries.
  double CdfAt(double x) const;

  double lo_;
  double hi_;
  int buckets_;
  RefitMode refit_mode_;
  std::vector<double> values_;
  /// kIncremental only: ascending-sorted shadow of the prefix
  /// values_[0..sorted_.size()) (the buffer only ever appends, so the prefix
  /// is immutable). Snapshot loads clear it — the first rebuild after a
  /// restore pays one full sort, after which deltas are cheap again.
  mutable std::vector<double> sorted_;
  mutable std::vector<double> boundaries_;  // buckets_ + 1 entries
  mutable size_t built_at_count_ = 0;
};

}  // namespace selectivity
}  // namespace wde

#endif  // WDE_SELECTIVITY_HISTOGRAM_HPP_
