#ifndef WDE_SELECTIVITY_GRID2D_SELECTIVITY_HPP_
#define WDE_SELECTIVITY_GRID2D_SELECTIVITY_HPP_

#include <span>

#include "memory/arena.hpp"
#include "selectivity/selectivity_estimator.hpp"

namespace wde {
namespace selectivity {

/// 2-D equi-width grid histogram over a fixed rectangle domain: g × g cells
/// (g = 2^grid_log2) with the continuous-uniform assumption inside each cell
/// — the native 2-D estimator, and the only one that answers kRect.
///
/// Queries run off a lazily rebuilt inclusive 2-D prefix-sum table (summed-
/// area table, multidim/grid2d.hpp): a rectangle is four bilinear CDF
/// corners combined by inclusion-exclusion — O(1) per rect after the O(g²)
/// rebuild — and every 1-D kind lowers onto the axis-0 marginal
/// EstimateRangeImpl(a, b) = EstimateRectImpl(a, b, -inf, +inf).
///
/// Ingest is interleaved (x0, y0, x1, y1, ...): the first coordinate of an
/// observation is buffered raw, the second completes it — the whole
/// observation is dropped if EITHER coordinate is non-finite (dropping one
/// value alone would shift the interleave parity), otherwise each
/// coordinate clamps to its axis domain. count() reports complete
/// observations; a trailing unpaired coordinate is pending, not data.
///
/// Mergeable: cell counts are exact integer sums, so merging replicas over
/// disjoint sub-streams is bit-identical to one grid over the concatenated
/// stream. A peer's pending half-observation is not data and does not
/// travel (it is not an observation yet; the peer completes it with its own
/// next insert). No tail merge: additive-sum state re-merges in O(state)
/// anyway, so the sharded engine's scratch rebuild is already the right
/// cost — the documented scratch-only mode.
class Grid2dHistogram : public SelectivityEstimator {
 public:
  Grid2dHistogram(double lo0, double hi0, double lo1, double hi1,
                  int grid_log2);

  void Insert(double x) override;
  size_t count() const override { return count_; }
  std::string name() const override;

  /// One axis-0 cell: the grid's resolution along the first attribute.
  double EqualityWidth() const override { return w0_ / static_cast<double>(g_); }
  Interval Domain() const override {
    return Interval{lo0_, lo0_ + w0_};
  }
  int dims() const override { return 2; }

  std::unique_ptr<SelectivityEstimator> CloneEmpty() const override;
  /// Adds `other`'s cell counts element-wise; requires identical domains and
  /// grid size. The peer's pending coordinate (if any) is ignored — see the
  /// class comment.
  Status MergeFrom(const SelectivityEstimator& other) override;
  WDE_SELECTIVITY_MERGE_TAG()
  const char* snapshot_type_tag() const override { return "grid2d"; }

  int grid_log2() const { return grid_log2_; }

  /// Cell counts (column 0 of the arena), row-major over (axis-0 cell,
  /// axis-1 cell).
  std::span<const double> cell_counts() const { return cells_.F64(0); }

  /// O(1) + O(columns): the copy shares the cells arena copy-on-write.
  std::unique_ptr<SelectivityEstimator> CloneForView() const override {
    return std::make_unique<Grid2dHistogram>(*this);
  }

 protected:
  double EstimateRangeImpl(double a, double b) const override;
  double EstimateRectImpl(double lo0, double hi0, double lo1,
                          double hi1) const override;
  /// Quiesce: rebuild the prefix table now (the only lazy state).
  void ForceRefitImpl() const override { RebuildPrefixIfStale(); }
  Status SaveStateImpl(io::Sink& sink) const override;
  Status LoadStateImpl(io::Source& source) override;

 private:
  void RebuildPrefixIfStale() const;
  /// Full-axis spans in domain units.
  double hi0() const { return lo0_ + w0_; }
  double hi1() const { return lo1_ + w1_; }

  double lo0_;
  double w0_;  // full axis-0 span (hi0 - lo0), kept bitwise across clones
  double lo1_;
  double w1_;  // full axis-1 span
  int grid_log2_;
  size_t g_ = 0;
  size_t count_ = 0;  // complete observations
  bool have_pending_ = false;
  double pending_ = 0.0;  // raw first coordinate of a half-received observation
  /// Columns: [0] cell counts, [1] inclusive 2-D prefix sums (derived cache,
  /// lazily rebuilt). Copies share the arena copy-on-write; the first
  /// mutation (insert, merge, load, or a prefix rebuild) un-shares it.
  mutable memory::Arena cells_;
  mutable bool prefix_valid_ = false;
  mutable size_t prefix_built_at_count_ = 0;
};

}  // namespace selectivity
}  // namespace wde

#endif  // WDE_SELECTIVITY_GRID2D_SELECTIVITY_HPP_
