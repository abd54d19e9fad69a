#ifndef WDE_SELECTIVITY_SAMPLE_SELECTIVITY_HPP_
#define WDE_SELECTIVITY_SAMPLE_SELECTIVITY_HPP_

#include <vector>

#include "selectivity/selectivity_estimator.hpp"
#include "stats/rng.hpp"

namespace wde {
namespace selectivity {

/// Bernard-Vitter reservoir sampling baseline: keeps a fixed-size uniform
/// sample of the stream and answers range queries by the sample fraction.
///
/// Mergeable with a *distributional* (not pointwise) contract, unlike every
/// other estimator: MergeFrom draws a weighted reservoir union — slot by
/// slot, take from either side with probability proportional to its
/// remaining stream count, without replacement — which is exactly a uniform
/// capacity-sample of the concatenated stream, but not the bitwise sample a
/// sequential reservoir would have drawn. All randomness flows through this
/// estimator's own seeded RNG, so merges are deterministic in (states,
/// seed) and the sharded engine's fixed-K bit-identity across pool widths
/// still holds. When the peer has not yet overflowed its capacity, its
/// reservoir IS its whole sub-stream and the merge degenerates to an exact
/// replay.
class ReservoirSampleSelectivity : public SelectivityEstimator {
 public:
  ReservoirSampleSelectivity(size_t capacity, uint64_t seed = 42);

  void Insert(double x) override;
  size_t count() const override { return seen_; }
  std::string name() const override;

  /// The reservoir declares no domain and keeps raw values, so equality
  /// queries inherit the interface's exact-match lowering (width 0): the
  /// answer is the fraction of the sample exactly equal to x.
  ///
  /// Domain() reports the span of the current sample (quantile answers are
  /// bracketed by the observed data); the interface default [0, 1] applies
  /// while the reservoir is empty.
  RangeQuery Domain() const override;

  /// Clones carry the capacity and the construction seed (fresh RNG stream).
  std::unique_ptr<SelectivityEstimator> CloneEmpty() const override;
  /// Weighted reservoir union (see the class comment); requires identical
  /// capacity.
  Status MergeFrom(const SelectivityEstimator& other) override;
  WDE_SELECTIVITY_MERGE_TAG()
  const char* snapshot_type_tag() const override { return "reservoir"; }

  const std::vector<double>& reservoir() const { return reservoir_; }

  std::unique_ptr<SelectivityEstimator> CloneForView() const override {
    return std::make_unique<ReservoirSampleSelectivity>(*this);
  }

 protected:
  double EstimateRangeImpl(double a, double b) const override;
  /// Persists the RNG state too, so a restored reservoir continues the exact
  /// acceptance sequence the saved one would have produced.
  Status SaveStateImpl(io::Sink& sink) const override;
  Status LoadStateImpl(io::Source& source) override;

 private:
  size_t capacity_;
  size_t seen_ = 0;
  std::vector<double> reservoir_;
  stats::Rng rng_;
};

}  // namespace selectivity
}  // namespace wde

#endif  // WDE_SELECTIVITY_SAMPLE_SELECTIVITY_HPP_
