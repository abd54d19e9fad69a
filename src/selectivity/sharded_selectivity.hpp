#ifndef WDE_SELECTIVITY_SHARDED_SELECTIVITY_HPP_
#define WDE_SELECTIVITY_SHARDED_SELECTIVITY_HPP_

#include <memory>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "selectivity/selectivity_estimator.hpp"
#include "util/result.hpp"

namespace wde {
namespace selectivity {

/// Sharded parallel ingest over any mergeable SelectivityEstimator: K replica
/// estimators (built with the prototype's CloneEmpty) each own a deterministic
/// slice of the stream, batch inserts fan out across the replicas on a
/// ThreadPool, and queries are answered from one merged view that is always
/// current: any query, ForceRefit() or ExtractMergedView() first brings it up
/// to the live replicas: delta-appended from per-replica high-water marks
/// when the inner type supports tail merges, else rebuilt from zero (see
/// Merged()).
///
/// Partitioning rule: stream position p (the running count of values offered,
/// including dropped non-finite ones) maps to shard (p / block_size) mod K —
/// contiguous blocks, round-robin across shards. The rule is a pure function
/// of (K, block_size, stream position), NOT of the thread count or schedule,
/// and each shard replica is touched by exactly one task per batch, so for a
/// fixed K the entire estimator state — and every query answer — is
/// bit-identical across runs, thread counts and pool sizes. Merging replicas
/// reorders floating-point accumulation relative to the sequential estimator,
/// so merged answers match a sequential estimator over the same stream
/// exactly for integer-count state and to ~1e-12 relative for running-sum
/// state (see the interface's mergeability contract).
///
/// Like every estimator, the wrapper is single-writer/single-reader; the
/// parallelism is internal to InsertBatch.
class ShardedSelectivityEstimator : public SelectivityEstimator {
 public:
  struct Options {
    /// Number of shard replicas K, in [1, 65536].
    size_t shards = 4;
    /// Contiguous stream positions per block (>= 1). Larger blocks amortize
    /// per-chunk dispatch; smaller blocks balance skewed batch sizes.
    size_t block_size = 4096;
    /// Executor for the per-shard ingest tasks; nullptr uses
    /// parallel::ThreadPool::Shared(). The pool choice affects scheduling
    /// only, never results.
    parallel::ThreadPool* pool = nullptr;
  };

  /// Builds K empty replicas of `prototype` (which contributes configuration
  /// only, not data). Fails if the prototype does not support merging or the
  /// options are degenerate.
  ///
  /// Replicas are exact clones, so a prototype with periodic refits (e.g.
  /// the wavelet sketch's refit_interval) runs those refits inside every
  /// shard even though queries read only the merged view. For pure sharded
  /// ingest, disable the prototype's refit cadence (huge refit_interval) —
  /// the merged view refits on demand after each refresh regardless.
  static Result<ShardedSelectivityEstimator> Create(
      const SelectivityEstimator& prototype, const Options& options);

  /// Routes one value to the shard owning the current stream position.
  void Insert(double x) override;

  /// Splits the batch at block boundaries, hands each shard its chunks in
  /// stream order, and runs the K shard-ingest tasks on the pool. Empty
  /// spans are a no-op.
  void InsertBatch(std::span<const double> xs) override;

  /// Sum of the shard counts (values retained, not positions offered).
  size_t count() const override;
  std::string name() const override;

  /// Query semantics are the prototype's: resolution and domain forward to
  /// the configuration keeper, so a sharded estimator lowers point and
  /// quantile queries exactly like its underlying type.
  double EqualityWidth() const override { return prototype_->EqualityWidth(); }
  Interval Domain() const override { return prototype_->Domain(); }
  /// A sharded multi-dimensional estimator is itself multi-dimensional:
  /// Create() requires block_size % dims == 0, so blocks begin at observation
  /// boundaries and the interleaved coordinates of one observation always
  /// land in the same shard.
  int dims() const override { return prototype_->dims(); }

  /// Sharded estimators merge shard-wise with a sharded estimator of the
  /// same K/block size and compatible replicas — the distributed-node merge
  /// path.
  std::unique_ptr<SelectivityEstimator> CloneEmpty() const override;
  Status MergeFrom(const SelectivityEstimator& other) override;
  WDE_SELECTIVITY_MERGE_TAG()
  const char* snapshot_type_tag() const override { return "sharded"; }

  size_t shards() const { return replicas_.size(); }
  const SelectivityEstimator& shard(size_t i) const { return *replicas_[i]; }

  /// ForceRefit(), then a CloneForView copy of the merged view: an
  /// independent estimator of the prototype's concrete type holding the
  /// current shard state. The caller owns the result, so it can be frozen
  /// and shared (the serving layer publishes these as immutable epoch
  /// views); fitted buffers are shared copy-on-write, and later refreshes
  /// of the engine's view build new ones. The view being always current,
  /// an extract changes no later answer: it only refreshes what the next
  /// query would.
  std::unique_ptr<SelectivityEstimator> ExtractMergedView() const;

  /// A sharded engine's view is its merged extract (ExtractMergedView): one
  /// single estimator of the prototype's type, cheaper to query than the
  /// wrapper.
  std::unique_ptr<SelectivityEstimator> CloneForView() const override {
    return ExtractMergedView();
  }

 protected:
  double EstimateRangeImpl(double a, double b) const override;

  /// Answers the whole mixed-kind batch from the merged view — one merge,
  /// then the merged estimator's own batched query path, fanned out across
  /// the pool in deterministic contiguous chunks for large batches. Queries
  /// are answered by the MERGED state, never by combining per-shard answers:
  /// mass kinds would combine, but quantiles of per-shard sub-streams do not
  /// compose into the global quantile. The first query is answered alone to
  /// warm the merged view's lazily fitted caches (refit/rebuild/prefix
  /// tables), so the parallel chunks only read; this leans on the AnswerImpl
  /// contract that the first dispatched query of a batch refreshes ALL lazy
  /// state regardless of kind (see selectivity_estimator.hpp). Answers are
  /// independent per query, so chunking is bit-identical to one serial pass.
  void AnswerImpl(std::span<const Query> queries,
                  std::span<double> out) const override;

  /// Nested envelopes: partition metadata (K, block size, stream position),
  /// then prototype and replicas through the registry's envelope framing, so
  /// a restored engine continues ingesting at the exact stream position with
  /// bit-identical answers. The merged view is derived and not saved, so the
  /// bytes never depend on query history. The layout keeps two retired
  /// fields (a refresh interval, written 1, and a pending count, written 0)
  /// and a view flag written 0.
  Status SaveStateImpl(io::Sink& sink) const override;

  /// Fully replaces shard layout and state; the executor pool is a runtime
  /// resource and is kept. The layout must pass Create's rule, and every
  /// replica must merge into the prototype (an empty clone of each is
  /// merged into one of it), so no later refresh can meet an incompatible
  /// replica. On any error this estimator is untouched. The retired fields
  /// are still validated (a refresh interval of 0 is corrupt) and a saved
  /// merged view from an older writer is parsed and type-checked, then
  /// dropped: the first query rebuilds the view from the replicas.
  Status LoadStateImpl(io::Source& source) override;

  /// Quiesce: refresh the merged view to the live replica state and
  /// force-refit it, so subsequent queries are pure reads of it.
  void ForceRefitImpl() const override;

 private:
  ShardedSelectivityEstimator(const Options& options,
                              std::unique_ptr<SelectivityEstimator> prototype,
                              std::vector<std::unique_ptr<SelectivityEstimator>> replicas)
      : options_(options),
        prototype_(std::move(prototype)),
        replicas_(std::move(replicas)) {}

  parallel::ThreadPool& pool() const {
    return options_.pool != nullptr ? *options_.pool
                                    : parallel::ThreadPool::Shared();
  }
  /// The one refresh: brings merged_ up to date with the live replicas and
  /// returns it. A no-op while every replica count equals its mark. Else a
  /// from-zero CloneEmpty + K MergeFrom rebuild when there is no view yet or
  /// the inner type lacks tail merges (additive-sum sketches, where a full
  /// re-merge is already O(state)), and otherwise per-replica MergeTailFrom
  /// above the marks + one forced refit — O(view + Δ log Δ) instead of
  /// O(n log n). Either way the view answers as the rebuild a fresh engine
  /// makes on its first query (refit_equivalence_test).
  SelectivityEstimator& Merged() const;

  Options options_;
  std::unique_ptr<SelectivityEstimator> prototype_;  // empty; config keeper
  std::vector<std::unique_ptr<SelectivityEstimator>> replicas_;
  size_t position_ = 0;  // stream positions offered so far
  /// Derived state, never serialized: LoadStateImpl and MergeFrom drop it.
  mutable std::unique_ptr<SelectivityEstimator> merged_;
  /// Per-replica counts folded into merged_ (meaningful while it exists).
  mutable std::vector<size_t> merged_hw_;
};

}  // namespace selectivity
}  // namespace wde

#endif  // WDE_SELECTIVITY_SHARDED_SELECTIVITY_HPP_
