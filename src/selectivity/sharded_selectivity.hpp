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
/// ThreadPool, and queries are answered from a lazily refreshed merged view —
/// delta-appended from per-replica high-water marks by default, rebuilt from
/// zero under Options::refit_mode == kScratch (see Options).
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
    /// Number of shard replicas K (>= 1).
    size_t shards = 4;
    /// Contiguous stream positions per block (>= 1). Larger blocks amortize
    /// per-chunk dispatch; smaller blocks balance skewed batch sizes.
    size_t block_size = 4096;
    /// Executor for the per-shard ingest tasks; nullptr uses
    /// parallel::ThreadPool::Shared(). The pool choice affects scheduling
    /// only, never results.
    parallel::ThreadPool* pool = nullptr;
    /// The merged query view is rebuilt once at least this many values
    /// (>= 1) arrived since it was last built. The default 1 rebuilds
    /// whenever any insert intervened — always-fresh answers, but a
    /// CloneEmpty + K MergeFrom rebuild per insert/query alternation. For
    /// interleaved workloads set this to the prototype's refit cadence:
    /// queries then answer from a view at most merge_refresh_interval - 1
    /// values stale, exactly like the sequential sketch between refits.
    /// Staleness depends only on stream positions, so determinism is
    /// unaffected.
    size_t merge_refresh_interval = 1;
    /// kScratch rebuilds the stale merged view from zero every time:
    /// CloneEmpty + K full MergeFrom — O(total data) per refresh. With
    /// kIncremental (the default) the engine tracks a per-replica high-water
    /// mark (the replica count folded into the current view) and, when the
    /// inner type supports MergeTailFrom, refreshes the existing view by
    /// appending only each replica's delta and force-refitting once —
    /// O(view + Δ log Δ) instead of O(n log n). Types without tail merges
    /// (additive-sum sketches, where a full re-merge is already O(state))
    /// fall back to the scratch rebuild. Answers are bitwise-identical in
    /// both modes (refit_equivalence_test).
    RefitMode refit_mode = RefitMode::kIncremental;
  };

  /// Builds K empty replicas of `prototype` (which contributes configuration
  /// only, not data). Fails if the prototype does not support merging or the
  /// options are degenerate.
  ///
  /// Replicas are exact clones, so a prototype with periodic refits (e.g.
  /// the wavelet sketch's refit_interval) runs those refits inside every
  /// shard even though queries read only the merged view. For pure sharded
  /// ingest, disable the prototype's refit cadence (huge refit_interval) —
  /// the merged view refits on demand after each rebuild regardless — and
  /// pace answer freshness with merge_refresh_interval instead.
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
  RangeQuery Domain() const override { return prototype_->Domain(); }
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

  /// Writes a whole-file snapshot of this engine — partition metadata
  /// (K, block size, refresh cadence, stream position) plus one nested
  /// envelope per shard replica and the merged query view when present — so
  /// an ingest node can persist its state and a restart (or another process)
  /// can Restore() and continue ingesting at the exact stream position, with
  /// bit-identical answers.
  Status Checkpoint(const std::string& path) const;

  /// Restores a checkpoint written by Checkpoint(): fully replaces shard
  /// layout and state (the executor pool is a runtime resource and is kept).
  /// On any error this estimator is untouched.
  ///
  /// A paced merged view never crosses a restore boundary: when the
  /// checkpoint's view predates pending inserts (it was stale within the
  /// merge_refresh_interval budget when saved), the restored engine discards
  /// it and rebuilds from the replicas on first query, so a restart can only
  /// tighten staleness, never extend a stale view's lifetime into the new
  /// process. This is the one deliberate carve-out from bit-identical
  /// restore: it changes answers only in the mid-pacing-window case, and
  /// only to the fresher answers a rebuild gives.
  Status Restore(const std::string& path);

  size_t shards() const { return replicas_.size(); }
  const SelectivityEstimator& shard(size_t i) const { return *replicas_[i]; }
  /// The merged estimator queries are answered from (rebuilds if stale).
  const SelectivityEstimator& MergedView() const { return Merged(); }

  /// Returns a fully merged copy of the current shard state — always up to
  /// date with the live replicas regardless of the pacing cadence — as an
  /// independent estimator of the prototype's concrete type. The caller owns
  /// the result, so it can be frozen and shared (the serving layer publishes
  /// these as immutable epoch views). Under kScratch this is a from-zero
  /// CloneEmpty + MergeFrom over every replica; under kIncremental it
  /// CloneForView-copies the engine's merged view (copy-on-write arena
  /// share — fitted state is never mutated by later refreshes, which build
  /// new buffers) and folds each replica's tail above the high-water mark
  /// into the clone. Neither path touches the engine's own view or pacing
  /// budget, so extraction never changes what subsequent engine queries
  /// answer. Answers are bit-identical either way.
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

  /// Nested envelopes: partition metadata, then prototype, replicas and the
  /// optional merged view through the registry's envelope framing.
  Status SaveStateImpl(io::Sink& sink) const override;
  Status LoadStateImpl(io::Source& source) override;

  /// Quiesce: refresh the merged view to the live replica state (resetting
  /// the pacing budget) and force-refit it, so subsequent queries are pure
  /// reads of an up-to-date view.
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
  SelectivityEstimator& Merged() const;
  std::unique_ptr<SelectivityEstimator> BuildMerged() const;
  /// Brings merged_ up to date with the live replicas: per-replica
  /// MergeTailFrom above the high-water marks + one forced refit on the
  /// incremental path, from-zero BuildMerged otherwise (kScratch, no prior
  /// view, stale/absent marks, or an inner type without tail merges). Does
  /// NOT touch pending_since_merge_ — callers own the pacing budget.
  void RefreshMerged() const;

  Options options_;
  std::unique_ptr<SelectivityEstimator> prototype_;  // empty; config keeper
  std::vector<std::unique_ptr<SelectivityEstimator>> replicas_;
  size_t position_ = 0;  // stream positions offered so far
  mutable std::unique_ptr<SelectivityEstimator> merged_;
  mutable size_t pending_since_merge_ = 0;  // values since merged_ was built
  /// Per-replica counts already folded into merged_ (kIncremental only).
  /// Not serialized: the loads reconstruct it — a merged view only survives
  /// a restore when pending == 0, i.e. when it holds exactly the replica
  /// counts — and MergeFrom clears it along with the view.
  mutable std::vector<size_t> merged_hw_;
};

}  // namespace selectivity
}  // namespace wde

#endif  // WDE_SELECTIVITY_SHARDED_SELECTIVITY_HPP_
