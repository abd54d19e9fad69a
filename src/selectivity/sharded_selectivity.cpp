#include "selectivity/sharded_selectivity.hpp"

#include <algorithm>
#include <utility>

#include "selectivity/estimator_registry.hpp"
#include "util/string_util.hpp"

namespace wde {
namespace selectivity {

Result<ShardedSelectivityEstimator> ShardedSelectivityEstimator::Create(
    const SelectivityEstimator& prototype, const Options& options) {
  if (options.shards == 0) {
    return Status::InvalidArgument("shards must be positive");
  }
  if (options.block_size == 0) {
    return Status::InvalidArgument("block_size must be positive");
  }
  if (prototype.dims() > 1 &&
      options.block_size % static_cast<size_t>(prototype.dims()) != 0) {
    return Status::InvalidArgument(
        "block_size must be a multiple of the prototype's dims() so the "
        "interleaved coordinates of one observation never split across "
        "shards");
  }
  if (!prototype.mergeable()) {
    return Status::FailedPrecondition(
        prototype.name() +
        " does not support CloneEmpty/MergeFrom and cannot be sharded");
  }
  std::unique_ptr<SelectivityEstimator> keeper = prototype.CloneEmpty();
  WDE_CHECK(keeper != nullptr, "mergeable estimator returned a null clone");
  std::vector<std::unique_ptr<SelectivityEstimator>> replicas;
  replicas.reserve(options.shards);
  for (size_t s = 0; s < options.shards; ++s) {
    replicas.push_back(prototype.CloneEmpty());
    WDE_CHECK(replicas.back() != nullptr, "mergeable estimator returned a null clone");
  }
  return ShardedSelectivityEstimator(options, std::move(keeper),
                                     std::move(replicas));
}

void ShardedSelectivityEstimator::Insert(double x) {
  const size_t shard = (position_ / options_.block_size) % replicas_.size();
  replicas_[shard]->Insert(x);
  ++position_;
}

void ShardedSelectivityEstimator::InsertBatch(std::span<const double> xs) {
  if (xs.empty()) return;
  const size_t K = replicas_.size();
  if (K == 1) {
    replicas_[0]->InsertBatch(xs);
    position_ += xs.size();
    return;
  }
  // Cut the batch at block boundaries and assign each run to its owning
  // shard, purely from (position, block_size, K). Every run lands in shard
  // order inside its per-shard list, so each shard replays its sub-stream in
  // stream order no matter which thread executes it.
  struct Chunk {
    size_t offset;
    size_t len;
  };
  const size_t B = options_.block_size;
  std::vector<std::vector<Chunk>> chunks(K);
  size_t offset = 0;
  size_t pos = position_;
  while (offset < xs.size()) {
    const size_t shard = (pos / B) % K;
    const size_t run = std::min(B - (pos % B), xs.size() - offset);
    chunks[shard].push_back(Chunk{offset, run});
    offset += run;
    pos += run;
  }
  position_ = pos;
  // One task per shard: tasks touch disjoint replicas, so scheduling cannot
  // affect any replica's state — the fixed-K determinism contract.
  pool().ParallelFor(static_cast<int>(K), [&](int s) {
    for (const Chunk& c : chunks[static_cast<size_t>(s)]) {
      replicas_[static_cast<size_t>(s)]->InsertBatch(xs.subspan(c.offset, c.len));
    }
  });
}

SelectivityEstimator& ShardedSelectivityEstimator::Merged() const {
  // Every state change of an estimator advances its count() (dropped
  // non-finite values change neither), and replicas only grow, so the view
  // is current exactly when it holds every replica's count.
  bool current = merged_ != nullptr;
  for (size_t s = 0; current && s < replicas_.size(); ++s) {
    current = replicas_[s]->count() == merged_hw_[s];
  }
  if (current) return *merged_;
  if (options_.refit_mode == RefitMode::kScratch || merged_ == nullptr ||
      !merged_->SupportsTailMerge()) {
    merged_ = prototype_->CloneEmpty();
    WDE_CHECK(merged_ != nullptr, "mergeable estimator returned a null clone");
    for (const std::unique_ptr<SelectivityEstimator>& replica : replicas_) {
      // Replicas are clones of one prototype, so the merge cannot be
      // incompatible; a failure here is a broken MergeFrom implementation.
      WDE_CHECK_OK(merged_->MergeFrom(*replica));
    }
  } else {
    // Delta refresh: append each replica's values above its high-water mark
    // to the view, then refit the view once. A from-zero rebuild
    // concatenates whole replicas in shard order, the delta path appends the
    // tails after the previous concatenation — different insertion orders of
    // the same multiset, which tail-mergeable (buffer-keeping) estimators
    // answer bit-identically (their fits depend only on the sorted multiset;
    // see the MergeTailFrom contract). The forced refit mirrors the scratch
    // path's first-query fit at the full count: without it an
    // interval-gated inner refit could keep serving the pre-delta fit.
    //
    // MergeTailFrom rejects a from_count inside the peer's sorted (fitted)
    // prefix, where arrival positions no longer exist. That never happens
    // here: a mark only ever holds a replica's own count, and the engine
    // never refits a replica (it queries and refits only merged_), so each
    // replica's prefix stays at or below its mark.
    for (size_t s = 0; s < replicas_.size(); ++s) {
      if (replicas_[s]->count() == merged_hw_[s]) continue;
      WDE_CHECK_OK(merged_->MergeTailFrom(*replicas_[s], merged_hw_[s]));
    }
    merged_->ForceRefit();
  }
  merged_hw_.resize(replicas_.size());
  for (size_t s = 0; s < replicas_.size(); ++s) {
    merged_hw_[s] = replicas_[s]->count();
  }
  return *merged_;
}

std::unique_ptr<SelectivityEstimator>
ShardedSelectivityEstimator::ExtractMergedView() const {
  ForceRefit();
  return merged_->CloneForView();
}

void ShardedSelectivityEstimator::ForceRefitImpl() const { Merged().ForceRefit(); }

double ShardedSelectivityEstimator::EstimateRangeImpl(double a, double b) const {
  return Merged().Answer(Query::Range(a, b));
}

void ShardedSelectivityEstimator::AnswerImpl(std::span<const Query> queries,
                                             std::span<double> out) const {
  SelectivityEstimator& merged = Merged();
  // Warm-up: the first query forces every lazily fitted cache the batch can
  // touch (refit, boundary/prefix rebuild), so the concurrent chunks below
  // are pure reads against the merged view.
  merged.Answer(queries.first(1), out.first(1));
  const size_t rest = queries.size() - 1;
  if (rest == 0) return;
  // Small batches are not worth a dispatch; one serial pass. The threshold
  // affects scheduling only — per-query answers are independent, so any
  // chunking is bit-identical.
  constexpr size_t kMinQueriesPerTask = 32;
  const size_t K = replicas_.size();
  if (K == 1 || rest < 2 * kMinQueriesPerTask) {
    merged.Answer(queries.subspan(1), out.subspan(1));
    return;
  }
  // Contiguous chunks, one per shard-width task — a pure function of
  // (batch size, K), never of the pool schedule.
  const size_t chunk = std::max(kMinQueriesPerTask, (rest + K - 1) / K);
  const auto tasks = static_cast<int>((rest + chunk - 1) / chunk);
  pool().ParallelFor(tasks, [&](int t) {
    const size_t begin = 1 + static_cast<size_t>(t) * chunk;
    const size_t len = std::min(chunk, queries.size() - begin);
    merged.Answer(queries.subspan(begin, len), out.subspan(begin, len));
  });
}

size_t ShardedSelectivityEstimator::count() const {
  size_t total = 0;
  for (const std::unique_ptr<SelectivityEstimator>& replica : replicas_) {
    total += replica->count();
  }
  return total;
}

std::string ShardedSelectivityEstimator::name() const {
  return Format("sharded(%zux%s)", replicas_.size(), prototype_->name().c_str());
}

std::unique_ptr<SelectivityEstimator> ShardedSelectivityEstimator::CloneEmpty()
    const {
  Result<ShardedSelectivityEstimator> clone = Create(*prototype_, options_);
  WDE_CHECK(clone.ok(), "options were valid at construction");
  return std::make_unique<ShardedSelectivityEstimator>(std::move(clone).value());
}

Status ShardedSelectivityEstimator::MergeFrom(const SelectivityEstimator& other) {
  Status peer = CheckMergePeer(other);
  if (!peer.ok()) return peer;
  const auto& rhs = static_cast<const ShardedSelectivityEstimator&>(other);
  if (replicas_.size() != rhs.replicas_.size() ||
      options_.block_size != rhs.options_.block_size) {
    return Status::FailedPrecondition("MergeFrom: shard layout mismatch");
  }
  // Probe replica compatibility once before mutating anything (replicas are
  // homogeneous clones on both sides, so one probe covers all shards); the
  // shard-wise merges below then cannot fail halfway. Probing against rhs's
  // empty prototype keeps this configuration-only — no shard data is copied.
  std::unique_ptr<SelectivityEstimator> probe = prototype_->CloneEmpty();
  Status compatible = probe->MergeFrom(*rhs.prototype_);
  if (!compatible.ok()) return compatible;
  for (size_t s = 0; s < replicas_.size(); ++s) {
    WDE_CHECK_OK(replicas_[s]->MergeFrom(*rhs.replicas_[s]));
  }
  position_ += rhs.position_;
  // Force a from-zero rebuild: the shard-wise merges rewrote replica
  // interiors, not tails, so the high-water marks are meaningless.
  merged_.reset();
  merged_hw_.clear();
  return Status::OK();
}

Status ShardedSelectivityEstimator::SaveStateImpl(io::Sink& sink) const {
  // The merged view is derived state: it is rebuilt from the replicas, so
  // the bytes depend only on the stream, never on which queries ran. Two
  // fields of the layout are retired and written as fixed values: the
  // refresh interval (1) and the pending count (0), with no view (0).
  WDE_RETURN_IF_ERROR(io::WriteU64(sink, replicas_.size()));
  WDE_RETURN_IF_ERROR(io::WriteU64(sink, options_.block_size));
  WDE_RETURN_IF_ERROR(io::WriteU64(sink, 1));
  WDE_RETURN_IF_ERROR(io::WriteU64(sink, position_));
  WDE_RETURN_IF_ERROR(io::WriteU64(sink, 0));
  WDE_RETURN_IF_ERROR(SaveEstimatorEnvelope(*prototype_, sink));
  for (const std::unique_ptr<SelectivityEstimator>& replica : replicas_) {
    WDE_RETURN_IF_ERROR(SaveEstimatorEnvelope(*replica, sink));
  }
  return io::WriteU8(sink, 0);
}

Status ShardedSelectivityEstimator::LoadStateImpl(io::Source& source) {
  WDE_ASSIGN_OR_RETURN(const uint64_t shards, io::ReadU64(source));
  WDE_ASSIGN_OR_RETURN(const uint64_t block_size, io::ReadU64(source));
  WDE_ASSIGN_OR_RETURN(const uint64_t refresh, io::ReadU64(source));  // retired
  WDE_ASSIGN_OR_RETURN(const uint64_t position, io::ReadU64(source));
  WDE_RETURN_IF_ERROR(io::ReadU64(source).status());  // retired pending count
  if (shards == 0 || shards > 65536 || block_size == 0 || refresh == 0) {
    return Status::InvalidArgument("corrupt sharded snapshot layout");
  }
  Result<std::unique_ptr<SelectivityEstimator>> prototype =
      LoadEstimatorEnvelope(source);
  if (!prototype.ok()) return prototype.status();
  if (!(*prototype)->mergeable()) {
    return Status::InvalidArgument(
        "corrupt sharded snapshot: prototype is not mergeable");
  }
  std::vector<std::unique_ptr<SelectivityEstimator>> replicas;
  replicas.reserve(static_cast<size_t>(shards));
  for (uint64_t s = 0; s < shards; ++s) {
    Result<std::unique_ptr<SelectivityEstimator>> replica =
        LoadEstimatorEnvelope(source);
    if (!replica.ok()) return replica.status();
    if ((*replica)->merge_type_tag() != (*prototype)->merge_type_tag()) {
      return Status::InvalidArgument(
          "corrupt sharded snapshot: heterogeneous shard replicas");
    }
    replicas.push_back(std::move(replica).value());
  }
  // An older writer may have saved its merged view: it must parse and match
  // the replicas' type, and is then dropped like the retired fields above.
  WDE_ASSIGN_OR_RETURN(const uint8_t has_merged, io::ReadU8(source));
  if (has_merged != 0) {
    Result<std::unique_ptr<SelectivityEstimator>> merged =
        LoadEstimatorEnvelope(source);
    if (!merged.ok()) return merged.status();
    if ((*merged)->merge_type_tag() != (*prototype)->merge_type_tag()) {
      return Status::InvalidArgument(
          "corrupt sharded snapshot: merged view type mismatch");
    }
  }
  if (source.remaining() != 0) {
    return Status::InvalidArgument("corrupt sharded snapshot: trailing bytes");
  }
  // Commit. The executor pool is a runtime resource, not state: keep ours.
  // The first query rebuilds the view from the restored replicas.
  options_.shards = static_cast<size_t>(shards);
  options_.block_size = static_cast<size_t>(block_size);
  prototype_ = std::move(prototype).value();
  replicas_ = std::move(replicas);
  position_ = static_cast<size_t>(position);
  merged_.reset();
  merged_hw_.clear();
  return Status::OK();
}

}  // namespace selectivity
}  // namespace wde
