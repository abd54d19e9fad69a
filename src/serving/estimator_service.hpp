/// \file serving/estimator_service.hpp
/// Entry header of the `serving` module: a long-lived concurrent serving
/// engine over one selectivity estimator — the production shape of the
/// paper's query-optimizer use case, where a single column statistic answers
/// unbounded concurrent probes while ingest continues. The design is
/// epoch/RCU-style publication:
///
///   * WRITERS ingest into an owned estimator (typically the sharded
///     parallel engine) under one writer mutex, and every
///     `publish_interval` accepted values — or when the current view
///     exceeds the wall-clock staleness budget, or on an explicit
///     Publish() — build a fresh merged copy of the fitted state, warm its
///     lazily fitted caches with one query, and atomically swap it in as
///     the published view of a new epoch.
///   * READERS answer mixed `Answer()` batches with NO lock on the
///     steady-state hot path: each reader thread keeps a thread-local
///     pinned copy of the view, validated per batch by one atomic epoch
///     load; only the first read after a publish (or after switching
///     services on that thread) crosses a mutex, and that critical section
///     is a pointer copy — writers never hold it while doing estimator
///     work. Views are immutable after the warm-up, a held shared_ptr pins
///     its epoch for as long as the reader cares to keep it, and retired
///     views free themselves when the last reader drops out (RCU grace
///     period by refcount). This epoch-validated design is used instead of
///     std::atomic<shared_ptr> deliberately: libstdc++'s _Sp_atomic::load
///     releases its spin bit with a relaxed RMW, which gives the reader's
///     raw pointer read no happens-before edge against the next writer's
///     swap — formally a race (ThreadSanitizer agrees). Everything here is
///     ordinary mutexes and scalar atomics, verifiable end to end.
///
/// Every answer is recomputed from the pinned view: the estimate is a fixed
/// function of a frozen fitted state, so a read is pin, normalize,
/// `AnswerImpl` and nothing else. Checkpoint/Restore go through the snapshot
/// envelope so a warm standby can restore a leader's checkpoint and begin
/// serving at a strictly newer epoch (the epoch bump on restore is a
/// contract: no held view from before the restore can be confused with
/// post-restore state).
///
/// Staleness contract: a reader's answers lag ingest by at most the pacing
/// budget (publish_interval - 1 values, or max_staleness_ms) plus whatever
/// batch was mid-flight when its view was loaded; answers within one epoch
/// are mutually consistent because they come from one frozen fitted state.
#ifndef WDE_SERVING_ESTIMATOR_SERVICE_HPP_
#define WDE_SERVING_ESTIMATOR_SERVICE_HPP_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>

#include "selectivity/estimator_spec.hpp"
#include "selectivity/selectivity_estimator.hpp"
#include "util/result.hpp"

namespace wde {
namespace serving {

/// Publish pacing of one EstimatorService.
struct ServiceOptions {
  /// Publish a fresh view once this many values arrived since the last
  /// publish (checked at write admission). 0 disables insert-paced
  /// publishing.
  size_t publish_interval = 8192;

  /// Publish at write admission when the current view is older than this
  /// wall-clock budget, even if publish_interval has not elapsed — bounds
  /// staleness under trickle ingest. 0 disables time-paced publishing.
  /// (With both pacers disabled, only explicit Publish() advances epochs.)
  int64_t max_staleness_ms = 0;
};

/// Always-zero counters returned by EstimatorService::cache_stats(). They
/// exist only because the end-to-end benchmark driver (e2ebench/) still
/// reads them; ROADMAP item 6 deletes them together with that driver's
/// cache metrics.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t lookup_bypasses = 0;
};

/// The concurrent serving engine. Writer entry points (Insert/InsertBatch/
/// Publish/Restore) may be called from any number of threads — they
/// serialize on an internal mutex. Reader entry points (Answer/CurrentView/
/// epoch) are safe from any number of threads concurrently with writers and
/// never take the writer mutex.
class EstimatorService {
 public:
  /// One published epoch: an immutable estimator plus its epoch number.
  /// Holding the shared_ptr pins the view — it stays valid and bit-stable
  /// after arbitrarily many later publishes.
  struct View {
    uint64_t epoch = 0;
    std::shared_ptr<const selectivity::SelectivityEstimator> estimator;
  };

  /// Wraps `writer` (which must support snapshots — every shipped estimator
  /// does) and publishes its empty state as epoch 1. Views are the writer's
  /// CloneForView copies (for the sharded engine, its merged extract).
  static Result<std::unique_ptr<EstimatorService>> Create(
      std::unique_ptr<selectivity::SelectivityEstimator> writer,
      const ServiceOptions& options);

  /// Builds the writer declaratively from `spec` (MakeEstimator) and wraps
  /// it. A "sharded" spec is the intended production configuration: ingest
  /// fans out across shard replicas on the spec's thread pool and views are
  /// merged extracts.
  static Result<std::unique_ptr<EstimatorService>> Create(
      const selectivity::EstimatorSpec& spec, const ServiceOptions& options);

  EstimatorService(const EstimatorService&) = delete;
  EstimatorService& operator=(const EstimatorService&) = delete;

  // ---------------------------------------------------------------- writers

  /// Ingests a batch; may publish per the pacing options.
  void InsertBatch(std::span<const double> xs);

  /// Publishes a fresh view unconditionally; returns the new epoch.
  uint64_t Publish();

  // ---------------------------------------------------------------- readers

  /// Answers a mixed typed-query batch through the current published view:
  /// bit-identical to answering through View::estimator directly, because
  /// it is exactly that call. Steady-state lock-free with respect to
  /// writers: one atomic epoch load validates the thread-local view pin.
  void Answer(std::span<const selectivity::Query> queries,
              std::span<double> out) const;

  /// Scalar convenience overload (one-query batch through the same path).
  double Answer(const selectivity::Query& query) const;

  /// The current published view. Never empty: Create publishes epoch 1.
  View CurrentView() const;

  /// Epoch of the current published view (monotone non-decreasing; strictly
  /// bumped by every publish and by Restore).
  uint64_t epoch() const {
    return published_epoch_.load(std::memory_order_acquire);
  }

  /// Values retained by the writer estimator (takes the writer mutex).
  size_t count() const;

  /// All zero: the service keeps no result cache (see CacheStats).
  CacheStats cache_stats() const { return CacheStats{}; }

  // ----------------------------------------------------- checkpoint/restore

  /// Persists the service — a snapshot-format file holding a service chunk
  /// (current epoch + pacing position) and the writer estimator's envelope.
  /// Restore reads the pacing position and discards it: a restore
  /// republishes, so pacing restarts at zero. Concurrent readers are
  /// unaffected; writers queue on the mutex.
  Status Checkpoint(const std::string& path) const;

  /// Restores a checkpoint written by Checkpoint() (possibly by another
  /// process — the warm-standby path): loads the checkpointed state into the
  /// live writer in place (LoadState), so the writer keeps its runtime
  /// settings — its refit mode and, when sharded, the caller's pool — then
  /// rebuilds a FRESH view from the restored state (a checkpointed view
  /// never crosses the restore boundary) and publishes it at an epoch
  /// strictly greater than both the checkpoint's epoch and every epoch this
  /// service has published — so every held view from before the restore is
  /// told apart by epoch. The checkpoint's writer must have the live
  /// writer's type tag; a different one fails with FailedPrecondition. On
  /// any error the service is untouched.
  Status Restore(const std::string& path);

 private:
  EstimatorService(std::unique_ptr<selectivity::SelectivityEstimator> writer,
                   const ServiceOptions& options);

  /// Extracts + warms a view of the writer's current state and swaps it in
  /// as `max(current epoch, epoch_floor) + 1`. Caller holds writer_mu_.
  uint64_t PublishLocked(uint64_t epoch_floor);

  /// The reader entry point: returns the current view, from the calling
  /// thread's pinned copy when its epoch is current, refreshing it under
  /// view_mu_ otherwise.
  View AcquireView() const;

  void MaybePublishLocked();

  ServiceOptions options_;

  /// Writer state, all guarded by writer_mu_.
  mutable std::mutex writer_mu_;
  std::unique_ptr<selectivity::SelectivityEstimator> writer_;
  size_t inserts_since_publish_ = 0;
  std::chrono::steady_clock::time_point last_publish_;

  /// The published view. view_mu_ guards only pointer copies — a publish
  /// holds it for one shared_ptr swap, a reader for one shared_ptr copy
  /// when refreshing its thread-local pin; estimator work and retired-view
  /// destruction happen outside it. published_epoch_ mirrors
  /// published_.epoch so readers can validate their pin without the lock.
  mutable std::mutex view_mu_;
  View published_;
  std::atomic<uint64_t> published_epoch_{0};

  /// Distinguishes this service in readers' thread-local pins (an address
  /// can be reused by a later service; this id never is).
  const uint64_t service_id_;
};

}  // namespace serving
}  // namespace wde

#endif  // WDE_SERVING_ESTIMATOR_SERVICE_HPP_
