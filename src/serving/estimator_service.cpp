#include "serving/estimator_service.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "io/chunk.hpp"
#include "selectivity/estimator_registry.hpp"
#include "util/check.hpp"

namespace wde {
namespace serving {

namespace {

/// Chunk tag of the service checkpoint metadata ("SRVC"): epoch + pacing
/// position, framed ahead of the writer estimator's envelope.
constexpr uint32_t kChunkServiceState = 0x43565253;

/// Monotone id source for readers' thread-local view pins; starts at 1 so a
/// default-constructed pin (id 0) never matches any service.
std::atomic<uint64_t> g_next_service_id{1};

}  // namespace

EstimatorService::EstimatorService(
    std::unique_ptr<selectivity::SelectivityEstimator> writer,
    const ServiceOptions& options)
    : options_(options),
      writer_(std::move(writer)),
      last_publish_(std::chrono::steady_clock::now()),
      service_id_(g_next_service_id.fetch_add(1, std::memory_order_relaxed)) {
  if (options_.cache_shards != 0) {
    cache_ = std::make_unique<QueryResultCache>(options_.cache_shards,
                                                options_.cache_slots_per_shard);
  }
}

Result<std::unique_ptr<EstimatorService>> EstimatorService::Create(
    std::unique_ptr<selectivity::SelectivityEstimator> writer,
    const ServiceOptions& options) {
  if (writer == nullptr) {
    return Status::InvalidArgument("writer estimator must not be null");
  }
  if (!writer->snapshotable()) {
    return Status::FailedPrecondition(
        writer->name() +
        " does not support snapshots and cannot checkpoint");
  }
  if (options.cache_shards != 0 && options.cache_slots_per_shard == 0) {
    return Status::InvalidArgument(
        "cache_slots_per_shard must be positive when the cache is enabled");
  }
  if (options.max_staleness_ms < 0) {
    return Status::InvalidArgument("max_staleness_ms must be non-negative");
  }
  std::unique_ptr<EstimatorService> service(
      new EstimatorService(std::move(writer), options));
  {
    // Epoch 1: the writer's (empty) state, so readers always have a view.
    std::lock_guard<std::mutex> lock(service->writer_mu_);
    service->PublishLocked(0);
  }
  return service;
}

Result<std::unique_ptr<EstimatorService>> EstimatorService::Create(
    const selectivity::EstimatorSpec& spec, const ServiceOptions& options) {
  Result<std::unique_ptr<selectivity::SelectivityEstimator>> writer =
      selectivity::MakeEstimator(spec);
  if (!writer.ok()) return writer.status();
  return Create(std::move(writer).value(), options);
}

uint64_t EstimatorService::PublishLocked(uint64_t epoch_floor) {
  std::unique_ptr<selectivity::SelectivityEstimator> fresh = writer_->CloneForView();
  // Quiesce the view: bring every lazily fitted cache up to date with ALL
  // data it holds — not merely the interval-gated refresh a first query would
  // run, so a published view is always fitted at its full count — then prime
  // any remaining query-path state (e.g. a KDE's CDF index) with one query.
  // After the swap below, concurrent readers only ever read the view.
  fresh->ForceRefit();
  (void)fresh->Answer(selectivity::Query::Cdf(fresh->Domain().hi));

  // published_epoch_ is only written here, under writer_mu_, so the relaxed
  // self-read is exact. The view swap under view_mu_ is two pointer moves;
  // the retired view leaves the critical section and dies (refcount
  // permitting) after the lock is gone, so readers refreshing their pin
  // never wait on estimator destruction.
  const uint64_t next_epoch =
      std::max(published_epoch_.load(std::memory_order_relaxed), epoch_floor) +
      1;
  std::shared_ptr<const selectivity::SelectivityEstimator> next(
      std::move(fresh));
  std::shared_ptr<const selectivity::SelectivityEstimator> retired;
  {
    std::lock_guard<std::mutex> lock(view_mu_);
    retired = std::move(published_.estimator);
    published_.epoch = next_epoch;
    published_.estimator = std::move(next);
    published_epoch_.store(next_epoch, std::memory_order_release);
  }
  retired.reset();
  inserts_since_publish_ = 0;
  last_publish_ = std::chrono::steady_clock::now();
  return next_epoch;
}

EstimatorService::View EstimatorService::AcquireView() const {
  struct ThreadPin {
    uint64_t service_id = 0;
    View view;
  };
  thread_local ThreadPin pin;
  const uint64_t epoch = published_epoch_.load(std::memory_order_acquire);
  if (pin.service_id != service_id_ || pin.view.epoch != epoch) {
    std::lock_guard<std::mutex> lock(view_mu_);
    pin.view = published_;
    pin.service_id = service_id_;
  }
  return pin.view;
}

void EstimatorService::MaybePublishLocked() {
  if (inserts_since_publish_ == 0) return;
  if (options_.publish_interval != 0 &&
      inserts_since_publish_ >= options_.publish_interval) {
    PublishLocked(0);
    return;
  }
  if (options_.max_staleness_ms > 0 &&
      std::chrono::steady_clock::now() - last_publish_ >=
          std::chrono::milliseconds(options_.max_staleness_ms)) {
    PublishLocked(0);
  }
}

void EstimatorService::Insert(double x) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  writer_->Insert(x);
  ++inserts_since_publish_;
  MaybePublishLocked();
}

void EstimatorService::InsertBatch(std::span<const double> xs) {
  if (xs.empty()) return;
  std::lock_guard<std::mutex> lock(writer_mu_);
  writer_->InsertBatch(xs);
  inserts_since_publish_ += xs.size();
  MaybePublishLocked();
}

uint64_t EstimatorService::Publish() {
  std::lock_guard<std::mutex> lock(writer_mu_);
  return PublishLocked(0);
}

EstimatorService::View EstimatorService::CurrentView() const {
  return AcquireView();
}

void EstimatorService::Answer(std::span<const selectivity::Query> queries,
                              std::span<double> out) const {
  WDE_CHECK(queries.size() == out.size(), "Answer spans must match");
  if (queries.empty()) return;
  const View view = AcquireView();
  const selectivity::SelectivityEstimator& estimator = *view.estimator;
  if (cache_ == nullptr) {
    estimator.Answer(queries, out);
    return;
  }
  const uint64_t epoch = view.epoch;
  // Probe the cache; the batch's misses are admitted to the view as ONE
  // batched Answer() call below. Bit-identity with the cache-off path holds
  // because per-query answers are independent of batch composition (the
  // batch ≡ scalar contract) and cached values were computed from the same
  // frozen epoch view.
  std::vector<size_t> miss_index;
  miss_index.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    if (!cache_->Lookup(queries[i], epoch, &out[i])) miss_index.push_back(i);
  }
  if (miss_index.empty()) return;
  if (miss_index.size() == queries.size()) {
    estimator.Answer(queries, out);
    for (size_t i = 0; i < queries.size(); ++i) {
      cache_->Insert(queries[i], epoch, out[i]);
    }
    return;
  }
  std::vector<selectivity::Query> miss_queries(miss_index.size());
  std::vector<double> miss_values(miss_index.size());
  for (size_t m = 0; m < miss_index.size(); ++m) {
    miss_queries[m] = queries[miss_index[m]];
  }
  estimator.Answer(miss_queries, miss_values);
  for (size_t m = 0; m < miss_index.size(); ++m) {
    out[miss_index[m]] = miss_values[m];
    cache_->Insert(miss_queries[m], epoch, miss_values[m]);
  }
}

double EstimatorService::Answer(const selectivity::Query& query) const {
  double out = 0.0;
  Answer(std::span<const selectivity::Query>(&query, 1),
         std::span<double>(&out, 1));
  return out;
}

size_t EstimatorService::count() const {
  std::lock_guard<std::mutex> lock(writer_mu_);
  return writer_->count();
}

CacheStats EstimatorService::cache_stats() const {
  return cache_ != nullptr ? cache_->stats() : CacheStats{};
}

Status EstimatorService::Checkpoint(const std::string& path) const {
  std::lock_guard<std::mutex> lock(writer_mu_);
  return io::WriteFileAtomically(path, [this](io::Sink& sink) {
    WDE_RETURN_IF_ERROR(io::WriteSnapshotHeader(sink));
    io::VectorSink meta;
    // Publishes happen under writer_mu_ (held here), so this epoch is the one
    // the checkpointed writer state belongs to.
    WDE_RETURN_IF_ERROR(
        io::WriteU64(meta, published_epoch_.load(std::memory_order_acquire)));
    WDE_RETURN_IF_ERROR(io::WriteU64(meta, inserts_since_publish_));
    WDE_RETURN_IF_ERROR(io::WriteChunk(sink, kChunkServiceState, meta.bytes()));
    return writer_->SaveState(sink);
  });
}

Status EstimatorService::Restore(const std::string& path) {
  // Parse everything before mutating anything: on any error the service —
  // writer, views, epochs — is untouched.
  Result<io::FileSource> file = io::FileSource::Open(path);
  if (!file.ok()) return file.status();
  WDE_RETURN_IF_ERROR(io::ReadSnapshotHeader(*file).status());
  WDE_ASSIGN_OR_RETURN(const std::vector<uint8_t> meta,
                       io::ReadChunkExpecting(*file, kChunkServiceState));
  io::SpanSource meta_source(meta);
  WDE_ASSIGN_OR_RETURN(const uint64_t saved_epoch, io::ReadU64(meta_source));
  WDE_ASSIGN_OR_RETURN(const uint64_t pending, io::ReadU64(meta_source));
  if (meta_source.remaining() != 0) {
    return Status::InvalidArgument(
        "corrupt service checkpoint: oversized service chunk");
  }
  Result<std::unique_ptr<selectivity::SelectivityEstimator>> writer =
      selectivity::LoadEstimatorEnvelope(*file);
  if (!writer.ok()) return writer.status();
  if (file->remaining() != 0) {
    return Status::InvalidArgument("service checkpoint has trailing bytes");
  }
  // Commit. The restored writer replaces ours and a FRESH view is rebuilt
  // from it — a checkpointed (possibly pacing-stale) view never crosses the
  // restore boundary — at an epoch strictly above both the checkpoint's and
  // everything this service has published, so every pre-restore cache entry
  // and held view is invalidated by epoch comparison alone.
  std::lock_guard<std::mutex> lock(writer_mu_);
  writer_ = std::move(writer).value();
  inserts_since_publish_ = static_cast<size_t>(pending);
  PublishLocked(saved_epoch);
  return Status::OK();
}

}  // namespace serving
}  // namespace wde
