#include "serving/estimator_service.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "io/chunk.hpp"
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
      service_id_(g_next_service_id.fetch_add(1, std::memory_order_relaxed)) {}

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
  AcquireView().estimator->Answer(queries, out);
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

Status EstimatorService::Checkpoint(const std::string& path) const {
  std::lock_guard<std::mutex> lock(writer_mu_);
  return io::WriteFileAtomically(path, [this](io::Sink& sink) {
    WDE_RETURN_IF_ERROR(io::WriteSnapshotHeader(sink));
    // Publishes happen under writer_mu_ (held here), so this epoch is the one
    // the checkpointed writer state belongs to.
    WDE_RETURN_IF_ERROR(
        io::WriteChunkStreamed(sink, kChunkServiceState, [this](io::Sink& meta) {
          WDE_RETURN_IF_ERROR(io::WriteU64(
              meta, published_epoch_.load(std::memory_order_acquire)));
          return io::WriteU64(meta, inserts_since_publish_);
        }));
    return writer_->SaveState(sink);
  });
}

Status EstimatorService::Restore(const std::string& path) {
  // Validate the whole file before mutating anything: the header, the
  // service chunk, and the framing of the writer envelope's three chunks
  // with nothing after them. LoadState then verifies every CRC and parses
  // the state fully before it commits, so on any error the service —
  // writer, views, epochs — is untouched. The framing walk skips the CRCs
  // LoadState checks anyway: a second pass over a multi-megabyte state
  // would add its whole cost to every restore.
  Result<io::FileSource> file = io::FileSource::Open(path);
  if (!file.ok()) return file.status();
  WDE_RETURN_IF_ERROR(io::ReadSnapshotHeader(*file).status());
  WDE_ASSIGN_OR_RETURN(const std::vector<uint8_t> meta,
                       io::ReadChunkExpecting(*file, kChunkServiceState));
  io::SpanSource meta_source(meta);
  WDE_ASSIGN_OR_RETURN(const uint64_t saved_epoch, io::ReadU64(meta_source));
  WDE_RETURN_IF_ERROR(io::ReadU64(meta_source).status());  // pacing position
  if (meta_source.remaining() != 0) {
    return Status::InvalidArgument(
        "corrupt service checkpoint: oversized service chunk");
  }
  const size_t envelope_size = file->remaining();
  const std::span<const uint8_t> envelope(file->View(envelope_size), envelope_size);
  {
    io::SpanSource probe(envelope);
    for (int chunk = 0; chunk < 3; ++chunk) {  // TYPE, DIMS, STAT
      WDE_RETURN_IF_ERROR(io::SkipChunk(probe));
    }
    if (probe.remaining() != 0) {
      return Status::InvalidArgument("service checkpoint has trailing bytes");
    }
  }
  // Commit. The state loads into our own writer, which keeps its runtime
  // settings (refit mode, thread pool), and a FRESH view is rebuilt from
  // it — a checkpointed (possibly pacing-stale) view never crosses the
  // restore boundary — at an epoch strictly above both the checkpoint's and
  // everything this service has published, so every pre-restore held view
  // is told apart by epoch comparison alone. That publish restarts pacing
  // at zero, so the checkpointed pacing position is read but not used.
  io::SpanSource source(envelope);
  std::lock_guard<std::mutex> lock(writer_mu_);
  WDE_RETURN_IF_ERROR(writer_->LoadState(source));
  PublishLocked(saved_epoch);
  return Status::OK();
}

}  // namespace serving
}  // namespace wde
