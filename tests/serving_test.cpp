// Tier-1 tests for the concurrent serving engine (src/serving): epoch
// monotonicity under insert-/time-/explicitly-paced publishing, immutability
// of held views across later publishes (the RCU pinning contract), reader
// answers bit-identical to the quiesced merged view at the same epoch, the
// typed-query result cache's hit/miss/epoch-invalidation semantics and its
// cache-on ≡ cache-off bit-identity, and the checkpoint → kill → restore →
// continue cycle including the strict epoch bump on restore and a restored
// writer keeping the caller's thread pool. The multi-threaded hammering of
// the same surface lives in serving_stress_test.cpp (tsan CI job).
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "io/serialize.hpp"
#include "parallel/thread_pool.hpp"
#include "selectivity/estimator_registry.hpp"
#include "selectivity/estimator_spec.hpp"
#include "selectivity/query_workload.hpp"
#include "selectivity/sharded_selectivity.hpp"
#include "serving/estimator_service.hpp"
#include "serving/query_cache.hpp"
#include "stats/rng.hpp"
#include "util/check.hpp"

namespace wde {
namespace {

constexpr double kNanQ = std::numeric_limits<double>::quiet_NaN();

std::vector<double> UnitStream(uint64_t seed, size_t n) {
  stats::Rng rng(seed);
  std::vector<double> xs(n);
  for (double& x : xs) x = rng.UniformDouble();
  return xs;
}

/// A mixed-kind workload with a dirty tail: NaN parameters, an inverted
/// range, an out-of-range quantile — everything the Answer() normalization
/// must absorb identically with and without the cache.
std::vector<selectivity::Query> MixedWorkload(uint64_t seed, size_t count) {
  stats::Rng rng(seed);
  std::vector<selectivity::Query> queries =
      selectivity::MixedQueryWorkload(rng, count, 0.0, 1.0);
  queries.push_back(selectivity::Query::Range(0.8, 0.2));  // inverted
  queries.push_back(selectivity::Query::Point(kNanQ));
  queries.push_back(selectivity::Query::Range(kNanQ, 0.5));
  queries.push_back(selectivity::Query::Quantile(2.5));  // clamps to 1
  queries.push_back(selectivity::Query::Less(-std::numeric_limits<double>::infinity()));
  return queries;
}

selectivity::EstimatorSpec ShardedHistogramSpec() {
  selectivity::EstimatorSpec spec;
  spec.tag = "sharded";
  spec.sharded_inner_tag = "equi-width";
  spec.buckets = 64;
  spec.shards = 3;
  spec.block_size = 256;
  return spec;
}

std::unique_ptr<serving::EstimatorService> MakeService(
    const serving::ServiceOptions& options,
    const selectivity::EstimatorSpec& spec = ShardedHistogramSpec()) {
  Result<std::unique_ptr<serving::EstimatorService>> service =
      serving::EstimatorService::Create(spec, options);
  WDE_CHECK(service.ok(), service.status().ToString().c_str());
  return std::move(service).value();
}

std::vector<double> Answers(const serving::EstimatorService& service,
                            const std::vector<selectivity::Query>& queries) {
  std::vector<double> out(queries.size());
  service.Answer(queries, out);
  return out;
}

std::vector<double> Answers(const selectivity::SelectivityEstimator& estimator,
                            const std::vector<selectivity::Query>& queries) {
  std::vector<double> out(queries.size());
  estimator.Answer(queries, out);
  return out;
}

TEST(EstimatorServiceTest, EpochStartsAtOneAndPublishesAreStrictlyMonotone) {
  serving::ServiceOptions options;
  options.publish_interval = 0;  // explicit publishes only
  std::unique_ptr<serving::EstimatorService> service = MakeService(options);
  EXPECT_EQ(service->epoch(), 1u);
  uint64_t last = service->epoch();
  for (int i = 0; i < 5; ++i) {
    const uint64_t next = service->Publish();
    EXPECT_EQ(next, last + 1);
    EXPECT_EQ(service->epoch(), next);
    last = next;
  }
}

TEST(EstimatorServiceTest, InsertPacedPublishFiresExactlyAtTheInterval) {
  serving::ServiceOptions options;
  options.publish_interval = 1000;
  std::unique_ptr<serving::EstimatorService> service = MakeService(options);
  const std::vector<double> xs = UnitStream(7, 999);
  service->InsertBatch(xs);
  EXPECT_EQ(service->epoch(), 1u);  // one short of the pacing budget
  service->InsertBatch(std::vector<double>{0.5});
  EXPECT_EQ(service->epoch(), 2u);
  // The published view contains everything admitted before the publish.
  EXPECT_EQ(service->CurrentView().estimator->count(), 1000u);
}

TEST(EstimatorServiceTest, StalenessBudgetPublishesOnNextAdmission) {
  serving::ServiceOptions options;
  options.publish_interval = 0;
  options.max_staleness_ms = 1;
  std::unique_ptr<serving::EstimatorService> service = MakeService(options);
  // Within budget: the epoch may or may not have advanced.
  service->InsertBatch(std::vector<double>{0.25});
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const uint64_t before = service->epoch();
  // The view is now over budget: this admission must publish.
  service->InsertBatch(std::vector<double>{0.75});
  EXPECT_GT(service->epoch(), before);
}

TEST(EstimatorServiceTest, HeldViewsAreImmutableAcrossLaterPublishes) {
  serving::ServiceOptions options;
  options.publish_interval = 0;
  std::unique_ptr<serving::EstimatorService> service = MakeService(options);
  const std::vector<selectivity::Query> queries = MixedWorkload(11, 64);

  service->InsertBatch(UnitStream(12, 4000));
  service->Publish();
  const serving::EstimatorService::View held = service->CurrentView();
  const std::vector<double> before = Answers(*held.estimator, queries);

  service->InsertBatch(UnitStream(13, 4000));
  service->Publish();
  service->InsertBatch(UnitStream(14, 4000));
  service->Publish();

  // The pinned epoch still answers bit-identically; the current epoch moved
  // on to a view over more data.
  EXPECT_EQ(Answers(*held.estimator, queries), before);
  EXPECT_GT(service->CurrentView().epoch, held.epoch);
  EXPECT_EQ(held.estimator->count(), 4000u);
  EXPECT_EQ(service->CurrentView().estimator->count(), 12000u);
}

// Non-sharded writers publish through CloneForView: the view shares the
// writer's fitted arenas copy-on-write. Continuing to ingest into the writer
// must un-share — never mutate — the held view's storage, and the next
// publish must reflect the new data.
TEST(EstimatorServiceTest, CowClonedViewsStayBitStableWhileWriterMutates) {
  const std::vector<selectivity::Query> queries = MixedWorkload(21, 64);
  for (const char* tag :
       {"equi-width", "equi-depth", "wavelet-cv", "kde-rot", "haar-synopsis",
        "reservoir"}) {
    SCOPED_TRACE(tag);
    selectivity::EstimatorSpec spec;
    spec.tag = tag;
    serving::ServiceOptions options;
    options.publish_interval = 0;
    std::unique_ptr<serving::EstimatorService> service =
        MakeService(options, spec);
    // The sorted-column tags get columns of 512 KiB and up, whose blocks are
    // parked when a retired view lets go of them and reused two publishes
    // later; the held view's block must never be among them.
    const std::string name = tag;
    const size_t first = name == "kde-rot" || name == "equi-depth" ? 200000 : 4000;
    constexpr size_t kChunk = 4000;
    constexpr size_t kLaterPublishes = 4;

    uint64_t seed = 22;
    service->InsertBatch(UnitStream(seed++, first));
    service->Publish();
    const serving::EstimatorService::View held = service->CurrentView();
    const std::vector<double> before = Answers(*held.estimator, queries);

    // Hammer the writer's shared arenas after the publish: more inserts and
    // a forced refit (publish), again and again.
    for (size_t p = 0; p < kLaterPublishes; ++p) {
      service->InsertBatch(UnitStream(seed++, kChunk));
      service->Publish();
    }

    EXPECT_EQ(Answers(*held.estimator, queries), before);
    EXPECT_EQ(held.estimator->count(), first);
    const serving::EstimatorService::View current = service->CurrentView();
    EXPECT_GT(current.epoch, held.epoch);
    EXPECT_EQ(current.estimator->count(), first + kLaterPublishes * kChunk);
  }
}

TEST(EstimatorServiceTest, ReaderAnswersMatchQuiescedMergedViewAtSameEpoch) {
  // Every publish extracts from the writer engine's own merged view, which
  // the incremental mode refreshes by appending replica tails; a kScratch
  // engine over the same stream rebuilds from zero on every query and is
  // the ground truth for each published epoch. The buffer inner types
  // (kde-rot, equi-depth) take the tail-append path, equi-width the
  // from-zero rebuild.
  serving::ServiceOptions options;
  options.publish_interval = 0;
  const std::vector<selectivity::Query> queries = MixedWorkload(22, 128);
  for (const char* inner : {"equi-width", "kde-rot", "equi-depth"}) {
    SCOPED_TRACE(inner);
    selectivity::EstimatorSpec spec = ShardedHistogramSpec();
    spec.sharded_inner_tag = inner;
    std::unique_ptr<serving::EstimatorService> service = MakeService(options, spec);
    spec.refit_mode = selectivity::RefitMode::kScratch;
    Result<std::unique_ptr<selectivity::SelectivityEstimator>> reference =
        selectivity::MakeEstimator(spec);
    ASSERT_TRUE(reference.ok());

    uint64_t seed = 21;
    for (const size_t chunk : {9000u, 1500u, 77u, 4100u}) {
      const std::vector<double> xs = UnitStream(seed++, chunk);
      service->InsertBatch(xs);
      service->Publish();
      (*reference)->InsertBatch(xs);

      const std::vector<double> via_service = Answers(*service, queries);
      const std::vector<double> via_view =
          Answers(*service->CurrentView().estimator, queries);
      const std::vector<double> via_reference = Answers(**reference, queries);
      EXPECT_EQ(via_service, via_view) << "after " << chunk;
      EXPECT_EQ(via_service, via_reference) << "after " << chunk;
    }
  }
}

TEST(EstimatorServiceTest, CacheHitsMissesAndEpochInvalidation) {
  serving::ServiceOptions options;
  options.publish_interval = 0;
  options.cache_shards = 4;
  options.cache_slots_per_shard = 1024;
  std::unique_ptr<serving::EstimatorService> service = MakeService(options);
  service->InsertBatch(UnitStream(31, 3000));
  service->Publish();

  const std::vector<selectivity::Query> queries = MixedWorkload(32, 50);
  const std::vector<double> first = Answers(*service, queries);
  const serving::CacheStats after_first = service->cache_stats();
  EXPECT_EQ(after_first.hits, 0u);
  EXPECT_EQ(after_first.misses, queries.size());

  // Same batch again: every answer must come from the cache, bit-identically.
  const std::vector<double> second = Answers(*service, queries);
  const serving::CacheStats after_second = service->cache_stats();
  EXPECT_EQ(second, first);
  EXPECT_EQ(after_second.hits, queries.size());
  EXPECT_EQ(after_second.misses, queries.size());

  // Publishing a new epoch invalidates every entry — all misses again, and
  // (same data, no inserts in between) the same bitwise answers.
  service->Publish();
  const std::vector<double> third = Answers(*service, queries);
  const serving::CacheStats after_third = service->cache_stats();
  EXPECT_EQ(third, first);
  EXPECT_EQ(after_third.hits, queries.size());
  EXPECT_EQ(after_third.misses, 2 * queries.size());
}

TEST(EstimatorServiceTest, CacheOnAnswersEqualCacheOffBitwise) {
  serving::ServiceOptions cached;
  cached.publish_interval = 500;
  serving::ServiceOptions uncached = cached;
  uncached.cache_shards = 0;
  std::unique_ptr<serving::EstimatorService> with_cache = MakeService(cached);
  std::unique_ptr<serving::EstimatorService> without_cache =
      MakeService(uncached);

  const std::vector<double> xs = UnitStream(41, 5000);
  with_cache->InsertBatch(xs);
  without_cache->InsertBatch(xs);
  const std::vector<selectivity::Query> queries = MixedWorkload(42, 200);
  // Two passes so the second pass serves mostly from cache.
  EXPECT_EQ(Answers(*with_cache, queries), Answers(*without_cache, queries));
  EXPECT_EQ(Answers(*with_cache, queries), Answers(*without_cache, queries));
  EXPECT_GT(with_cache->cache_stats().hits, 0u);
}

TEST(EstimatorServiceTest, CheckpointRestoreContinueMatchesUninterrupted) {
  const std::string path = testing::TempDir() + "/wde_service_checkpoint.snap";
  serving::ServiceOptions options;
  options.publish_interval = 1024;
  const std::vector<double> xs = UnitStream(51, 20000);
  const std::span<const double> all(xs);

  std::unique_ptr<serving::EstimatorService> uninterrupted =
      MakeService(options);
  uninterrupted->InsertBatch(all);
  uninterrupted->Publish();

  uint64_t checkpoint_epoch = 0;
  {
    std::unique_ptr<serving::EstimatorService> leader = MakeService(options);
    leader->InsertBatch(all.first(9000));
    checkpoint_epoch = leader->epoch();
    ASSERT_TRUE(leader->Checkpoint(path).ok());
  }  // leader "killed"

  std::unique_ptr<serving::EstimatorService> standby = MakeService(options);
  ASSERT_TRUE(standby->Restore(path).ok());
  EXPECT_GT(standby->epoch(), checkpoint_epoch);  // the epoch bump on restore
  EXPECT_EQ(standby->count(), 9000u);
  standby->InsertBatch(all.subspan(9000));
  standby->Publish();

  const std::vector<selectivity::Query> queries = MixedWorkload(52, 128);
  EXPECT_EQ(standby->count(), uninterrupted->count());
  EXPECT_EQ(Answers(*standby, queries), Answers(*uninterrupted, queries));
  std::remove(path.c_str());
}

TEST(EstimatorServiceTest, RestoreEpochExceedsBothHistories) {
  const std::string path = testing::TempDir() + "/wde_service_epochs.snap";
  serving::ServiceOptions options;
  options.publish_interval = 0;

  std::unique_ptr<serving::EstimatorService> leader = MakeService(options);
  leader->InsertBatch(UnitStream(61, 1000));
  for (int i = 0; i < 3; ++i) leader->Publish();
  const uint64_t leader_epoch = leader->epoch();
  ASSERT_TRUE(leader->Checkpoint(path).ok());

  // A standby that has already published PAST the leader's epoch: restore
  // must land strictly above both, so neither side's cached results or held
  // views can collide with post-restore epochs.
  std::unique_ptr<serving::EstimatorService> busy_standby = MakeService(options);
  for (int i = 0; i < 9; ++i) busy_standby->Publish();
  const uint64_t standby_epoch = busy_standby->epoch();
  ASSERT_GT(standby_epoch, leader_epoch);
  ASSERT_TRUE(busy_standby->Restore(path).ok());
  EXPECT_GT(busy_standby->epoch(), standby_epoch);

  // A fresh standby restores to exactly leader_epoch + 1.
  std::unique_ptr<serving::EstimatorService> fresh_standby =
      MakeService(options);
  ASSERT_TRUE(fresh_standby->Restore(path).ok());
  EXPECT_EQ(fresh_standby->epoch(), leader_epoch + 1);
  EXPECT_EQ(fresh_standby->count(), 1000u);
  std::remove(path.c_str());
}

TEST(EstimatorServiceTest, RestoreRejectsCorruptCheckpointsUntouched) {
  const std::string path = testing::TempDir() + "/wde_service_corrupt.snap";
  const std::string other_path = path + ".reservoir";
  serving::ServiceOptions options;
  options.publish_interval = 0;
  std::unique_ptr<serving::EstimatorService> leader = MakeService(options);
  leader->InsertBatch(UnitStream(71, 500));
  ASSERT_TRUE(leader->Checkpoint(path).ok());
  Result<io::FileSource> file = io::FileSource::Open(path);
  ASSERT_TRUE(file.ok());
  std::vector<uint8_t> bytes(file->remaining());
  ASSERT_TRUE(file->Read(bytes.data(), bytes.size()).ok());
  // A reservoir writer's checkpoint carries another type tag.
  selectivity::EstimatorSpec reservoir;
  reservoir.tag = "reservoir";
  ASSERT_TRUE(MakeService(options, reservoir)->Checkpoint(other_path).ok());

  std::unique_ptr<serving::EstimatorService> target = MakeService(options);
  target->InsertBatch(UnitStream(72, 50));
  const uint64_t epoch_before = target->Publish();
  const std::vector<selectivity::Query> queries = MixedWorkload(74, 32);
  const std::vector<double> answers_before = Answers(*target, queries);
  EXPECT_EQ(target->Restore(other_path).code(), StatusCode::kFailedPrecondition);
  // Truncated, one trailing byte, and a flipped byte inside the writer's
  // state payload (its CRC no longer matches): each Restore must fail.
  std::vector<uint8_t> trailing = bytes;
  trailing.push_back(0);
  std::vector<uint8_t> flipped = bytes;
  flipped[flipped.size() - 8] ^= 0x01;
  const std::vector<uint8_t> truncated(bytes.begin(), bytes.begin() + bytes.size() / 2);
  for (const std::vector<uint8_t>& corrupt : {truncated, trailing, flipped}) {
    ASSERT_TRUE(io::WriteFileAtomically(path, [&corrupt](io::Sink& sink) {
                  return sink.Append(corrupt.data(), corrupt.size());
                }).ok());
    EXPECT_FALSE(target->Restore(path).ok());
  }
  // Nothing changed: a committed load would show in the count, a republish
  // in the epoch.
  EXPECT_EQ(target->count(), 50u);
  EXPECT_EQ(target->epoch(), epoch_before);
  EXPECT_EQ(Answers(*target, queries), answers_before);
  std::remove(path.c_str());
  std::remove(other_path.c_str());
}

std::vector<uint8_t> FileBytes(const std::string& path) {
  Result<io::FileSource> file = io::FileSource::Open(path);
  WDE_CHECK_OK(file.status());
  std::vector<uint8_t> bytes(file->remaining());
  WDE_CHECK_OK(file->Read(bytes.data(), bytes.size()));
  return bytes;
}

bool PathExists(const std::string& path) {
  return std::filesystem::exists(std::filesystem::symlink_status(path));
}

TEST(EstimatorServiceTest, CheckpointFailingMidwayKeepsThePreviousOne) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const std::string path = testing::TempDir() + "/wde_service_full.snap";
  const std::string tmp_path = path + ".tmp";
  serving::ServiceOptions options;
  options.publish_interval = 0;
  selectivity::EstimatorSpec kde;
  kde.tag = "kde-rot";
  std::unique_ptr<serving::EstimatorService> service = MakeService(options, kde);
  service->InsertBatch(UnitStream(81, 20000));
  ASSERT_TRUE(service->Checkpoint(path).ok());
  const std::vector<uint8_t> before = FileBytes(path);
  // The temporary file is /dev/full: the 160 KB state write fails with
  // ENOSPC after the header and the first chunks went out.
  service->InsertBatch(UnitStream(82, 5000));
  std::filesystem::remove(tmp_path);
  std::filesystem::create_symlink("/dev/full", tmp_path);
  EXPECT_FALSE(service->Checkpoint(path).ok());
  EXPECT_FALSE(PathExists(tmp_path));
  EXPECT_EQ(FileBytes(path), before);
  std::unique_ptr<serving::EstimatorService> restored = MakeService(options, kde);
  ASSERT_TRUE(restored->Restore(path).ok());
  EXPECT_EQ(restored->count(), 20000u);
  std::remove(path.c_str());
}

/// A snapshotable value counter whose state payload, once `unstable` is
/// set, is one byte longer on every second save: a nondeterministic
/// SaveStateImpl, which the two-pass chunk framing must refuse.
class UnstableStateEstimator : public selectivity::SelectivityEstimator {
 public:
  void Insert(double) override { ++count_; }
  size_t count() const override { return count_; }
  std::string name() const override { return "test-unstable-state"; }
  const char* snapshot_type_tag() const override { return "test-unstable-state"; }
  std::unique_ptr<selectivity::SelectivityEstimator> CloneForView() const override {
    return std::make_unique<UnstableStateEstimator>(*this);
  }
  bool unstable = false;

 protected:
  double EstimateRangeImpl(double, double) const override { return 0.0; }
  Status SaveStateImpl(io::Sink& sink) const override {
    WDE_RETURN_IF_ERROR(io::WriteU64(sink, count_));
    if (unstable && ++saves_ % 2 == 0) return io::WriteU8(sink, 0);
    return Status::OK();
  }
  Status LoadStateImpl(io::Source& source) override {
    WDE_ASSIGN_OR_RETURN(const uint64_t count, io::ReadU64(source));
    if (source.remaining() != 0) return Status::InvalidArgument("trailing state");
    count_ = static_cast<size_t>(count);
    return Status::OK();
  }

 private:
  size_t count_ = 0;
  mutable int saves_ = 0;
};

TEST(EstimatorServiceTest, CheckpointOfANondeterministicStateIsRefused) {
  const std::string path = testing::TempDir() + "/wde_service_unstable.snap";
  auto owned = std::make_unique<UnstableStateEstimator>();
  UnstableStateEstimator& writer = *owned;
  serving::ServiceOptions options;
  options.publish_interval = 0;
  Result<std::unique_ptr<serving::EstimatorService>> service =
      serving::EstimatorService::Create(std::move(owned), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  (*service)->InsertBatch(UnitStream(83, 100));
  ASSERT_TRUE((*service)->Checkpoint(path).ok());
  const std::vector<uint8_t> before = FileBytes(path);
  (*service)->InsertBatch(UnitStream(84, 10));
  writer.unstable = true;
  EXPECT_EQ((*service)->Checkpoint(path).code(), StatusCode::kInternal);
  EXPECT_FALSE(PathExists(path + ".tmp"));
  EXPECT_EQ(FileBytes(path), before);
  std::remove(path.c_str());
}

// The threads that ran ThreadProbeEstimator inserts. Each InsertBatch waits
// until `inside` reaches 2, so after a reset the next batch over two shards
// provably runs one shard on a pool worker, not both on the calling thread.
struct IngestThreads {
  std::mutex mu;
  std::condition_variable cv;
  int inside = 0;
  std::set<std::thread::id> seen;
};

IngestThreads& Ingest() {
  static IngestThreads threads;
  return threads;
}

/// A mergeable, snapshotable value counter that answers nothing but records
/// the thread of every insert batch (see IngestThreads).
class ThreadProbeEstimator : public selectivity::SelectivityEstimator {
 public:
  static constexpr const char* kTag = "test-thread-probe";
  static Result<std::unique_ptr<selectivity::SelectivityEstimator>> Make(
      const selectivity::EstimatorSpec&) {
    return std::unique_ptr<selectivity::SelectivityEstimator>(
        std::make_unique<ThreadProbeEstimator>());
  }

  void Insert(double x) override { InsertBatch(std::span<const double>(&x, 1)); }
  void InsertBatch(std::span<const double> xs) override {
    IngestThreads& threads = Ingest();
    std::unique_lock<std::mutex> lock(threads.mu);
    threads.seen.insert(std::this_thread::get_id());
    ++threads.inside;
    threads.cv.notify_all();
    threads.cv.wait_for(lock, std::chrono::seconds(30),
                        [&threads] { return threads.inside >= 2; });
    count_ += xs.size();
  }
  size_t count() const override { return count_; }
  std::string name() const override { return kTag; }
  std::unique_ptr<selectivity::SelectivityEstimator> CloneEmpty() const override {
    return std::make_unique<ThreadProbeEstimator>();
  }
  Status MergeFrom(const selectivity::SelectivityEstimator& other) override {
    WDE_RETURN_IF_ERROR(CheckMergePeer(other));
    count_ += static_cast<const ThreadProbeEstimator&>(other).count_;
    return Status::OK();
  }
  WDE_SELECTIVITY_MERGE_TAG()
  const char* snapshot_type_tag() const override { return kTag; }
  std::unique_ptr<selectivity::SelectivityEstimator> CloneForView() const override {
    return std::make_unique<ThreadProbeEstimator>(*this);
  }

 protected:
  double EstimateRangeImpl(double, double) const override { return 0.0; }
  Status SaveStateImpl(io::Sink& sink) const override {
    return io::WriteU64(sink, count_);
  }
  Status LoadStateImpl(io::Source& source) override {
    WDE_ASSIGN_OR_RETURN(const uint64_t count, io::ReadU64(source));
    if (source.remaining() != 0) return Status::InvalidArgument("trailing state");
    count_ = static_cast<size_t>(count);
    return Status::OK();
  }

 private:
  size_t count_ = 0;
};

TEST(EstimatorServiceTest, RestoredShardedWriterKeepsTheCallersPool) {
  // Restore loads into the live writer, so a sharded service built on a
  // caller-owned pool keeps ingesting on that pool afterwards instead of
  // falling back to ThreadPool::Shared().
  selectivity::EstimatorRegistry& registry = selectivity::EstimatorRegistry::Global();
  if (!registry.Contains(ThreadProbeEstimator::kTag)) {
    ASSERT_TRUE(
        registry.Register(ThreadProbeEstimator::kTag, ThreadProbeEstimator::Make).ok());
  }
  const std::string path = testing::TempDir() + "/wde_service_pool.snap";
  parallel::ThreadPool pool(1);
  std::promise<std::thread::id> worker;
  pool.Submit([&worker] { worker.set_value(std::this_thread::get_id()); });
  selectivity::ShardedSelectivityEstimator::Options sharding;
  sharding.shards = 2;
  sharding.block_size = 4;
  sharding.pool = &pool;
  Result<selectivity::ShardedSelectivityEstimator> writer =
      selectivity::ShardedSelectivityEstimator::Create(ThreadProbeEstimator(), sharding);
  ASSERT_TRUE(writer.ok());
  Result<std::unique_ptr<serving::EstimatorService>> service =
      serving::EstimatorService::Create(
          std::make_unique<selectivity::ShardedSelectivityEstimator>(
              std::move(writer).value()),
          serving::ServiceOptions{});
  ASSERT_TRUE(service.ok());
  const std::vector<double> batch(8, 0.5);  // one block per shard
  (*service)->InsertBatch(batch);
  ASSERT_TRUE((*service)->Checkpoint(path).ok());
  ASSERT_TRUE((*service)->Restore(path).ok());

  IngestThreads& threads = Ingest();
  {
    std::lock_guard<std::mutex> lock(threads.mu);
    threads.seen.clear();
    threads.inside = 0;
  }
  (*service)->InsertBatch(batch);
  EXPECT_EQ((*service)->count(), 16u);
  std::lock_guard<std::mutex> lock(threads.mu);
  EXPECT_EQ(threads.seen, (std::set<std::thread::id>{std::this_thread::get_id(),
                                                      worker.get_future().get()}));
  std::remove(path.c_str());
}

TEST(EstimatorServiceTest, ServesEveryRegisteredWriterIncludingUnmergeable) {
  // The reservoir cannot be sharded (no MergeFrom), but the service
  // publishes its CloneForView copies all the same.
  selectivity::EstimatorSpec spec;
  spec.tag = "reservoir";
  spec.capacity = 256;
  spec.seed = 9;
  serving::ServiceOptions options;
  options.publish_interval = 512;
  std::unique_ptr<serving::EstimatorService> service =
      MakeService(options, spec);
  service->InsertBatch(UnitStream(91, 2000));
  service->Publish();
  const std::vector<selectivity::Query> queries = MixedWorkload(92, 64);
  const std::vector<double> via_service = Answers(*service, queries);
  EXPECT_EQ(via_service, Answers(*service->CurrentView().estimator, queries));
}

TEST(EstimatorServiceTest, CreateValidatesWriterAndOptions) {
  EXPECT_FALSE(
      serving::EstimatorService::Create(nullptr, serving::ServiceOptions{})
          .ok());
  serving::ServiceOptions no_slots;
  no_slots.cache_shards = 2;
  no_slots.cache_slots_per_shard = 0;
  EXPECT_FALSE(
      serving::EstimatorService::Create(ShardedHistogramSpec(), no_slots).ok());
  serving::ServiceOptions negative_staleness;
  negative_staleness.max_staleness_ms = -5;
  EXPECT_FALSE(serving::EstimatorService::Create(ShardedHistogramSpec(),
                                                 negative_staleness)
                   .ok());
  selectivity::EstimatorSpec bad_spec;
  bad_spec.tag = "no-such-estimator";
  EXPECT_FALSE(
      serving::EstimatorService::Create(bad_spec, serving::ServiceOptions{})
          .ok());
}

TEST(QueryResultCacheTest, KeysHashAndCompareBitwise) {
  const selectivity::Query a = selectivity::Query::Range(0.1, 0.9);
  const selectivity::Query b = selectivity::Query::Range(0.1, 0.9);
  const selectivity::Query c = selectivity::Query::Cdf(0.1);
  EXPECT_TRUE(serving::QueryKeyEquals(a, b));
  EXPECT_EQ(serving::QueryKeyHash(a), serving::QueryKeyHash(b));
  EXPECT_FALSE(serving::QueryKeyEquals(a, c));
  // NaN payloads are honest keys (bit-pattern identity, not ==).
  const selectivity::Query nan1 = selectivity::Query::Point(kNanQ);
  const selectivity::Query nan2 = selectivity::Query::Point(kNanQ);
  EXPECT_TRUE(serving::QueryKeyEquals(nan1, nan2));
  // ±0.0 are distinct keys even though they compare == as doubles.
  EXPECT_FALSE(serving::QueryKeyEquals(selectivity::Query::Cdf(0.0),
                                       selectivity::Query::Cdf(-0.0)));
}

TEST(QueryResultCacheTest, LookupInsertAndEpochSemantics) {
  serving::QueryResultCache cache(2, 100);  // rounds up to 128 slots
  EXPECT_EQ(cache.slots_per_shard(), 128u);
  const selectivity::Query q = selectivity::Query::Less(0.3);
  double out = 0.0;
  EXPECT_FALSE(cache.Lookup(q, 1, &out));
  cache.Insert(q, 1, 0.25);
  ASSERT_TRUE(cache.Lookup(q, 1, &out));
  EXPECT_EQ(out, 0.25);
  // A different epoch never hits, in either direction.
  EXPECT_FALSE(cache.Lookup(q, 2, &out));
  cache.Insert(q, 2, 0.5);
  ASSERT_TRUE(cache.Lookup(q, 2, &out));
  EXPECT_EQ(out, 0.5);
  EXPECT_FALSE(cache.Lookup(q, 1, &out));
  // Epoch 0 is the reserved empty tag: inserts are ignored, lookups miss.
  cache.Insert(q, 0, 0.75);
  EXPECT_FALSE(cache.Lookup(q, 0, &out));
  const serving::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 4u);
}

TEST(QueryResultCacheTest, StripesNeverShareASlot) {
  // Two keys with the same slot bits but different stripe bits must both
  // stay cached: each stripe owns its own range of the slot array.
  constexpr size_t kShards = 4;
  serving::QueryResultCache cache(kShards, 16);
  const uint64_t mask = cache.slots_per_shard() - 1;
  const auto stripe = [](uint64_t hash) { return (hash >> 48) % kShards; };
  const selectivity::Query first = selectivity::Query::Cdf(0.5);
  const uint64_t first_hash = serving::QueryKeyHash(first);
  std::optional<selectivity::Query> second;
  for (int i = 1; i < 100000 && !second; ++i) {
    const selectivity::Query q = selectivity::Query::Cdf(i * 1e-5);
    const uint64_t hash = serving::QueryKeyHash(q);
    if ((hash & mask) == (first_hash & mask) && stripe(hash) != stripe(first_hash)) {
      second = q;
    }
  }
  ASSERT_TRUE(second.has_value());
  cache.Insert(first, 1, 0.25);
  cache.Insert(*second, 1, 0.75);
  double out = 0.0;
  ASSERT_TRUE(cache.Lookup(first, 1, &out));
  EXPECT_EQ(out, 0.25);
  ASSERT_TRUE(cache.Lookup(*second, 1, &out));
  EXPECT_EQ(out, 0.75);
}

}  // namespace
}  // namespace wde
