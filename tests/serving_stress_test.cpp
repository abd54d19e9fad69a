// Concurrency stress suite for the serving engine, designed to run under
// ThreadSanitizer (the tsan CI preset includes it by name). N writer threads
// ingest and publish while M reader threads answer mixed batches, pin views,
// and re-answer through them; a checkpointer thread snapshots and a standby
// restores mid-traffic. The assertions are the invariants tsan cannot see:
// per-reader epoch monotonicity, and answers through a HELD view staying
// bit-identical no matter how many publishes happen in between (the RCU
// immutability contract). Every schedule runs over a deterministic seed
// matrix so failures reproduce.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "selectivity/estimator_spec.hpp"
#include "selectivity/query_workload.hpp"
#include "serving/estimator_service.hpp"
#include "stats/rng.hpp"
#include "util/check.hpp"

namespace wde {
namespace {

selectivity::EstimatorSpec ShardedHistogramSpec() {
  selectivity::EstimatorSpec spec;
  spec.tag = "sharded";
  spec.sharded_inner_tag = "equi-width";
  spec.buckets = 64;
  spec.shards = 3;
  spec.block_size = 128;
  return spec;
}

std::unique_ptr<serving::EstimatorService> MakeService(
    const selectivity::EstimatorSpec& spec, const serving::ServiceOptions& options) {
  Result<std::unique_ptr<serving::EstimatorService>> service =
      serving::EstimatorService::Create(spec, options);
  WDE_CHECK(service.ok(), service.status().ToString().c_str());
  return std::move(service).value();
}

std::vector<double> AnswersOf(const selectivity::SelectivityEstimator& view,
                              const std::vector<selectivity::Query>& queries) {
  std::vector<double> out(queries.size());
  view.Answer(queries, out);
  return out;
}

/// One full schedule: `writers` ingest threads racing `readers` answer
/// threads (plus an optional checkpoint/restore thread) over one service of
/// `spec`, published once over `prefill` values before the threads start.
/// Readers check epoch monotonicity and held-view bit-stability inline;
/// failures are counted atomically and asserted on the joined thread,
/// because gtest EXPECT_* is not thread-safe.
void RunSchedule(uint64_t seed, int writers, int readers,
                 bool with_checkpointer, const serving::ServiceOptions& options,
                 int batches_per_reader,
                 const selectivity::EstimatorSpec& spec = ShardedHistogramSpec(),
                 size_t prefill = 0) {
  std::unique_ptr<serving::EstimatorService> service = MakeService(spec, options);
  if (prefill > 0) {
    stats::Rng rng(seed);
    std::vector<double> values(prefill);
    for (double& x : values) x = rng.UniformDouble();
    service->InsertBatch(values);
    service->Publish();
  }
  std::atomic<uint64_t> epoch_regressions{0};
  std::atomic<uint64_t> held_view_divergences{0};
  std::atomic<bool> stop_writers{false};

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(writers + readers) + 1);
  for (int w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      stats::Rng rng(seed * 1000003 + static_cast<uint64_t>(w));
      std::vector<double> block(257);
      while (!stop_writers.load(std::memory_order_relaxed)) {
        for (double& x : block) x = rng.UniformDouble();
        service->InsertBatch(block);
        if (rng.UniformDouble() < 0.05) service->Publish();
      }
    });
  }
  for (int r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      stats::Rng rng(seed * 2000003 + static_cast<uint64_t>(r));
      uint64_t last_epoch = 0;
      for (int b = 0; b < batches_per_reader; ++b) {
        const std::vector<selectivity::Query> queries =
            selectivity::MixedQueryWorkload(rng, 32, 0.0, 1.0);
        std::vector<double> out(queries.size());
        service->Answer(queries, out);
        const serving::EstimatorService::View held = service->CurrentView();
        if (held.epoch < last_epoch) {
          epoch_regressions.fetch_add(1, std::memory_order_relaxed);
        }
        last_epoch = held.epoch;
        // The pinned view must answer bit-identically now and after many
        // more concurrent publishes have retired it.
        const std::vector<double> first = AnswersOf(*held.estimator, queries);
        std::this_thread::yield();
        if (AnswersOf(*held.estimator, queries) != first) {
          held_view_divergences.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  if (with_checkpointer) {
    threads.emplace_back([&] {
      const std::string path = testing::TempDir() + "/wde_stress_" +
                               std::to_string(seed) + ".snap";
      std::unique_ptr<serving::EstimatorService> standby =
          MakeService(spec, options);
      for (int i = 0; i < 4; ++i) {
        WDE_CHECK(service->Checkpoint(path).ok(), "stress checkpoint failed");
        // Warm-standby restore races the leader's writers and publishes.
        WDE_CHECK(standby->Restore(path).ok(), "stress restore failed");
        std::this_thread::yield();
      }
      std::remove(path.c_str());
    });
  }

  // Readers decide the schedule length; writers spin until they finish.
  for (size_t t = threads.size(); t-- > static_cast<size_t>(writers);) {
    threads[t].join();
    threads.pop_back();
  }
  stop_writers.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(epoch_regressions.load(), 0u) << "seed " << seed;
  EXPECT_EQ(held_view_divergences.load(), 0u) << "seed " << seed;
  EXPECT_GE(service->epoch(), 1u);
}

TEST(ServingStressTest, TwoWritersVersusThreeReaders) {
  serving::ServiceOptions options;
  options.publish_interval = 2048;
  for (uint64_t seed : {1u, 2u, 3u}) {
    RunSchedule(seed, /*writers=*/2, /*readers=*/3,
                /*with_checkpointer=*/false, options,
                /*batches_per_reader=*/60);
  }
}

TEST(ServingStressTest, ThreeWritersVersusTwoReaders) {
  serving::ServiceOptions options;
  options.publish_interval = 1024;
  for (uint64_t seed : {4u, 5u}) {
    RunSchedule(seed, /*writers=*/3, /*readers=*/2,
                /*with_checkpointer=*/false, options,
                /*batches_per_reader=*/60);
  }
}

TEST(ServingStressTest, CheckpointAndRestoreRaceTraffic) {
  serving::ServiceOptions options;
  options.publish_interval = 1024;
  for (uint64_t seed : {6u, 7u}) {
    RunSchedule(seed, /*writers=*/2, /*readers=*/2,
                /*with_checkpointer=*/true, options,
                /*batches_per_reader=*/40);
  }
}

TEST(ServingStressTest, TimePacedPublishesUnderTrickleIngest) {
  serving::ServiceOptions options;
  options.publish_interval = 0;
  options.max_staleness_ms = 1;  // every admission is effectively over budget
  RunSchedule(/*seed=*/8, /*writers=*/2, /*readers=*/2,
              /*with_checkpointer=*/false, options,
              /*batches_per_reader=*/40);
}

TEST(ServingStressTest, UnshardedKdeWriterRecyclesColumnsReadersRetire) {
  // 2e5 values make every sorted column a large (1.6 MB) arena block: a
  // reader that drops the last reference to a retired view parks its block,
  // and the writer's next fold takes it, on another thread.
  selectivity::EstimatorSpec spec;
  spec.tag = "kde-rot";
  serving::ServiceOptions options;
  options.publish_interval = 1024;
  RunSchedule(/*seed=*/9, /*writers=*/1, /*readers=*/3,
              /*with_checkpointer=*/false, options,
              /*batches_per_reader=*/200, spec, /*prefill=*/200000);
}

}  // namespace
}  // namespace wde
