// Tests for the shared ThreadPool executor: full index coverage, serial
// degradation, nested regions (no deadlock because callers participate),
// Submit, and the determinism contract that routing harness replication
// through the pool must preserve.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "harness/monte_carlo.hpp"
#include "parallel/thread_pool.hpp"
#include "stats/rng.hpp"

namespace wde {
namespace parallel {
namespace {

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (int count : {1, 2, 64, 1000}) {
    std::vector<std::atomic<int>> hits(static_cast<size_t>(count));
    for (auto& h : hits) h.store(0);
    pool.ParallelFor(count, [&](int i) { hits[static_cast<size_t>(i)]++; });
    for (int i = 0; i < count; ++i) {
      EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
    }
  }
}

TEST(ThreadPoolTest, ZeroCountIsANoOp) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](int) { FAIL() << "body must not run"; });
}

TEST(ThreadPoolTest, ZeroWorkerPoolRunsSerially) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 0);
  std::vector<int> order;
  pool.ParallelFor(8, [&](int i) { order.push_back(i); });  // no sync needed
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(ThreadPoolTest, MaxWorkersOneRunsOnTheCallerInOrder) {
  ThreadPool pool(4);
  std::vector<int> order;
  pool.ParallelFor(16, /*max_workers=*/1, [&](int i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(ThreadPoolTest, SubmitRunsTheTask) {
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  bool ran = false;
  pool.Submit([&]() {
    std::lock_guard<std::mutex> lock(mu);
    ran = true;
    cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&]() { return ran; });
  EXPECT_TRUE(ran);
}

TEST(ThreadPoolTest, SubmitOnZeroWorkerPoolRunsInline) {
  ThreadPool pool(0);
  bool ran = false;
  pool.Submit([&]() { ran = true; });
  EXPECT_TRUE(ran);  // inline: visible immediately, no sync needed
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // Every region's caller participates, so even a 1-worker pool saturated by
  // the outer region completes the inner regions.
  ThreadPool pool(1);
  std::atomic<int> total{0};
  pool.ParallelFor(4, [&](int) {
    pool.ParallelFor(8, [&](int) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(ThreadPoolTest, SharedPoolIsASingleton) {
  EXPECT_EQ(&ThreadPool::Shared(), &ThreadPool::Shared());
  EXPECT_GE(ThreadPool::Shared().thread_count(), 1);  // even if hw detection fails
}

TEST(ThreadPoolTest, CallerSideBodyExceptionWaitsForHelpers) {
  // A body that throws on the caller thread must not let ParallelFor unwind
  // while helpers still execute bodies capturing the caller's frame (the
  // `hits` vector below) — ASan/TSan runs of this test guard that contract.
  // Whether the caller claims an index at all is a scheduling race (helpers
  // can drain everything first, especially on one core), so helpers run a
  // slow body and the region is retried until the caller loses an attempt.
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::atomic<int>> hits(64);
  bool threw = false;
  for (int attempt = 0; attempt < 50 && !threw; ++attempt) {
    for (auto& h : hits) h.store(0);
    try {
      pool.ParallelFor(static_cast<int>(hits.size()), [&](int i) {
        if (std::this_thread::get_id() == caller) {
          throw std::runtime_error("caller body failure");
        }
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        hits[static_cast<size_t>(i)]++;
      });
    } catch (const std::runtime_error&) {
      threw = true;
    }
  }
  EXPECT_TRUE(threw) << "caller never claimed an index in 50 attempts";
  // The pool survives and runs further regions normally.
  std::atomic<int> total{0};
  pool.ParallelFor(64, [&](int) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPoolTest, ResultsIdenticalAcrossPoolAndWidth) {
  // The scheduling-independence contract: bodies writing disjoint slots give
  // bit-identical results for every pool size and max_workers value.
  const auto fill = [](ThreadPool& pool, int width) {
    std::vector<double> out(257);
    pool.ParallelFor(257, width, [&](int i) {
      stats::Rng rng(42);
      out[static_cast<size_t>(i)] = rng.Fork(static_cast<uint64_t>(i)).Gaussian();
    });
    return out;
  };
  ThreadPool serial(0);
  ThreadPool narrow(1);
  ThreadPool wide(8);
  const std::vector<double> baseline = fill(serial, 1);
  EXPECT_EQ(baseline, fill(narrow, 2));
  EXPECT_EQ(baseline, fill(wide, 8));
  EXPECT_EQ(baseline, fill(wide, 3));
}

TEST(HarnessOnPoolTest, CollectCurvesIdenticalForAnyThreadCount) {
  // CollectCurves executes on the shared pool; the (seed, r) forking
  // contract must keep results bit-identical for any `threads` value.
  const auto body = [](stats::Rng& rng, int rep) {
    return std::vector<double>{rng.Gaussian() + static_cast<double>(rep)};
  };
  const std::vector<std::vector<double>> serial =
      harness::CollectCurves(64, 7, 1, 1, body);
  EXPECT_EQ(serial, harness::CollectCurves(64, 7, 2, 1, body));
  EXPECT_EQ(serial, harness::CollectCurves(64, 7, 8, 1, body));
}

TEST(HarnessOnPoolTest, MeanCurveIdenticalForAnyThreadCount) {
  const auto body = [](stats::Rng& rng, int) {
    std::vector<double> row(16);
    for (double& v : row) v = rng.UniformDouble();
    return row;
  };
  const std::vector<double> serial = harness::MeanCurve(32, 11, 1, 16, body);
  EXPECT_EQ(serial, harness::MeanCurve(32, 11, 4, 16, body));
}

}  // namespace
}  // namespace parallel
}  // namespace wde
