// Tests for the refit engine against the stream itself: after any schedule
// of inserts, merges and snapshot round trips, an estimator brought up to
// date with ForceRefit() must answer as a fresh estimator of the same spec
// fed the whole stream so far and fitted once — bitwise for the
// sorted-buffer and count tags (snapshot bytes too), to 1e-12 relative
// where a merge reorders the wavelet sketch's floating-point sums. For the
// sharded engine that fresh fit is the from-zero CloneEmpty + K MergeFrom
// rebuild, so the delta-refreshed merged view is checked against it at
// every shard and pool width, and against one unsharded estimator fed the
// same stream. ForceRefit() must quiesce any registered estimator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "io/serialize.hpp"
#include "parallel/thread_pool.hpp"
#include "selectivity/estimator_registry.hpp"
#include "selectivity/estimator_spec.hpp"
#include "selectivity/query_workload.hpp"
#include "selectivity/selectivity_estimator.hpp"
#include "selectivity/sharded_selectivity.hpp"
#include "stats/rng.hpp"

namespace wde {
namespace {

std::vector<double> UnitStream(uint64_t seed, size_t n) {
  stats::Rng rng(seed);
  std::vector<double> xs(n);
  for (double& x : xs) x = rng.UniformDouble();
  return xs;
}

std::vector<selectivity::Query> Workload(uint64_t seed, size_t count) {
  stats::Rng rng(seed);
  return selectivity::MixedQueryWorkload(rng, count, 0.0, 1.0);
}

std::vector<double> Answers(const selectivity::SelectivityEstimator& estimator,
                            const std::vector<selectivity::Query>& queries) {
  std::vector<double> out(queries.size());
  estimator.Answer(queries, out);
  return out;
}

/// A spec for `tag` sized so the schedules below cross several refit
/// intervals without slowing the suite.
selectivity::EstimatorSpec SpecFor(const std::string& tag) {
  selectivity::EstimatorSpec spec;
  spec.tag = tag;
  spec.dims = selectivity::EstimatorRegistry::Global().NativeDims(tag);
  if (spec.dims == 0) spec.dims = 1;  // non-registry tags in the loops below
  spec.refit_interval = 256;
  spec.j_max = 8;
  if (tag == "sharded") {
    spec.sharded_inner_tag = "kde-rot";
    spec.shards = 3;
    spec.block_size = 64;
  }
  return spec;
}

std::unique_ptr<selectivity::SelectivityEstimator> Make(
    const selectivity::EstimatorSpec& spec) {
  Result<std::unique_ptr<selectivity::SelectivityEstimator>> estimator =
      selectivity::MakeEstimator(spec);
  WDE_CHECK(estimator.ok(), estimator.status().ToString().c_str());
  return std::move(estimator).value();
}

/// The stream's own answer: a fresh estimator of `spec` fed `stream` in one
/// batch and fitted once, at its full count.
std::unique_ptr<selectivity::SelectivityEstimator> FreshFit(
    const selectivity::EstimatorSpec& spec, std::span<const double> stream) {
  std::unique_ptr<selectivity::SelectivityEstimator> fresh = Make(spec);
  fresh->InsertBatch(stream);
  fresh->ForceRefit();
  return fresh;
}

std::unique_ptr<selectivity::SelectivityEstimator> RoundTripThroughSnapshot(
    const selectivity::SelectivityEstimator& estimator) {
  io::VectorSink sink;
  WDE_CHECK_OK(selectivity::SaveEstimatorSnapshot(estimator, sink));
  io::SpanSource source(sink.bytes());
  Result<std::unique_ptr<selectivity::SelectivityEstimator>> restored =
      selectivity::LoadEstimatorSnapshot(source);
  WDE_CHECK(restored.ok(), restored.status().ToString().c_str());
  return std::move(restored).value();
}

std::vector<uint8_t> SnapshotBytes(const selectivity::SelectivityEstimator& estimator) {
  io::VectorSink sink;
  WDE_CHECK_OK(selectivity::SaveEstimatorSnapshot(estimator, sink));
  return {sink.bytes().begin(), sink.bytes().end()};
}

/// The mergeability contract's bound for floating-point sums.
void ExpectRelNear(const std::vector<double>& got, const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], 1e-12 * std::max(1.0, std::fabs(want[i])))
        << "query " << i;
  }
}

// Uneven chunk sizes so refits land mid-chunk, at chunk boundaries, and via
// the scalar Insert path; the total crosses refit_interval = 256 many times.
constexpr size_t kChunks[] = {1, 3, 130, 256, 511, 64, 1024, 7, 389, 500};

// ---------------------------------------------------------------------------
// Every registered tag, over an insert/merge schedule, against a fresh fit
// of the same stream after every step.
// ---------------------------------------------------------------------------

TEST(RefitEquivalenceTest, EveryTagAnswersAsAFreshFitOfTheSameStream) {
  const std::vector<selectivity::Query> queries = Workload(7, 96);
  for (const std::string& tag :
       selectivity::EstimatorRegistry::Global().Tags()) {
    SCOPED_TRACE(tag);
    const selectivity::EstimatorSpec spec = SpecFor(tag);
    std::unique_ptr<selectivity::SelectivityEstimator> engine = Make(spec);
    std::vector<double> stream;

    for (const size_t chunk : kChunks) {
      const std::vector<double> xs = UnitStream(11 + stream.size(), chunk);
      if (chunk == 1) {
        engine->Insert(xs[0]);
      } else {
        engine->InsertBatch(xs);
      }
      (void)Answers(*engine, queries);  // lazy refits at the engine's own pace
      stream.insert(stream.end(), xs.begin(), xs.end());
      engine->ForceRefit();
      const std::unique_ptr<selectivity::SelectivityEstimator> fresh =
          FreshFit(spec, stream);
      EXPECT_EQ(Answers(*engine, queries), Answers(*fresh, queries))
          << "diverged after " << stream.size() << " inserts";
      if (tag != "sharded") {
        EXPECT_EQ(SnapshotBytes(*engine), SnapshotBytes(*fresh))
            << "bytes diverged after " << stream.size() << " inserts";
      }
    }

    // Merge schedule: fold a separately grown and fitted peer in and keep
    // going; a merge resets fitted caches, the next refit must land on the
    // fresh fit of both streams. The peer stays below the reservoir's
    // capacity, so the reservoir's merge is an exact replay of it.
    if (engine->mergeable()) {
      // A merge combines whole observations: first complete the one a 2-D
      // tag still holds half of.
      const size_t dims = static_cast<size_t>(spec.dims);
      const std::vector<double> pad = UnitStream(98, (dims - stream.size() % dims) % dims);
      engine->InsertBatch(pad);
      stream.insert(stream.end(), pad.begin(), pad.end());
      std::unique_ptr<selectivity::SelectivityEstimator> peer = Make(spec);
      const std::vector<double> peer_xs = UnitStream(99, 200);
      peer->InsertBatch(peer_xs);
      peer->ForceRefit();
      ASSERT_TRUE(engine->MergeFrom(*peer).ok());
      stream.insert(stream.end(), peer_xs.begin(), peer_xs.end());
      for (const size_t more : {size_t{0}, size_t{300}}) {
        const std::vector<double> xs = UnitStream(100, more);
        engine->InsertBatch(xs);
        stream.insert(stream.end(), xs.begin(), xs.end());
        engine->ForceRefit();
        const std::vector<double> want = Answers(*FreshFit(spec, stream), queries);
        if (tag == "wavelet-cv") {
          ExpectRelNear(Answers(*engine, queries), want);
        } else {
          EXPECT_EQ(Answers(*engine, queries), want) << "after the merge + " << more;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The refit fold orders the sorted column canonically (−0.0 before +0.0), so
// a stream holding both zeros folds into the bytes of a fresh fit: the two
// tags that keep a sorted column, alone and sharded.
// ---------------------------------------------------------------------------

std::vector<double> StreamWithBothZeros(uint64_t seed, size_t n) {
  std::vector<double> xs = UnitStream(seed, n);
  for (size_t i = 0; i < n; i += 5) xs[i] = (i / 5) % 3 == 0 ? -0.0 : 0.0;
  return xs;
}

TEST(RefitEquivalenceTest, BothZerosFoldIntoTheBytesOfAFreshFit) {
  const std::vector<selectivity::Query> queries = Workload(53, 32);
  for (const std::string tag : {"kde-rot", "equi-depth"}) {
    for (const bool sharded : {false, true}) {
      SCOPED_TRACE(tag + (sharded ? " sharded" : ""));
      selectivity::EstimatorSpec spec = SpecFor(sharded ? "sharded" : tag);
      spec.sharded_inner_tag = tag;
      std::unique_ptr<selectivity::SelectivityEstimator> engine = Make(spec);
      std::vector<double> stream;
      // Short folds, then tails of tens of thousands into a growing prefix.
      std::vector<size_t> chunks(std::begin(kChunks), std::end(kChunks));
      chunks.insert(chunks.end(), {20000, 45000});
      for (const size_t chunk : chunks) {
        const std::vector<double> xs = StreamWithBothZeros(61 + stream.size(), chunk);
        engine->InsertBatch(xs);
        (void)Answers(*engine, queries);
        stream.insert(stream.end(), xs.begin(), xs.end());
        engine->ForceRefit();
        const std::unique_ptr<selectivity::SelectivityEstimator> fresh =
            FreshFit(spec, stream);
        EXPECT_EQ(Answers(*engine, queries), Answers(*fresh, queries))
            << "diverged after " << stream.size() << " inserts";
        if (!sharded) {
          EXPECT_EQ(SnapshotBytes(*engine), SnapshotBytes(*fresh))
              << "bytes diverged after " << stream.size() << " inserts";
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ForceRefit() quiesces any registered estimator: idempotent, and answers
// afterwards match the lazily refreshed ones an untouched twin gives at the
// same count once its own refresh runs at full count.
// ---------------------------------------------------------------------------

TEST(RefitEquivalenceTest, ForceRefitIsIdempotentAndAnswerPreserving) {
  const std::vector<selectivity::Query> queries = Workload(17, 64);
  for (const std::string& tag :
       selectivity::EstimatorRegistry::Global().Tags()) {
    SCOPED_TRACE(tag);
    std::unique_ptr<selectivity::SelectivityEstimator> quiesced = Make(SpecFor(tag));
    // 1000 is NOT a multiple of refit_interval: the forced refit below runs
    // at a count the lazy cadence would not have fitted at.
    quiesced->InsertBatch(UnitStream(18, 1000));
    quiesced->ForceRefit();
    const std::vector<double> first = Answers(*quiesced, queries);
    quiesced->ForceRefit();  // idempotent: fitted at current count already
    EXPECT_EQ(Answers(*quiesced, queries), first);
  }
}

// ---------------------------------------------------------------------------
// Mid-refit-interval snapshot save -> restore -> continue stays bitwise
// equal to the uninterrupted run for the refit-carrying estimators.
// ---------------------------------------------------------------------------

TEST(RefitEquivalenceTest, MidIntervalSnapshotRestoreContinuesBitIdentically) {
  const std::vector<selectivity::Query> queries = Workload(27, 96);
  const std::vector<double> head = UnitStream(28, 1000);  // mid-interval count
  const std::vector<double> tail = UnitStream(29, 700);
  for (const char* tag :
       {"kde-rot", "equi-depth", "wavelet-cv", "haar-synopsis", "sharded"}) {
    SCOPED_TRACE(tag);
    std::unique_ptr<selectivity::SelectivityEstimator> live = Make(SpecFor(tag));
    live->InsertBatch(head);
    (void)Answers(*live, queries);  // fit some caches pre-save

    std::unique_ptr<selectivity::SelectivityEstimator> restored =
        RoundTripThroughSnapshot(*live);
    EXPECT_EQ(Answers(*restored, queries), Answers(*live, queries));

    live->InsertBatch(tail);
    restored->InsertBatch(tail);
    EXPECT_EQ(Answers(*restored, queries), Answers(*live, queries));
  }
}

// ---------------------------------------------------------------------------
// Sharded engine: the delta-refreshed merged view (per-replica high-water
// tail merges + one forced refit) answers bit-identically to a fresh
// engine's first refresh, the from-zero rebuild, across shard widths, for
// the buffer inner types (KDE, equi-depth: tail-merge path) and the
// additive-sum inner types (wavelet sketch, and the 2-D grid over
// interleaved pairs: full re-merge every time). ExtractMergedView must
// agree too.
// ---------------------------------------------------------------------------

TEST(RefitEquivalenceTest, ShardedDeltaRefreshMatchesFullRebuild) {
  const std::vector<selectivity::Query> queries = Workload(37, 96);
  for (const char* inner : {"kde-rot", "equi-depth", "grid2d", "wavelet-cv"}) {
    SCOPED_TRACE(inner);
    for (const size_t shards : {1u, 2u, 5u}) {
      SCOPED_TRACE(shards);
      selectivity::EstimatorSpec spec = SpecFor("sharded");
      spec.sharded_inner_tag = inner;
      spec.shards = shards;
      // A 2-D inner reads interleaved pairs; SpecFor's block_size (64) is
      // even, so no pair splits across shards.
      spec.dims = selectivity::EstimatorRegistry::Global().NativeDims(inner);
      std::unique_ptr<selectivity::SelectivityEstimator> engine = Make(spec);
      std::vector<double> stream;

      for (const size_t chunk : kChunks) {
        const std::vector<double> xs = UnitStream(41 + stream.size(), chunk);
        engine->InsertBatch(xs);
        stream.insert(stream.end(), xs.begin(), xs.end());
        EXPECT_EQ(Answers(*engine, queries), Answers(*FreshFit(spec, stream), queries))
            << "diverged after " << stream.size() << " inserts";
      }

      // The extract refreshes the engine's own view; an insert + query
      // schedule after it delta-appends onto that view and must still land
      // on the rebuild.
      const std::unique_ptr<selectivity::SelectivityEstimator> view =
          static_cast<selectivity::ShardedSelectivityEstimator*>(engine.get())
              ->ExtractMergedView();
      std::unique_ptr<selectivity::SelectivityEstimator> fresh = FreshFit(spec, stream);
      EXPECT_EQ(Answers(*view, queries), Answers(*fresh, queries));
      EXPECT_EQ(Answers(*view, queries),
                Answers(*static_cast<selectivity::ShardedSelectivityEstimator*>(fresh.get())
                             ->ExtractMergedView(),
                        queries));

      const std::vector<double> more = UnitStream(43, 100);
      engine->InsertBatch(more);
      stream.insert(stream.end(), more.begin(), more.end());
      EXPECT_EQ(Answers(*engine, queries), Answers(*FreshFit(spec, stream), queries))
          << "post-extract divergence";
    }
  }
}

// A sharded engine over an inner type whose merged state is exactly the
// state of one estimator fed the whole stream (integer counts, or the sorted
// sample) must answer as that unsharded estimator does after every chunk,
// whichever replicas the chunk landed in.
TEST(RefitEquivalenceTest, ShardedEngineMatchesUnshardedEstimatorOnOneStream) {
  const std::vector<selectivity::Query> queries = Workload(53, 96);
  for (const char* inner : {"equi-width", "equi-depth", "grid2d", "kde-rot"}) {
    SCOPED_TRACE(inner);
    for (const size_t shards : {1u, 2u, 5u}) {
      SCOPED_TRACE(shards);
      selectivity::EstimatorSpec spec = SpecFor("sharded");
      spec.sharded_inner_tag = inner;
      spec.shards = shards;
      spec.dims = selectivity::EstimatorRegistry::Global().NativeDims(inner);
      std::unique_ptr<selectivity::SelectivityEstimator> sharded = Make(spec);
      std::unique_ptr<selectivity::SelectivityEstimator> unsharded = Make(SpecFor(inner));

      size_t offset = 0;
      for (const size_t chunk : kChunks) {
        const std::vector<double> xs = UnitStream(59 + offset, chunk);
        sharded->InsertBatch(xs);
        unsharded->InsertBatch(xs);
        offset += chunk;
        sharded->ForceRefit();
        unsharded->ForceRefit();
        EXPECT_EQ(Answers(*sharded, queries), Answers(*unsharded, queries))
            << "diverged after " << offset << " inserts";
      }
      const std::unique_ptr<selectivity::SelectivityEstimator> view =
          static_cast<selectivity::ShardedSelectivityEstimator*>(sharded.get())
              ->ExtractMergedView();
      view->ForceRefit();
      EXPECT_EQ(Answers(*view, queries), Answers(*unsharded, queries));
    }
  }
}

TEST(RefitEquivalenceTest, ShardedAnswersIdenticalAcrossPoolWidths) {
  const std::vector<selectivity::Query> queries = Workload(47, 96);
  const std::vector<double> xs = UnitStream(48, 5000);
  std::vector<std::vector<double>> per_pool;
  for (const int threads : {1, 3}) {
    parallel::ThreadPool pool(threads);
    selectivity::EstimatorSpec spec = SpecFor("sharded");
    spec.pool = &pool;
    std::unique_ptr<selectivity::SelectivityEstimator> engine = Make(spec);
    engine->InsertBatch(xs);
    per_pool.push_back(Answers(*engine, queries));
  }
  EXPECT_EQ(per_pool[0], per_pool[1]);
}

}  // namespace
}  // namespace wde
