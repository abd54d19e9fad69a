// Tests for the incremental refit engine: every estimator with a RefitMode
// knob must answer bitwise-identically in kIncremental (delta-merge fitted
// state) and kScratch (rebuild from zero — the oracle) across interleaved
// insert/query/merge schedules, across mid-refit-interval snapshot
// save -> restore -> continue, and — for the sharded engine — across the
// delta-refreshed merged view vs the full CloneEmpty + K MergeFrom rebuild
// at every pool width, and against one unsharded estimator fed the same
// stream. ForceRefit() must quiesce any registered estimator.
#include <gtest/gtest.h>

#include <memory>
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

/// A spec for `tag` sized so the interleaved schedules below cross several
/// refit intervals (many warm-started refits) without slowing the suite.
selectivity::EstimatorSpec SpecFor(const std::string& tag,
                                   selectivity::RefitMode mode) {
  selectivity::EstimatorSpec spec;
  spec.tag = tag;
  spec.dims = selectivity::EstimatorRegistry::Global().NativeDims(tag);
  if (spec.dims == 0) spec.dims = 1;  // non-registry tags in the loops below
  spec.refit_mode = mode;
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

// Uneven chunk sizes so refits land mid-chunk, at chunk boundaries, and via
// the scalar Insert path; the total crosses refit_interval = 256 many times.
constexpr size_t kChunks[] = {1, 3, 130, 256, 511, 64, 1024, 7, 389, 500};

// ---------------------------------------------------------------------------
// Incremental == scratch, bitwise, for every registered tag, over an
// interleaved insert/query/merge schedule.
// ---------------------------------------------------------------------------

TEST(RefitEquivalenceTest, EveryTagAnswersBitIdenticallyInBothModes) {
  const std::vector<selectivity::Query> queries = Workload(7, 96);
  for (const std::string& tag :
       selectivity::EstimatorRegistry::Global().Tags()) {
    SCOPED_TRACE(tag);
    std::unique_ptr<selectivity::SelectivityEstimator> incremental =
        Make(SpecFor(tag, selectivity::RefitMode::kIncremental));
    std::unique_ptr<selectivity::SelectivityEstimator> scratch =
        Make(SpecFor(tag, selectivity::RefitMode::kScratch));

    size_t offset = 0;
    for (const size_t chunk : kChunks) {
      const std::vector<double> xs = UnitStream(11 + offset, chunk);
      if (chunk == 1) {
        incremental->Insert(xs[0]);
        scratch->Insert(xs[0]);
      } else {
        incremental->InsertBatch(xs);
        scratch->InsertBatch(xs);
      }
      offset += chunk;
      EXPECT_EQ(Answers(*incremental, queries), Answers(*scratch, queries))
          << "diverged after " << offset << " inserts";
    }

    // Merge schedule: fold a separately grown peer (same mode) into each and
    // keep going — a merge resets fitted caches, the next refit must
    // re-converge the modes bitwise.
    if (incremental->mergeable()) {
      std::unique_ptr<selectivity::SelectivityEstimator> peer_inc =
          Make(SpecFor(tag, selectivity::RefitMode::kIncremental));
      std::unique_ptr<selectivity::SelectivityEstimator> peer_scr =
          Make(SpecFor(tag, selectivity::RefitMode::kScratch));
      const std::vector<double> peer_xs = UnitStream(99, 777);
      peer_inc->InsertBatch(peer_xs);
      peer_scr->InsertBatch(peer_xs);
      (void)Answers(*peer_inc, queries);  // fit the peers before merging
      (void)Answers(*peer_scr, queries);
      ASSERT_TRUE(incremental->MergeFrom(*peer_inc).ok());
      ASSERT_TRUE(scratch->MergeFrom(*peer_scr).ok());
      EXPECT_EQ(Answers(*incremental, queries), Answers(*scratch, queries));
      const std::vector<double> more = UnitStream(100, 300);
      incremental->InsertBatch(more);
      scratch->InsertBatch(more);
      EXPECT_EQ(Answers(*incremental, queries), Answers(*scratch, queries));
    }
  }
}

// ---------------------------------------------------------------------------
// The refit fold orders the sorted column canonically (−0.0 before +0.0), so
// a stream holding both zeros saves the same snapshot bytes in both modes:
// the two tags that keep a sorted column, alone and sharded.
// ---------------------------------------------------------------------------

std::vector<double> StreamWithBothZeros(uint64_t seed, size_t n) {
  std::vector<double> xs = UnitStream(seed, n);
  for (size_t i = 0; i < n; i += 5) xs[i] = (i / 5) % 3 == 0 ? -0.0 : 0.0;
  return xs;
}

std::vector<uint8_t> SnapshotBytes(const selectivity::SelectivityEstimator& estimator) {
  io::VectorSink sink;
  WDE_CHECK_OK(selectivity::SaveEstimatorSnapshot(estimator, sink));
  return {sink.bytes().begin(), sink.bytes().end()};
}

TEST(RefitEquivalenceTest, BothZerosSaveTheSameBytesInBothModes) {
  const std::vector<selectivity::Query> queries = Workload(53, 32);
  for (const std::string tag : {"kde-rot", "equi-depth"}) {
    for (const bool sharded : {false, true}) {
      SCOPED_TRACE(tag + (sharded ? " sharded" : ""));
      const auto make = [&](selectivity::RefitMode mode) {
        selectivity::EstimatorSpec spec = SpecFor(sharded ? "sharded" : tag, mode);
        spec.sharded_inner_tag = tag;
        return Make(spec);
      };
      std::unique_ptr<selectivity::SelectivityEstimator> incremental =
          make(selectivity::RefitMode::kIncremental);
      std::unique_ptr<selectivity::SelectivityEstimator> scratch =
          make(selectivity::RefitMode::kScratch);
      size_t offset = 0;
      for (const size_t chunk : kChunks) {
        const std::vector<double> xs = StreamWithBothZeros(61 + offset, chunk);
        incremental->InsertBatch(xs);
        scratch->InsertBatch(xs);
        offset += chunk;
        EXPECT_EQ(Answers(*incremental, queries), Answers(*scratch, queries))
            << "diverged after " << offset << " inserts";
        EXPECT_EQ(SnapshotBytes(*incremental), SnapshotBytes(*scratch))
            << "bytes diverged after " << offset << " inserts";
      }
      // Longer folds: tails of tens of thousands into a growing prefix.
      for (const size_t chunk : {size_t{20000}, size_t{45000}}) {
        const std::vector<double> xs = StreamWithBothZeros(61 + offset, chunk);
        incremental->InsertBatch(xs);
        scratch->InsertBatch(xs);
        offset += chunk;
        incremental->ForceRefit();
        scratch->ForceRefit();
        EXPECT_EQ(SnapshotBytes(*incremental), SnapshotBytes(*scratch))
            << "bytes diverged after " << offset << " inserts";
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
    std::unique_ptr<selectivity::SelectivityEstimator> quiesced =
        Make(SpecFor(tag, selectivity::RefitMode::kIncremental));
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
// equal to the uninterrupted run, in both modes, for the refit-carrying
// estimators the tentpole touched.
// ---------------------------------------------------------------------------

TEST(RefitEquivalenceTest, MidIntervalSnapshotRestoreContinuesBitIdentically) {
  const std::vector<selectivity::Query> queries = Workload(27, 96);
  const std::vector<double> head = UnitStream(28, 1000);  // mid-interval count
  const std::vector<double> tail = UnitStream(29, 700);
  for (const char* tag :
       {"kde-rot", "equi-depth", "wavelet-cv", "haar-synopsis", "sharded"}) {
    SCOPED_TRACE(tag);
    for (const selectivity::RefitMode mode :
         {selectivity::RefitMode::kIncremental,
          selectivity::RefitMode::kScratch}) {
      SCOPED_TRACE(mode == selectivity::RefitMode::kIncremental
                       ? "incremental"
                       : "scratch");
      std::unique_ptr<selectivity::SelectivityEstimator> live =
          Make(SpecFor(tag, mode));
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
}

// ---------------------------------------------------------------------------
// Sharded engine: the delta-refreshed merged view (per-replica high-water
// tail merges + one forced refit) answers bit-identically to the from-zero
// rebuild, across shard and pool widths, for the buffer inner types (KDE,
// equi-depth: tail-merge path) and the additive-sum inner types (wavelet
// sketch, and the 2-D grid over interleaved pairs: full re-merge fallback).
// ExtractMergedView must agree too.
// ---------------------------------------------------------------------------

TEST(RefitEquivalenceTest, ShardedDeltaRefreshMatchesFullRebuild) {
  const std::vector<selectivity::Query> queries = Workload(37, 96);
  for (const char* inner : {"kde-rot", "equi-depth", "grid2d", "wavelet-cv"}) {
    SCOPED_TRACE(inner);
    for (const size_t shards : {1u, 2u, 5u}) {
      SCOPED_TRACE(shards);
      selectivity::EstimatorSpec spec =
          SpecFor("sharded", selectivity::RefitMode::kIncremental);
      spec.sharded_inner_tag = inner;
      spec.shards = shards;
      // A 2-D inner reads interleaved pairs; SpecFor's block_size (64) is
      // even, so no pair splits across shards.
      spec.dims = selectivity::EstimatorRegistry::Global().NativeDims(inner);
      std::unique_ptr<selectivity::SelectivityEstimator> incremental =
          Make(spec);
      spec.refit_mode = selectivity::RefitMode::kScratch;
      std::unique_ptr<selectivity::SelectivityEstimator> scratch = Make(spec);

      size_t offset = 0;
      for (const size_t chunk : kChunks) {
        const std::vector<double> xs = UnitStream(41 + offset, chunk);
        incremental->InsertBatch(xs);
        scratch->InsertBatch(xs);
        offset += chunk;
        EXPECT_EQ(Answers(*incremental, queries), Answers(*scratch, queries))
            << "diverged after " << offset << " inserts";
      }

      auto* inc_engine =
          static_cast<selectivity::ShardedSelectivityEstimator*>(
              incremental.get());
      auto* scr_engine =
          static_cast<selectivity::ShardedSelectivityEstimator*>(
              scratch.get());
      const std::unique_ptr<selectivity::SelectivityEstimator> inc_view =
          inc_engine->ExtractMergedView();
      const std::unique_ptr<selectivity::SelectivityEstimator> scr_view =
          scr_engine->ExtractMergedView();
      EXPECT_EQ(Answers(*inc_view, queries), Answers(*scr_view, queries));

      // The extract refreshes the engines' own views; an insert+query
      // schedule after it stays bitwise-equal across modes (the incremental
      // engine delta-appends onto the view the extract refreshed, the
      // scratch engine rebuilds from zero).
      const std::vector<double> more = UnitStream(43, 100);
      incremental->InsertBatch(more);
      scratch->InsertBatch(more);
      EXPECT_EQ(Answers(*incremental, queries), Answers(*scratch, queries))
          << "post-extract divergence";
    }
  }
}

// The stream oracle: a sharded engine over an inner type whose merged state
// is exactly the state of one estimator fed the whole stream (integer counts,
// or the sorted sample) must answer as that unsharded estimator does after
// every chunk, whichever replicas the chunk landed in. Unlike the
// incremental-vs-scratch comparison above, this catches a merged view that
// stops following its replicas, since both modes would lag alike.
TEST(RefitEquivalenceTest, ShardedEngineMatchesUnshardedEstimatorOnOneStream) {
  const std::vector<selectivity::Query> queries = Workload(53, 96);
  for (const char* inner : {"equi-width", "equi-depth", "grid2d", "kde-rot"}) {
    SCOPED_TRACE(inner);
    for (const size_t shards : {1u, 2u, 5u}) {
      SCOPED_TRACE(shards);
      selectivity::EstimatorSpec spec =
          SpecFor("sharded", selectivity::RefitMode::kIncremental);
      spec.sharded_inner_tag = inner;
      spec.shards = shards;
      spec.dims = selectivity::EstimatorRegistry::Global().NativeDims(inner);
      std::unique_ptr<selectivity::SelectivityEstimator> sharded = Make(spec);
      std::unique_ptr<selectivity::SelectivityEstimator> unsharded =
          Make(SpecFor(inner, selectivity::RefitMode::kIncremental));

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
    selectivity::EstimatorSpec spec =
        SpecFor("sharded", selectivity::RefitMode::kIncremental);
    spec.pool = &pool;
    std::unique_ptr<selectivity::SelectivityEstimator> engine = Make(spec);
    engine->InsertBatch(xs);
    per_pool.push_back(Answers(*engine, queries));
  }
  EXPECT_EQ(per_pool[0], per_pool[1]);
}

}  // namespace
}  // namespace wde
