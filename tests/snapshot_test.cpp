// Tier-1 tests for the versioned snapshot/restore subsystem (PR 4): the io
// primitives and chunk framing, round-trip fidelity — every registered
// estimator answers bit-identically after save → load, including saves taken
// mid refit/rebuild interval where lazily fitted caches are stale — hostile
// input (truncated, bit-flipped, wrong magic, future version, hostile length
// prefixes) degrading into Status errors rather than UB, the registry's
// restore-without-naming-the-type path, cross-process-style snapshot merges
// matching sequential ingest, and the sharded engine's checkpoint → restore →
// continue-ingesting cycle. Run under ASan in CI.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/binned.hpp"
#include "core/coefficients.hpp"
#include "io/chunk.hpp"
#include "io/serialize.hpp"
#include "selectivity/estimator_registry.hpp"
#include "selectivity/grid2d_selectivity.hpp"
#include "selectivity/histogram.hpp"
#include "selectivity/kde2d_selectivity.hpp"
#include "selectivity/kde_selectivity.hpp"
#include "selectivity/query_workload.hpp"
#include "selectivity/sample_selectivity.hpp"
#include "selectivity/sharded_selectivity.hpp"
#include "selectivity/wavelet_selectivity.hpp"
#include "selectivity/wavelet_synopsis.hpp"
#include "stats/rng.hpp"
#include "wavelet/scaled_function.hpp"

namespace wde {
namespace {

const wavelet::WaveletBasis& Sym8Basis() {
  static const wavelet::WaveletBasis basis = []() {
    Result<wavelet::WaveletBasis> b =
        wavelet::WaveletBasis::Create(*wavelet::WaveletFilter::Symmlet(8), 12);
    WDE_CHECK(b.ok());
    return *b;
  }();
  return basis;
}

std::vector<double> UnitStream(uint64_t seed, size_t n) {
  stats::Rng rng(seed);
  std::vector<double> xs(n);
  for (double& x : xs) x = rng.UniformDouble();
  return xs;
}

std::vector<selectivity::RangeQuery> Workload() {
  stats::Rng rng(99);
  return selectivity::UniformRangeWorkload(rng, 64, 0.0, 1.0);
}

std::vector<double> AnswersOf(const selectivity::SelectivityEstimator& est,
                              const std::vector<selectivity::RangeQuery>& queries) {
  std::vector<double> out(queries.size());
  est.EstimateBatch(queries, out);
  return out;
}

selectivity::StreamingWaveletSelectivity MakeSketch(size_t refit_interval) {
  selectivity::StreamingWaveletSelectivity::Options options;
  options.j0 = 2;
  options.j_max = 8;
  options.refit_interval = refit_interval;
  return *selectivity::StreamingWaveletSelectivity::Create(Sym8Basis(), options);
}

/// One ingested instance of every registered estimator. Stream lengths are
/// deliberately NOT multiples of the refit/rebuild cadences, so saves land
/// mid-interval with stale fitted caches — the hard case for bit-exact
/// restore.
std::vector<std::unique_ptr<selectivity::SelectivityEstimator>>
MakeIngestedEstimators() {
  const std::vector<double> xs = UnitStream(1, 5000);
  std::vector<std::unique_ptr<selectivity::SelectivityEstimator>> estimators;

  estimators.push_back(
      std::make_unique<selectivity::EquiWidthHistogram>(0.0, 1.0, 64));
  estimators.push_back(
      std::make_unique<selectivity::EquiDepthHistogram>(0.0, 1.0, 32));
  estimators.push_back(
      std::make_unique<selectivity::ReservoirSampleSelectivity>(256, 17));
  selectivity::KdeSelectivity::Options kde_options;
  kde_options.refit_interval = 2048;
  estimators.push_back(std::make_unique<selectivity::KdeSelectivity>(kde_options));
  selectivity::WaveletSynopsisSelectivity::Options synopsis_options;
  synopsis_options.grid_log2 = 8;
  synopsis_options.budget = 48;
  synopsis_options.rebuild_interval = 2048;
  estimators.push_back(std::make_unique<selectivity::WaveletSynopsisSelectivity>(
      *selectivity::WaveletSynopsisSelectivity::Create(synopsis_options)));
  estimators.push_back(
      std::make_unique<selectivity::StreamingWaveletSelectivity>(MakeSketch(2048)));
  {
    selectivity::EquiWidthHistogram prototype(0.0, 1.0, 32);
    selectivity::ShardedSelectivityEstimator::Options options;
    options.shards = 3;
    options.block_size = 512;
    estimators.push_back(std::make_unique<selectivity::ShardedSelectivityEstimator>(
        *selectivity::ShardedSelectivityEstimator::Create(prototype, options)));
  }
  // The 2-D estimators consume the same stream as interleaved (x, y) pairs —
  // 2500 complete observations from 5000 values, with the save again landing
  // mid refit interval for the KDE.
  selectivity::Kde2dSelectivity::Options kde2d_options;
  kde2d_options.refit_interval = 2048;
  estimators.push_back(
      std::make_unique<selectivity::Kde2dSelectivity>(kde2d_options));
  estimators.push_back(
      std::make_unique<selectivity::Grid2dHistogram>(0.0, 1.0, 0.0, 1.0, 6));
  for (auto& est : estimators) est->InsertBatch(xs);
  return estimators;
}

std::vector<uint8_t> SnapshotBytesOf(const selectivity::SelectivityEstimator& est) {
  io::VectorSink sink;
  WDE_CHECK_OK(selectivity::SaveEstimatorSnapshot(est, sink));
  return sink.TakeBytes();
}

// ---------------------------------------------------------- io primitives

TEST(IoTest, PrimitivesRoundTripBitExactly) {
  io::VectorSink sink;
  ASSERT_TRUE(io::WriteU8(sink, 0xAB).ok());
  ASSERT_TRUE(io::WriteU32(sink, 0xDEADBEEF).ok());
  ASSERT_TRUE(io::WriteU64(sink, 0x0123456789ABCDEFULL).ok());
  ASSERT_TRUE(io::WriteI32(sink, -42).ok());
  ASSERT_TRUE(io::WriteDouble(sink, -0.0).ok());
  ASSERT_TRUE(io::WriteDouble(sink, 0x1.fffffffffffffp+1023).ok());
  ASSERT_TRUE(io::WriteString(sink, "snapshot").ok());
  ASSERT_TRUE(io::WriteDoubleVector(sink, std::vector<double>{1.5, -2.25}).ok());

  io::SpanSource source(sink.bytes());
  EXPECT_EQ(*io::ReadU8(source), 0xAB);
  EXPECT_EQ(*io::ReadU32(source), 0xDEADBEEFu);
  EXPECT_EQ(*io::ReadU64(source), 0x0123456789ABCDEFULL);
  EXPECT_EQ(*io::ReadI32(source), -42);
  const double neg_zero = *io::ReadDouble(source);
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_EQ(*io::ReadDouble(source), 0x1.fffffffffffffp+1023);
  EXPECT_EQ(*io::ReadString(source), "snapshot");
  EXPECT_EQ(*io::ReadDoubleVector(source), (std::vector<double>{1.5, -2.25}));
  EXPECT_EQ(source.remaining(), 0u);
}

TEST(IoTest, HostileLengthPrefixesAreRejectedBeforeAllocation) {
  // A u64 vector length of ~2^61 with 4 trailing bytes: the reader must
  // reject against remaining(), not attempt the allocation.
  io::VectorSink sink;
  ASSERT_TRUE(io::WriteU64(sink, 1ULL << 61).ok());
  ASSERT_TRUE(io::WriteU32(sink, 0).ok());
  io::SpanSource source(sink.bytes());
  EXPECT_FALSE(io::ReadDoubleVector(source).ok());

  io::VectorSink str_sink;
  ASSERT_TRUE(io::WriteU32(str_sink, 0xFFFFFFFF).ok());
  io::SpanSource str_source(str_sink.bytes());
  EXPECT_FALSE(io::ReadString(str_source).ok());
}

TEST(IoTest, ChunksValidateCrcAndBounds) {
  io::VectorSink sink;
  const std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  ASSERT_TRUE(io::WriteChunk(sink, 0x1234, payload).ok());
  {
    io::SpanSource source(sink.bytes());
    Result<io::Chunk> chunk = io::ReadChunk(source);
    ASSERT_TRUE(chunk.ok());
    EXPECT_EQ(chunk->tag, 0x1234u);
    EXPECT_EQ(chunk->payload, payload);
    EXPECT_EQ(source.remaining(), 0u);
  }
  // Flip one payload bit: the CRC must catch it.
  std::vector<uint8_t> corrupt(sink.bytes().begin(), sink.bytes().end());
  corrupt[13] ^= 0x40;
  io::SpanSource corrupt_source(corrupt);
  EXPECT_FALSE(io::ReadChunk(corrupt_source).ok());
}

// ------------------------------------------------------- core round trips

TEST(CoreSnapshotTest, EmpiricalCoefficientsRoundTripBitExactly) {
  const std::vector<double> xs = UnitStream(2, 4000);
  core::EmpiricalCoefficients coeffs =
      *core::EmpiricalCoefficients::Create(Sym8Basis(), 2, 7);
  coeffs.AddAll(xs);

  io::VectorSink sink;
  ASSERT_TRUE(coeffs.Serialize(sink).ok());
  io::SpanSource source(sink.bytes());
  Result<core::EmpiricalCoefficients> restored =
      core::EmpiricalCoefficients::Deserialize(source);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(source.remaining(), 0u);
  ASSERT_EQ(restored->count(), coeffs.count());
  for (int j = 2; j <= 7; ++j) {
    const core::CoefficientLevel& a = coeffs.detail_level(j);
    const core::CoefficientLevel& b = restored->detail_level(j);
    ASSERT_EQ(a.size(), b.size());
    for (int i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a.s1[static_cast<size_t>(i)], b.s1[static_cast<size_t>(i)]);
      EXPECT_EQ(a.s2[static_cast<size_t>(i)], b.s2[static_cast<size_t>(i)]);
    }
  }
  // The restored accumulator is merge-compatible with a live one: the basis
  // identity survived the round trip.
  EXPECT_TRUE(restored->Merge(coeffs).ok());
}

TEST(CoreSnapshotTest, BinnedFitRoundTripsBinCountsBitExactly) {
  const std::vector<double> xs = UnitStream(3, 4096);
  core::BinnedWaveletFit fit =
      *core::BinnedWaveletFit::Fit(*wavelet::WaveletFilter::Symmlet(8), xs, 2, 9);
  io::VectorSink sink;
  ASSERT_TRUE(fit.Serialize(sink).ok());
  io::SpanSource source(sink.bytes());
  Result<core::BinnedWaveletFit> restored = core::BinnedWaveletFit::Deserialize(source);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ(restored->count(), fit.count());
  for (int j = 2; j < 9; ++j) {
    for (int k = 0; k < (1 << j); ++k) {
      EXPECT_EQ(restored->BetaHat(j, k), fit.BetaHat(j, k)) << "j=" << j << " k=" << k;
    }
  }
  EXPECT_TRUE(restored->Merge(fit).ok());
}

// ----------------------------------------------- estimator round trips

TEST(SnapshotRoundTripTest, EveryRegisteredEstimatorAnswersBitIdentically) {
  const std::vector<selectivity::RangeQuery> queries = Workload();
  size_t covered = 0;
  for (const auto& est : MakeIngestedEstimators()) {
    ASSERT_TRUE(est->snapshotable()) << est->name();
    ASSERT_TRUE(
        selectivity::EstimatorRegistry::Global().Contains(est->snapshot_type_tag()))
        << est->name();
    ++covered;
    // Query first so the lazy fit exists (and is stale by save time), then
    // snapshot and restore through the registry.
    const std::vector<double> before = AnswersOf(*est, queries);
    const std::vector<uint8_t> bytes = SnapshotBytesOf(*est);
    io::SpanSource source(bytes);
    Result<std::unique_ptr<selectivity::SelectivityEstimator>> loaded =
        selectivity::LoadEstimatorSnapshot(source);
    ASSERT_TRUE(loaded.ok()) << est->name() << ": " << loaded.status().ToString();
    EXPECT_EQ((*loaded)->name(), est->name());
    EXPECT_EQ((*loaded)->count(), est->count());
    EXPECT_EQ(AnswersOf(**loaded, queries), before) << est->name();
  }
  // Every registered tag must have been exercised.
  EXPECT_EQ(covered, selectivity::EstimatorRegistry::Global().Tags().size());
}

TEST(SnapshotRoundTripTest, UnqueriedEstimatorsRoundTripToo) {
  // Save before any query: caches are empty and the first fit happens on
  // both sides after restore — answers must still agree bitwise.
  const std::vector<selectivity::RangeQuery> queries = Workload();
  for (const auto& est : MakeIngestedEstimators()) {
    const std::vector<uint8_t> bytes = SnapshotBytesOf(*est);
    io::SpanSource source(bytes);
    Result<std::unique_ptr<selectivity::SelectivityEstimator>> loaded =
        selectivity::LoadEstimatorSnapshot(source);
    ASSERT_TRUE(loaded.ok()) << est->name() << ": " << loaded.status().ToString();
    EXPECT_EQ(AnswersOf(**loaded, queries), AnswersOf(*est, queries)) << est->name();
  }
}

TEST(SnapshotRoundTripTest, RestoredEstimatorsContinueIngestingIdentically) {
  // The snapshot captures *everything*, including RNG state: a restored
  // estimator and its never-serialized twin must stay bitwise in lockstep
  // through further ingest. The reservoir is the sharpest probe (its
  // acceptance sequence is pure RNG).
  const std::vector<double> head = UnitStream(4, 6000);
  const std::vector<double> tail = UnitStream(5, 2000);
  selectivity::ReservoirSampleSelectivity twin(128, 31);
  twin.InsertBatch(head);
  const std::vector<uint8_t> bytes = SnapshotBytesOf(twin);
  io::SpanSource source(bytes);
  Result<std::unique_ptr<selectivity::SelectivityEstimator>> restored =
      selectivity::LoadEstimatorSnapshot(source);
  ASSERT_TRUE(restored.ok());
  twin.InsertBatch(tail);
  (*restored)->InsertBatch(tail);
  auto& restored_reservoir =
      static_cast<selectivity::ReservoirSampleSelectivity&>(**restored);
  EXPECT_EQ(restored_reservoir.reservoir(), twin.reservoir());
  EXPECT_EQ(restored_reservoir.count(), twin.count());
}

TEST(SnapshotRoundTripTest, LoadStateRestoresIntoExistingInstance) {
  const std::vector<double> xs = UnitStream(6, 2000);
  selectivity::EquiWidthHistogram saved(0.0, 1.0, 64);
  saved.InsertBatch(xs);
  io::VectorSink sink;
  ASSERT_TRUE(saved.SaveState(sink).ok());

  // A differently configured instance adopts the envelope's configuration.
  selectivity::EquiWidthHistogram target(-3.0, 5.0, 8);
  io::SpanSource source(sink.bytes());
  ASSERT_TRUE(target.LoadState(source).ok());
  EXPECT_EQ(target.buckets(), 64);
  EXPECT_EQ(target.count(), saved.count());
  EXPECT_EQ(target.EstimateRange(0.2, 0.7), saved.EstimateRange(0.2, 0.7));

  // A different concrete type must refuse the same envelope, untouched.
  selectivity::EquiDepthHistogram wrong_type(0.0, 1.0, 8);
  wrong_type.InsertBatch(xs);
  io::SpanSource source_again(sink.bytes());
  EXPECT_FALSE(wrong_type.LoadState(source_again).ok());
  EXPECT_EQ(wrong_type.count(), xs.size());
}

TEST(SnapshotRoundTripTest, FileSnapshotsRoundTrip) {
  const std::string path = testing::TempDir() + "/wde_snapshot_test.snap";
  const std::vector<selectivity::RangeQuery> queries = Workload();
  selectivity::StreamingWaveletSelectivity sketch = MakeSketch(2048);
  sketch.InsertBatch(UnitStream(7, 5000));
  const std::vector<double> before = AnswersOf(sketch, queries);
  ASSERT_TRUE(selectivity::SaveEstimatorSnapshotFile(sketch, path).ok());
  Result<std::unique_ptr<selectivity::SelectivityEstimator>> loaded =
      selectivity::LoadEstimatorSnapshotFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(AnswersOf(**loaded, queries), before);
  std::remove(path.c_str());
  EXPECT_FALSE(selectivity::LoadEstimatorSnapshotFile(path).ok());  // gone
}

// ------------------------------------------------------- hostile input

TEST(HostileInputTest, EveryTruncationOfASnapshotErrorsCleanly) {
  selectivity::EquiWidthHistogram hist(0.0, 1.0, 8);
  hist.InsertBatch(UnitStream(8, 300));
  const std::vector<uint8_t> bytes = SnapshotBytesOf(hist);
  for (size_t len = 0; len < bytes.size(); ++len) {
    io::SpanSource source(std::span(bytes.data(), len));
    EXPECT_FALSE(selectivity::LoadEstimatorSnapshot(source).ok()) << "len=" << len;
  }
}

TEST(HostileInputTest, EverySingleBitFlipErrorsCleanly) {
  // CRC framing covers the payloads; magic/version/chunk-header bytes have
  // their own validation. No flip may crash or be silently accepted — except
  // in the version field itself, where a flip can land on a valid *older*
  // version, which readers accept by design (the field gates format features,
  // it is not integrity-protected; the chunk CRCs are).
  selectivity::EquiWidthHistogram hist(0.0, 1.0, 4);
  hist.InsertBatch(UnitStream(9, 100));
  const std::vector<uint8_t> bytes = SnapshotBytesOf(hist);
  std::vector<uint8_t> corrupt(bytes);
  for (size_t byte = 0; byte < bytes.size(); ++byte) {
    const bool in_version_field = byte >= 8 && byte < 12;
    for (int bit = 0; bit < 8; ++bit) {
      corrupt[byte] = bytes[byte] ^ static_cast<uint8_t>(1 << bit);
      if (in_version_field) {
        uint32_t version = 0;
        std::memcpy(&version, corrupt.data() + 8, 4);
        if constexpr (std::endian::native != std::endian::little) {
          version = __builtin_bswap32(version);
        }
        if (version >= 1 && version <= io::kSnapshotFormatVersion) {
          corrupt[byte] = bytes[byte];
          continue;  // a valid older version: acceptance is the contract
        }
      }
      io::SpanSource source(corrupt);
      EXPECT_FALSE(selectivity::LoadEstimatorSnapshot(source).ok())
          << "byte=" << byte << " bit=" << bit;
    }
    corrupt[byte] = bytes[byte];
  }
}

TEST(HostileInputTest, WrongMagicAndFutureVersionsAreRejected) {
  selectivity::EquiWidthHistogram hist(0.0, 1.0, 4);
  const std::vector<uint8_t> bytes = SnapshotBytesOf(hist);

  std::vector<uint8_t> wrong_magic(bytes);
  wrong_magic[0] = 'X';
  io::SpanSource magic_source(wrong_magic);
  Result<std::unique_ptr<selectivity::SelectivityEstimator>> magic_result =
      selectivity::LoadEstimatorSnapshot(magic_source);
  ASSERT_FALSE(magic_result.ok());
  EXPECT_NE(magic_result.status().message().find("magic"), std::string::npos);

  std::vector<uint8_t> future(bytes);
  future[8] = 0xFF;  // version u32 little-endian follows the 8-byte magic
  io::SpanSource future_source(future);
  Result<std::unique_ptr<selectivity::SelectivityEstimator>> future_result =
      selectivity::LoadEstimatorSnapshot(future_source);
  ASSERT_FALSE(future_result.ok());
  EXPECT_NE(future_result.status().message().find("version"), std::string::npos);
}

TEST(HostileInputTest, ValidFramingWithGarbagePayloadErrors) {
  // A well-formed envelope (valid CRCs) whose state payload is noise must be
  // caught by the estimator's own validation, not trusted.
  io::VectorSink sink;
  ASSERT_TRUE(io::WriteSnapshotHeader(sink).ok());
  const std::string tag = "equi-width";
  ASSERT_TRUE(io::WriteChunk(sink, selectivity::internal::kChunkEstimatorType,
                             std::span(reinterpret_cast<const uint8_t*>(tag.data()),
                                       tag.size()))
                  .ok());
  const std::vector<uint8_t> garbage(64, 0xA5);
  ASSERT_TRUE(
      io::WriteChunk(sink, selectivity::internal::kChunkEstimatorState, garbage).ok());
  io::SpanSource source(sink.bytes());
  EXPECT_FALSE(selectivity::LoadEstimatorSnapshot(source).ok());
}

TEST(HostileInputTest, UnknownTypeTagIsNotFound) {
  io::VectorSink sink;
  ASSERT_TRUE(io::WriteSnapshotHeader(sink).ok());
  const std::string tag = "no-such-estimator";
  ASSERT_TRUE(io::WriteChunk(sink, selectivity::internal::kChunkEstimatorType,
                             std::span(reinterpret_cast<const uint8_t*>(tag.data()),
                                       tag.size()))
                  .ok());
  ASSERT_TRUE(io::WriteChunk(sink, selectivity::internal::kChunkEstimatorState,
                             std::vector<uint8_t>{})
                  .ok());
  io::SpanSource source(sink.bytes());
  Result<std::unique_ptr<selectivity::SelectivityEstimator>> result =
      selectivity::LoadEstimatorSnapshot(source);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(SnapshotCompatTest, KdeRetiredToleranceIsValidatedThenIgnored) {
  // The portable kde-rot state ends in the retired tree-evaluation tolerance
  // (written as 0.0). Snapshots saved with a positive tolerance restore as
  // exact; a negative or non-finite one is still corrupt.
  selectivity::KdeSelectivity kde(selectivity::KdeSelectivity::Options{});
  kde.InsertBatch(UnitStream(31, 3000));
  const std::vector<selectivity::RangeQuery> queries = Workload();
  const std::vector<double> exact = AnswersOf(kde, queries);
  const std::vector<uint8_t> bytes = SnapshotBytesOf(kde);
  io::SpanSource parse(bytes);
  ASSERT_TRUE(io::ReadSnapshotHeader(parse).ok());
  Result<io::Chunk> type = io::ReadChunk(parse);
  Result<io::Chunk> state = io::ReadChunk(parse);
  ASSERT_TRUE(type.ok() && state.ok());
  ASSERT_GE(state->payload.size(), 8u);
  for (double tolerance : {1e-3, 0.0, -1e-3, std::nan("")}) {
    io::VectorSink tail;
    ASSERT_TRUE(io::WriteDouble(tail, tolerance).ok());
    std::vector<uint8_t> payload = state->payload;
    std::copy(tail.bytes().begin(), tail.bytes().end(), payload.end() - 8);
    io::VectorSink rebuilt;
    ASSERT_TRUE(io::WriteSnapshotHeader(rebuilt).ok());
    ASSERT_TRUE(io::WriteChunk(rebuilt, type->tag, type->payload).ok());
    ASSERT_TRUE(io::WriteChunk(rebuilt, state->tag, payload).ok());
    io::SpanSource source(rebuilt.bytes());
    Result<std::unique_ptr<selectivity::SelectivityEstimator>> loaded =
        selectivity::LoadEstimatorSnapshot(source);
    if (tolerance >= 0.0) {
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      EXPECT_EQ(AnswersOf(**loaded, queries), exact) << "tolerance=" << tolerance;
      EXPECT_EQ(SnapshotBytesOf(**loaded), bytes);  // re-saved as 0.0
    } else {
      EXPECT_FALSE(loaded.ok()) << "tolerance=" << tolerance;
    }
  }
}

// ------------------------------------------- cross-process-style merging

TEST(SnapshotMergeTest, IntegerStateEstimatorsMergeFromSnapshotsBitExactly) {
  const std::vector<double> xs = UnitStream(10, 8000);
  const std::span<const double> all(xs);
  const std::vector<selectivity::RangeQuery> queries = Workload();

  const auto check = [&](auto make) {
    auto sequential = make();
    sequential.InsertBatch(all);
    auto node_a = make();
    auto node_b = make();
    node_a.InsertBatch(all.first(3500));
    node_b.InsertBatch(all.subspan(3500));
    const std::vector<uint8_t> snap_a = SnapshotBytesOf(node_a);
    const std::vector<uint8_t> snap_b = SnapshotBytesOf(node_b);

    auto combiner = make();
    io::SpanSource source_a(snap_a);
    io::SpanSource source_b(snap_b);
    ASSERT_TRUE(combiner.MergeFromSnapshot(source_a).ok());
    ASSERT_TRUE(combiner.MergeFromSnapshot(source_b).ok());
    EXPECT_EQ(combiner.count(), sequential.count());
    EXPECT_EQ(AnswersOf(combiner, queries), AnswersOf(sequential, queries));
  };
  check([] { return selectivity::EquiWidthHistogram(0.0, 1.0, 64); });
  check([] { return selectivity::EquiDepthHistogram(0.0, 1.0, 16); });
  check([] {
    selectivity::WaveletSynopsisSelectivity::Options options;
    options.grid_log2 = 8;
    options.budget = 32;
    options.rebuild_interval = 1 << 20;
    return *selectivity::WaveletSynopsisSelectivity::Create(options);
  });
}

TEST(SnapshotMergeTest, SketchMergeFromSnapshotsMatchesSequentialWithinTolerance) {
  const std::vector<double> xs = UnitStream(11, 1 << 14);
  const std::span<const double> all(xs);
  selectivity::StreamingWaveletSelectivity sequential = MakeSketch(1 << 30);
  sequential.InsertBatch(all);
  selectivity::StreamingWaveletSelectivity node_a = MakeSketch(1 << 30);
  selectivity::StreamingWaveletSelectivity node_b = MakeSketch(1 << 30);
  node_a.InsertBatch(all.first(6000));
  node_b.InsertBatch(all.subspan(6000));

  selectivity::StreamingWaveletSelectivity combiner = MakeSketch(1 << 30);
  const std::vector<uint8_t> snap_a = SnapshotBytesOf(node_a);
  const std::vector<uint8_t> snap_b = SnapshotBytesOf(node_b);
  io::SpanSource source_a(snap_a);
  io::SpanSource source_b(snap_b);
  ASSERT_TRUE(combiner.MergeFromSnapshot(source_a).ok());
  ASSERT_TRUE(combiner.MergeFromSnapshot(source_b).ok());
  EXPECT_EQ(combiner.count(), sequential.count());
  for (double a = 0.0; a < 0.9; a += 0.07) {
    const double got = combiner.EstimateRange(a, a + 0.1);
    const double want = sequential.EstimateRange(a, a + 0.1);
    EXPECT_NEAR(got, want, 1e-12 * std::max(1.0, std::fabs(want)));
  }
}

TEST(SnapshotMergeTest, MergeFromSnapshotRejectsIncompatibleConfigs) {
  selectivity::EquiWidthHistogram node(0.0, 1.0, 64);
  node.InsertBatch(UnitStream(12, 500));
  const std::vector<uint8_t> snap = SnapshotBytesOf(node);

  selectivity::EquiWidthHistogram other_buckets(0.0, 1.0, 32);
  io::SpanSource source(snap);
  EXPECT_FALSE(other_buckets.MergeFromSnapshot(source).ok());
  EXPECT_EQ(other_buckets.count(), 0u);

  selectivity::EquiDepthHistogram other_type(0.0, 1.0, 64);
  io::SpanSource source_again(snap);
  EXPECT_FALSE(other_type.MergeFromSnapshot(source_again).ok());
}

// ------------------------------------------------- sharded checkpointing

TEST(ShardedCheckpointTest, CheckpointRestoreContinueMatchesUninterruptedRun) {
  const std::string path = testing::TempDir() + "/wde_sharded_checkpoint.snap";
  const std::vector<double> xs = UnitStream(13, 40000);
  const std::span<const double> all(xs);
  const std::vector<selectivity::RangeQuery> queries = Workload();

  const auto make = []() {
    selectivity::EquiWidthHistogram prototype(0.0, 1.0, 64);
    selectivity::ShardedSelectivityEstimator::Options options;
    options.shards = 4;
    options.block_size = 1024;
    return *selectivity::ShardedSelectivityEstimator::Create(prototype, options);
  };
  selectivity::ShardedSelectivityEstimator uninterrupted = make();
  uninterrupted.InsertBatch(all);

  // Ingest half, checkpoint, "kill" the node, restore into a fresh engine,
  // continue with the second half: partition positions must line up exactly.
  {
    selectivity::ShardedSelectivityEstimator node = make();
    node.InsertBatch(all.first(17000));
    ASSERT_TRUE(node.Checkpoint(path).ok());
  }
  selectivity::ShardedSelectivityEstimator restored = make();
  ASSERT_TRUE(restored.Restore(path).ok());
  EXPECT_EQ(restored.count(), 17000u);
  restored.InsertBatch(all.subspan(17000));
  EXPECT_EQ(restored.count(), uninterrupted.count());
  for (size_t s = 0; s < restored.shards(); ++s) {
    EXPECT_EQ(restored.shard(s).count(), uninterrupted.shard(s).count());
  }
  EXPECT_EQ(AnswersOf(restored, queries), AnswersOf(uninterrupted, queries));
  std::remove(path.c_str());
}

TEST(ShardedCheckpointTest, RestoreRejectsCorruptCheckpointsUntouched) {
  const std::string path = testing::TempDir() + "/wde_sharded_corrupt.snap";
  selectivity::EquiWidthHistogram prototype(0.0, 1.0, 16);
  selectivity::ShardedSelectivityEstimator node =
      *selectivity::ShardedSelectivityEstimator::Create(prototype, {});
  node.InsertBatch(UnitStream(14, 2000));
  ASSERT_TRUE(node.Checkpoint(path).ok());

  // Truncate the file: Restore must fail and leave the target untouched.
  {
    Result<io::FileSource> full = io::FileSource::Open(path);
    ASSERT_TRUE(full.ok());
    std::vector<uint8_t> bytes(full->remaining());
    ASSERT_TRUE(full->Read(bytes.data(), bytes.size()).ok());
    Result<io::FileSink> sink = io::FileSink::Open(path);
    ASSERT_TRUE(sink.ok());
    ASSERT_TRUE(sink->Append(bytes.data(), bytes.size() / 2).ok());
    ASSERT_TRUE(sink->Close().ok());
  }
  selectivity::ShardedSelectivityEstimator target =
      *selectivity::ShardedSelectivityEstimator::Create(prototype, {});
  target.InsertBatch(UnitStream(15, 100));
  EXPECT_FALSE(target.Restore(path).ok());
  EXPECT_EQ(target.count(), 100u);  // untouched
  std::remove(path.c_str());
}

TEST(ShardedCheckpointTest, PacedMergedViewNeverCrossesARestoreBoundary) {
  // Regression for the merge_refresh_interval × restore interaction: with a
  // large refresh interval the engine deliberately serves a stale merged
  // view between rebuilds, but that staleness is a live-pacing contract —
  // it must NOT survive a checkpoint/restore. The restored engine answers
  // from a fresh rebuild of the replicas.
  const std::string path = testing::TempDir() + "/wde_sharded_paced.snap";
  const auto make = []() {
    selectivity::EquiWidthHistogram prototype(0.0, 1.0, 64);
    selectivity::ShardedSelectivityEstimator::Options options;
    options.shards = 3;
    options.block_size = 256;
    options.merge_refresh_interval = 1000000;  // effectively never refresh
    return *selectivity::ShardedSelectivityEstimator::Create(prototype, options);
  };
  stats::Rng rng(17);
  std::vector<double> low(4000), high(4000);
  for (double& x : low) x = rng.Uniform(0.0, 0.5);
  for (double& x : high) x = rng.Uniform(0.5, 1.0);

  selectivity::ShardedSelectivityEstimator node = make();
  node.InsertBatch(low);
  const double stale = node.EstimateRange(0.5, 1.0);  // builds the view
  EXPECT_EQ(stale, 0.0);  // nothing above 0.5 yet
  node.InsertBatch(high);  // pending < interval: the stale view keeps serving
  EXPECT_EQ(node.EstimateRange(0.5, 1.0), stale);
  ASSERT_TRUE(node.Checkpoint(path).ok());

  // Pre-restore the live node still paces; the RESTORED engine must not.
  selectivity::ShardedSelectivityEstimator restored = make();
  ASSERT_TRUE(restored.Restore(path).ok());
  EXPECT_EQ(restored.count(), 8000u);
  const double fresh = restored.EstimateRange(0.5, 1.0);
  EXPECT_NEAR(fresh, 0.5, 0.05);
  // And the rebuilt answer is exactly a quiesced merge of the same stream:
  // an engine with refresh interval 1 over the identical ingest agrees
  // bitwise (integer histogram state).
  selectivity::EquiWidthHistogram prototype(0.0, 1.0, 64);
  selectivity::ShardedSelectivityEstimator::Options eager_options;
  eager_options.shards = 3;
  eager_options.block_size = 256;
  selectivity::ShardedSelectivityEstimator eager =
      *selectivity::ShardedSelectivityEstimator::Create(prototype, eager_options);
  eager.InsertBatch(low);
  eager.InsertBatch(high);
  EXPECT_EQ(fresh, eager.EstimateRange(0.5, 1.0));
  std::remove(path.c_str());
}

TEST(ShardedCheckpointTest, DistributedNodesMergeViaSnapshots) {
  // The full distributed story: two sharded ingest nodes over disjoint
  // partitions write snapshots; a combiner node restores + merges them and
  // answers exactly like one node over the whole stream.
  const std::vector<double> xs = UnitStream(16, 30000);
  const std::span<const double> all(xs);
  const std::vector<selectivity::RangeQuery> queries = Workload();
  const auto make = []() {
    selectivity::EquiWidthHistogram prototype(0.0, 1.0, 64);
    selectivity::ShardedSelectivityEstimator::Options options;
    options.shards = 4;
    return *selectivity::ShardedSelectivityEstimator::Create(prototype, options);
  };
  selectivity::ShardedSelectivityEstimator sequential = make();
  sequential.InsertBatch(all);

  selectivity::ShardedSelectivityEstimator node_a = make();
  selectivity::ShardedSelectivityEstimator node_b = make();
  node_a.InsertBatch(all.first(13000));
  node_b.InsertBatch(all.subspan(13000));
  const std::vector<uint8_t> snap_a = SnapshotBytesOf(node_a);
  const std::vector<uint8_t> snap_b = SnapshotBytesOf(node_b);

  selectivity::ShardedSelectivityEstimator combiner = make();
  io::SpanSource source_a(snap_a);
  io::SpanSource source_b(snap_b);
  ASSERT_TRUE(combiner.MergeFromSnapshot(source_a).ok());
  ASSERT_TRUE(combiner.MergeFromSnapshot(source_b).ok());
  EXPECT_EQ(combiner.count(), sequential.count());
  EXPECT_EQ(AnswersOf(combiner, queries), AnswersOf(sequential, queries));
}

// ------------------------------------------------- fast (arena) snapshots

std::vector<uint8_t> FastSnapshotBytesOf(
    const selectivity::SelectivityEstimator& est) {
  io::VectorSink sink;
  WDE_CHECK_OK(selectivity::SaveEstimatorSnapshotFast(est, sink));
  return sink.TakeBytes();
}

TEST(FastSnapshotTest, EveryRegisteredEstimatorRoundTripsBitIdentically) {
  // The fast (ARNA) encoding must be answer-equivalent to the portable one
  // for every registered tag: both restores agree bitwise with the saved
  // estimator, queried or not.
  const std::vector<selectivity::RangeQuery> queries = Workload();
  for (const bool query_first : {true, false}) {
    for (const auto& est : MakeIngestedEstimators()) {
      EXPECT_TRUE(est->supports_fast_snapshot()) << est->name();
      if (query_first) AnswersOf(*est, queries);  // warm the lazy caches
      const std::vector<double> before = AnswersOf(*est, queries);

      const std::vector<uint8_t> fast_bytes = FastSnapshotBytesOf(*est);
      io::SpanSource fast_source(fast_bytes);
      Result<std::unique_ptr<selectivity::SelectivityEstimator>> fast =
          selectivity::LoadEstimatorSnapshot(fast_source);
      ASSERT_TRUE(fast.ok()) << est->name() << ": " << fast.status().ToString();
      EXPECT_EQ((*fast)->name(), est->name());
      EXPECT_EQ((*fast)->count(), est->count());
      EXPECT_EQ(AnswersOf(**fast, queries), before) << est->name();

      const std::vector<uint8_t> portable_bytes = SnapshotBytesOf(*est);
      io::SpanSource portable_source(portable_bytes);
      Result<std::unique_ptr<selectivity::SelectivityEstimator>> portable =
          selectivity::LoadEstimatorSnapshot(portable_source);
      ASSERT_TRUE(portable.ok()) << est->name();
      EXPECT_EQ(AnswersOf(**portable, queries), before) << est->name();
    }
  }
}

TEST(FastSnapshotTest, MappedFileRestoreMatchesPortableForEveryTag) {
  const std::string path = testing::TempDir() + "/wde_fast_snapshot.snap";
  const std::vector<selectivity::RangeQuery> queries = Workload();
  for (const auto& est : MakeIngestedEstimators()) {
    const std::vector<double> before = AnswersOf(*est, queries);
    ASSERT_TRUE(selectivity::SaveEstimatorSnapshotFastFile(*est, path).ok())
        << est->name();
    Result<std::unique_ptr<selectivity::SelectivityEstimator>> mapped =
        selectivity::LoadEstimatorSnapshotFileMapped(path);
    ASSERT_TRUE(mapped.ok()) << est->name() << ": " << mapped.status().ToString();
    EXPECT_EQ(AnswersOf(**mapped, queries), before) << est->name();
    // A mapped restore may borrow the file's pages zero-copy; mutating the
    // estimator must un-share (CoW) rather than write through the mapping,
    // and the estimator keeps working after further ingest.
    (*mapped)->InsertBatch(UnitStream(20, 500));
    // A d-dimensional estimator consumes d interleaved values per observation.
    EXPECT_EQ((*mapped)->count(),
              est->count() + 500 / static_cast<size_t>(est->dims()))
        << est->name();
    AnswersOf(**mapped, queries);  // must not crash or corrupt
  }
  std::remove(path.c_str());
}

TEST(FastSnapshotTest, RestoredEstimatorContinuesIngestingIdentically) {
  // The fast state must capture everything the portable one does, RNG
  // included: the reservoir's acceptance sequence is the sharpest probe.
  const std::vector<double> head = UnitStream(17, 6000);
  const std::vector<double> tail = UnitStream(18, 2000);
  selectivity::ReservoirSampleSelectivity twin(128, 31);
  twin.InsertBatch(head);
  const std::vector<uint8_t> bytes = FastSnapshotBytesOf(twin);
  io::SpanSource source(bytes);
  Result<std::unique_ptr<selectivity::SelectivityEstimator>> restored =
      selectivity::LoadEstimatorSnapshot(source);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  twin.InsertBatch(tail);
  (*restored)->InsertBatch(tail);
  auto& reservoir =
      static_cast<selectivity::ReservoirSampleSelectivity&>(**restored);
  EXPECT_EQ(reservoir.reservoir(), twin.reservoir());
  EXPECT_EQ(reservoir.count(), twin.count());
}

TEST(FastSnapshotTest, ShardedCheckpointRestoresFromEitherEncoding) {
  // Restore() accepts a checkpoint written by either saver; the fast one
  // restores to the same answers.
  const std::string path = testing::TempDir() + "/wde_fast_checkpoint.snap";
  const std::vector<selectivity::RangeQuery> queries = Workload();
  selectivity::KdeSelectivity::Options proto_options;
  proto_options.refit_interval = 512;
  selectivity::KdeSelectivity prototype(proto_options);
  selectivity::ShardedSelectivityEstimator::Options options;
  options.shards = 3;
  options.block_size = 256;
  selectivity::ShardedSelectivityEstimator node =
      *selectivity::ShardedSelectivityEstimator::Create(prototype, options);
  node.InsertBatch(UnitStream(19, 9000));
  const std::vector<double> before = AnswersOf(node, queries);
  ASSERT_TRUE(selectivity::SaveEstimatorSnapshotFastFile(node, path).ok());

  selectivity::ShardedSelectivityEstimator restored =
      *selectivity::ShardedSelectivityEstimator::Create(prototype, options);
  ASSERT_TRUE(restored.Restore(path).ok());
  EXPECT_EQ(restored.count(), node.count());
  EXPECT_EQ(AnswersOf(restored, queries), before);
  std::remove(path.c_str());
}

TEST(FastSnapshotHostileTest, EveryTruncationErrorsCleanly) {
  selectivity::EquiWidthHistogram hist(0.0, 1.0, 8);
  hist.InsertBatch(UnitStream(8, 300));
  AnswersOf(hist, Workload());  // populate the prefix cache column
  const std::vector<uint8_t> bytes = FastSnapshotBytesOf(hist);
  for (size_t len = 0; len < bytes.size(); ++len) {
    io::SpanSource source(std::span(bytes.data(), len));
    EXPECT_FALSE(selectivity::LoadEstimatorSnapshot(source).ok()) << "len=" << len;
  }
}

TEST(FastSnapshotHostileTest, EverySingleBitFlipErrorsCleanly) {
  // Identical contract to the portable artifact: the ARNA chunk is CRC-framed
  // like every other chunk, so no flip may crash or be silently accepted
  // (version-field flips landing on a valid older version excepted, as ever).
  selectivity::EquiWidthHistogram hist(0.0, 1.0, 4);
  hist.InsertBatch(UnitStream(9, 100));
  const std::vector<uint8_t> bytes = FastSnapshotBytesOf(hist);
  std::vector<uint8_t> corrupt(bytes);
  for (size_t byte = 0; byte < bytes.size(); ++byte) {
    const bool in_version_field = byte >= 8 && byte < 12;
    for (int bit = 0; bit < 8; ++bit) {
      corrupt[byte] = bytes[byte] ^ static_cast<uint8_t>(1 << bit);
      if (in_version_field) {
        uint32_t version = 0;
        std::memcpy(&version, corrupt.data() + 8, 4);
        if constexpr (std::endian::native != std::endian::little) {
          version = __builtin_bswap32(version);
        }
        if (version >= 1 && version <= io::kSnapshotFormatVersion) {
          corrupt[byte] = bytes[byte];
          continue;
        }
      }
      io::SpanSource source(corrupt);
      EXPECT_FALSE(selectivity::LoadEstimatorSnapshot(source).ok())
          << "byte=" << byte << " bit=" << bit;
    }
    corrupt[byte] = bytes[byte];
  }
}

TEST(FastSnapshotHostileTest, ValidFramingWithGarbageArenaPayloadErrors) {
  // A well-formed envelope whose ARNA payload is noise must be caught by the
  // frame parser or the estimator's own validation, never trusted.
  io::VectorSink sink;
  ASSERT_TRUE(io::WriteSnapshotHeader(sink).ok());
  const std::string tag = "equi-width";
  ASSERT_TRUE(io::WriteChunk(sink, selectivity::internal::kChunkEstimatorType,
                             std::span(reinterpret_cast<const uint8_t*>(tag.data()),
                                       tag.size()))
                  .ok());
  const std::vector<uint8_t> garbage(128, 0xA5);
  ASSERT_TRUE(
      io::WriteChunk(sink, selectivity::internal::kChunkEstimatorArena, garbage).ok());
  io::SpanSource source(sink.bytes());
  EXPECT_FALSE(selectivity::LoadEstimatorSnapshot(source).ok());
}

TEST(FastSnapshotHostileTest, ColumnDirectoryMismatchIsRejected) {
  // A structurally valid ARN1 frame whose column directory disagrees with the
  // head (wrong kind and wrong count) must fail the shape check, not abort in
  // a typed accessor.
  selectivity::EquiWidthHistogram hist(0.0, 1.0, 4);
  hist.InsertBatch(UnitStream(21, 50));
  io::VectorSink sink;
  ASSERT_TRUE(hist.SaveStateFast(sink, 12).ok());
  std::vector<uint8_t> envelope = sink.TakeBytes();
  // Locate the ARNA payload: header-less envelope = TYPE chunk then ARNA
  // chunk; the payload starts 12 bytes into the second chunk.
  const size_t type_chunk = 16 + std::string("equi-width").size();
  uint32_t head_bytes = 0;
  std::memcpy(&head_bytes, envelope.data() + type_chunk + 12 + 4, 4);
  // Flip the first column's kind byte (column_count u32 precedes it). The
  // CRC no longer matches, so re-frame the chunk instead of patching bytes:
  // parse out the payload, corrupt, rewrite.
  io::SpanSource parse(std::span<const uint8_t>(envelope).subspan(type_chunk));
  Result<io::Chunk> arena_chunk = io::ReadChunk(parse);
  ASSERT_TRUE(arena_chunk.ok());
  std::vector<uint8_t> payload = arena_chunk->payload;
  const size_t kind_at = 8 + head_bytes + 4;
  ASSERT_LT(kind_at, payload.size());
  payload[kind_at] = 2;  // kF64 -> kU8: element size shrinks, head disagrees
  io::VectorSink rebuilt;
  ASSERT_TRUE(io::WriteSnapshotHeader(rebuilt).ok());
  const std::string tag = "equi-width";
  ASSERT_TRUE(io::WriteChunk(rebuilt, selectivity::internal::kChunkEstimatorType,
                             std::span(reinterpret_cast<const uint8_t*>(tag.data()),
                                       tag.size()))
                  .ok());
  ASSERT_TRUE(
      io::WriteChunk(rebuilt, selectivity::internal::kChunkEstimatorArena, payload)
          .ok());
  io::SpanSource source(rebuilt.bytes());
  EXPECT_FALSE(selectivity::LoadEstimatorSnapshot(source).ok());
}

}  // namespace
}  // namespace wde
