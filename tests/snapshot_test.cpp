// Tier-1 tests for the versioned snapshot/restore subsystem: the io
// primitives and chunk framing, round-trip fidelity — every registered
// estimator answers bit-identically after save → load, including saves taken
// mid refit/rebuild interval where lazily fitted caches are stale — hostile
// input (truncated, bit-flipped, wrong magic, other versions, hostile length
// prefixes, and state payloads truncated or mutated under a valid CRC for
// every tag) degrading into Status errors rather than UB, value validation
// (non-finite and out-of-domain observations rejected), the registry's
// restore-without-naming-the-type path, cross-process-style snapshot merges
// matching sequential ingest, and the sharded engine's checkpoint → restore →
// continue-ingesting cycle. Run under ASan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/coefficients.hpp"
#include "core/cross_validation.hpp"
#include "io/chunk.hpp"
#include "io/serialize.hpp"
#include "selectivity/estimator_registry.hpp"
#include "selectivity/estimator_spec.hpp"
#include "selectivity/grid2d_selectivity.hpp"
#include "selectivity/histogram.hpp"
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

using selectivity::Query;

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

std::vector<Query> Workload() {
  stats::Rng rng(99);
  return selectivity::UniformRangeWorkload(rng, 64, 0.0, 1.0);
}

std::vector<double> AnswersOf(const selectivity::SelectivityEstimator& est,
                              const std::vector<Query>& queries) {
  std::vector<double> out(queries.size());
  est.Answer(queries, out);
  return out;
}

/// A coarse basis (db2 tables at 2^-6, levels 2..4) for the small
/// instances: a sweep position that corrupts the stored basis identity makes
/// the load build tables for another resolution, which at the default
/// sym8/2^-12 would dominate the byte-by-byte sweeps. (An intact identity
/// shares this live basis through the memo.)
const wavelet::WaveletBasis& CoarseBasis() {
  static const wavelet::WaveletBasis basis = []() {
    Result<wavelet::WaveletBasis> b =
        wavelet::WaveletBasis::Create(*wavelet::WaveletFilter::Daubechies(2), 6);
    WDE_CHECK(b.ok());
    return *b;
  }();
  return basis;
}

selectivity::StreamingWaveletSelectivity MakeSketch(
    size_t refit_interval, const wavelet::WaveletBasis& basis = Sym8Basis(),
    int j_max = 8) {
  selectivity::StreamingWaveletSelectivity::Options options;
  options.j0 = 2;
  options.j_max = j_max;
  options.refit_interval = refit_interval;
  return *selectivity::StreamingWaveletSelectivity::Create(basis, options);
}

/// One ingested instance of every registered estimator. Stream lengths are
/// deliberately NOT multiples of the refit/rebuild cadences, so saves land
/// mid-interval with stale fitted caches — the hard case for bit-exact
/// restore.
std::vector<std::unique_ptr<selectivity::SelectivityEstimator>>
MakeIngestedEstimators(size_t n = 5000, bool coarse = false) {
  const std::vector<double> xs = UnitStream(1, n);
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
  synopsis_options.grid_log2 = coarse ? 5 : 8;
  synopsis_options.budget = coarse ? 12 : 48;
  synopsis_options.rebuild_interval = 2048;
  estimators.push_back(std::make_unique<selectivity::WaveletSynopsisSelectivity>(
      *selectivity::WaveletSynopsisSelectivity::Create(synopsis_options)));
  estimators.push_back(
      std::make_unique<selectivity::StreamingWaveletSelectivity>(
          coarse ? MakeSketch(2048, CoarseBasis(), 4) : MakeSketch(2048)));
  {
    selectivity::EquiWidthHistogram prototype(0.0, 1.0, 32);
    selectivity::ShardedSelectivityEstimator::Options options;
    options.shards = 3;
    options.block_size = 512;
    estimators.push_back(std::make_unique<selectivity::ShardedSelectivityEstimator>(
        *selectivity::ShardedSelectivityEstimator::Create(prototype, options)));
  }
  // The 2-D grid consumes the same stream as interleaved (x, y) pairs — 2500
  // complete observations from 5000 values.
  estimators.push_back(
      std::make_unique<selectivity::Grid2dHistogram>(0.0, 1.0, 0.0, 1.0,
                                                     coarse ? 4 : 6));
  for (auto& est : estimators) est->InsertBatch(xs);
  return estimators;
}

/// A 64-value instance of every tag in MakeIngestedEstimators() (the sketch
/// on the coarse basis, coarse synopsis and grid): queried
/// after 48 values, so the lazily fitted state exists, then fed 16 more, so
/// every state payload carries both fitted and unfitted parts. Small enough
/// for byte-by-byte hostility sweeps.
std::vector<std::unique_ptr<selectivity::SelectivityEstimator>>
MakeSmallEstimators() {
  std::vector<std::unique_ptr<selectivity::SelectivityEstimator>> estimators =
      MakeIngestedEstimators(0, /*coarse=*/true);
  const std::vector<double> xs = UnitStream(2, 64);
  for (auto& est : estimators) {
    est->InsertBatch(std::span<const double>(xs).first(48));
    AnswersOf(*est, Workload());
    est->InsertBatch(std::span<const double>(xs).subspan(48));
  }
  return estimators;
}

std::vector<uint8_t> SnapshotBytesOf(const selectivity::SelectivityEstimator& est) {
  io::VectorSink sink;
  WDE_CHECK_OK(selectivity::SaveEstimatorSnapshot(est, sink));
  return sink.TakeBytes();
}

/// A whole snapshot split into its parts: the TYPE and DIMS chunks and the
/// STAT payload.
struct SplitSnapshot {
  io::Chunk type;
  io::Chunk dims;
  std::vector<uint8_t> state;
};

SplitSnapshot Split(const std::vector<uint8_t>& bytes) {
  io::SpanSource source(bytes);
  WDE_CHECK(io::ReadSnapshotHeader(source).ok());
  SplitSnapshot split;
  split.type = *io::ReadChunk(source);
  split.dims = *io::ReadChunk(source);
  split.state = io::ReadChunk(source)->payload;
  WDE_CHECK_EQ(source.remaining(), 0u);
  return split;
}

/// Re-frames `state` as the STAT payload of `split`'s envelope, with a valid
/// CRC: what a corrupted or hostile writer would produce.
std::vector<uint8_t> Reframe(const SplitSnapshot& split,
                             std::span<const uint8_t> state) {
  io::VectorSink sink;
  WDE_CHECK_OK(io::WriteSnapshotHeader(sink));
  WDE_CHECK_OK(io::WriteChunk(sink, split.type.tag, split.type.payload));
  WDE_CHECK_OK(io::WriteChunk(sink, split.dims.tag, split.dims.payload));
  WDE_CHECK_OK(io::WriteChunk(sink, selectivity::internal::kChunkEstimatorState, state));
  return sink.TakeBytes();
}

/// Every position below `size`, or 4096 evenly strided ones when there are
/// more — bounds the byte-by-byte sweeps under the sanitizer lanes.
std::vector<size_t> SweepPositions(size_t size) {
  constexpr size_t kMaxPositions = 4096;
  std::vector<size_t> positions;
  const size_t count = std::min(size, kMaxPositions);
  for (size_t i = 0; i < count; ++i) positions.push_back(i * size / count);
  return positions;
}

Result<std::unique_ptr<selectivity::SelectivityEstimator>> Load(
    std::span<const uint8_t> bytes) {
  io::SpanSource source(bytes);
  return selectivity::LoadEstimatorSnapshot(source);
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

/// Bitwise CRC-32 (reflected IEEE polynomial): the reference the
/// table-driven code must match.
uint32_t BitwiseCrc32(std::span<const uint8_t> bytes) {
  uint32_t crc = 0xFFFFFFFFu;
  for (const uint8_t byte : bytes) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
  }
  return ~crc;
}

std::vector<uint8_t> RandomBytes(uint64_t seed, size_t n) {
  stats::Rng rng(seed);
  std::vector<uint8_t> bytes(n);
  for (uint8_t& byte : bytes) byte = static_cast<uint8_t>(rng.NextUint64());
  return bytes;
}

TEST(IoTest, Crc32MatchesTheBitwiseReferenceAtEveryLengthAndOffset) {
  const std::string check = "123456789";
  EXPECT_EQ(io::Crc32({reinterpret_cast<const uint8_t*>(check.data()), check.size()}),
            0xCBF43926u);
  EXPECT_EQ(io::Crc32({}), 0u);
  // Every length 0..64 at every start offset 0..63: all alignments, the
  // 16-byte blocks and every tail length.
  const std::vector<uint8_t> bytes = RandomBytes(5, 128);
  for (size_t offset = 0; offset < 64; ++offset) {
    for (size_t length = 0; length <= 64; ++length) {
      const std::span<const uint8_t> piece(bytes.data() + offset, length);
      ASSERT_EQ(io::Crc32(piece), BitwiseCrc32(piece))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(IoTest, Crc32UpdateOverAnySplitEqualsTheOneShotCrc) {
  const std::vector<uint8_t> bytes = RandomBytes(6, 1000);
  const std::span<const uint8_t> all(bytes);
  const uint32_t whole = io::Crc32(all);
  EXPECT_EQ(whole, BitwiseCrc32(all));
  for (size_t split = 0; split <= all.size(); ++split) {
    ASSERT_EQ(io::Crc32Update(io::Crc32(all.first(split)), all.subspan(split)), whole)
        << "split " << split;
  }
  // Three and more pieces, at random split points.
  stats::Rng rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    uint32_t crc = 0;
    for (size_t at = 0; at < all.size();) {
      const size_t n = std::min(all.size() - at, 1 + rng.UniformInt(40));
      crc = io::Crc32Update(crc, all.subspan(at, n));
      at += n;
    }
    ASSERT_EQ(crc, whole) << "trial " << trial;
  }
}

TEST(IoTest, StreamedChunksMatchBufferedOnesAndRejectUnstableWriters) {
  // The streamed framing writes exactly the buffered chunk.
  const std::vector<uint8_t> payload = RandomBytes(8, 300);
  io::VectorSink buffered;
  ASSERT_TRUE(io::WriteU32(buffered, 0x1234).ok());
  ASSERT_TRUE(io::WriteU64(buffered, payload.size()).ok());
  ASSERT_TRUE(buffered.Append(payload.data(), payload.size()).ok());
  ASSERT_TRUE(io::WriteU32(buffered, BitwiseCrc32(payload)).ok());
  const auto write_in_pieces = [&payload](io::Sink& sink) {
    for (size_t at = 0; at < payload.size(); at += 7) {
      WDE_RETURN_IF_ERROR(
          sink.Append(payload.data() + at, std::min<size_t>(7, payload.size() - at)));
    }
    return Status::OK();
  };
  io::VectorSink streamed;
  ASSERT_TRUE(io::WriteChunkStreamed(streamed, 0x1234, write_in_pieces).ok());
  EXPECT_TRUE(std::ranges::equal(streamed.bytes(), buffered.bytes()));
  // A writer whose second pass is longer or shorter than its first fails
  // the chunk with Internal.
  for (const size_t second : {size_t{9}, size_t{7}}) {
    int passes = 0;
    const auto unstable = [&passes, second](io::Sink& sink) {
      const std::vector<uint8_t> bytes(++passes == 1 ? 8 : second, 0x5A);
      return sink.Append(bytes.data(), bytes.size());
    };
    io::VectorSink sink;
    EXPECT_EQ(io::WriteChunkStreamed(sink, 0x1234, unstable).code(),
              StatusCode::kInternal)
        << second;
  }
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

// ----------------------------------------------- estimator round trips

TEST(SnapshotRoundTripTest, EveryRegisteredEstimatorAnswersBitIdentically) {
  const std::vector<Query> queries = Workload();
  std::vector<std::unique_ptr<selectivity::SelectivityEstimator>> estimators =
      MakeIngestedEstimators();
  // The sharded wrapper over the 2-D grid: its shell must take the
  // envelope's dimensionality, not the wrapper's registered 1-D.
  {
    selectivity::EstimatorSpec spec;
    spec.tag = "sharded";
    spec.sharded_inner_tag = "grid2d";
    spec.dims = 2;
    spec.shards = 3;
    spec.block_size = 512;
    Result<std::unique_ptr<selectivity::SelectivityEstimator>> sharded =
        selectivity::MakeEstimator(spec);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    (*sharded)->InsertBatch(UnitStream(1, 5000));
    estimators.push_back(std::move(sharded).value());
  }
  std::set<std::string> covered;
  for (const auto& est : estimators) {
    ASSERT_TRUE(est->snapshotable()) << est->name();
    ASSERT_TRUE(
        selectivity::EstimatorRegistry::Global().Contains(est->snapshot_type_tag()))
        << est->name();
    covered.insert(est->snapshot_type_tag());
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
  EXPECT_EQ(covered.size(), selectivity::EstimatorRegistry::Global().Tags().size());
}

TEST(SnapshotRoundTripTest, UnqueriedEstimatorsRoundTripToo) {
  // Save before any query: caches are empty and the first fit happens on
  // both sides after restore — answers must still agree bitwise.
  const std::vector<Query> queries = Workload();
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
  EXPECT_EQ(target.Answer(Query::Range(0.2, 0.7)), saved.Answer(Query::Range(0.2, 0.7)));

  // A different concrete type must refuse the same envelope, untouched.
  selectivity::EquiDepthHistogram wrong_type(0.0, 1.0, 8);
  wrong_type.InsertBatch(xs);
  io::SpanSource source_again(sink.bytes());
  EXPECT_FALSE(wrong_type.LoadState(source_again).ok());
  EXPECT_EQ(wrong_type.count(), xs.size());
}

TEST(SnapshotRoundTripTest, FileSnapshotsRoundTrip) {
  const std::string path = testing::TempDir() + "/wde_snapshot_test.snap";
  const std::vector<Query> queries = Workload();
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
  for (const auto& est : MakeSmallEstimators()) {
    const std::vector<uint8_t> bytes = SnapshotBytesOf(*est);
    for (size_t len : SweepPositions(bytes.size())) {
      EXPECT_FALSE(Load(std::span(bytes.data(), len)).ok())
          << est->name() << " len=" << len;
    }
  }
}

TEST(HostileInputTest, EverySingleBitFlipErrorsCleanly) {
  // CRC framing covers the payloads; magic, version and chunk-header bytes
  // have their own validation, and the reader accepts exactly one version.
  // No flip may crash or be silently accepted.
  for (const auto& est : MakeSmallEstimators()) {
    const std::vector<uint8_t> bytes = SnapshotBytesOf(*est);
    std::vector<uint8_t> corrupt(bytes);
    for (size_t byte : SweepPositions(bytes.size())) {
      for (int bit = 0; bit < 8; ++bit) {
        corrupt[byte] = bytes[byte] ^ static_cast<uint8_t>(1 << bit);
        EXPECT_FALSE(Load(corrupt).ok())
            << est->name() << " byte=" << byte << " bit=" << bit;
      }
      corrupt[byte] = bytes[byte];
    }
  }
}

TEST(HostileInputTest, EveryReframedTruncationOfAStatePayloadErrors) {
  // A truncated state payload under a valid CRC reaches the estimator's own
  // decoder, which must notice the missing bytes.
  for (const auto& est : MakeSmallEstimators()) {
    const SplitSnapshot split = Split(SnapshotBytesOf(*est));
    for (size_t len : SweepPositions(split.state.size())) {
      const std::vector<uint8_t> bytes =
          Reframe(split, std::span(split.state.data(), len));
      EXPECT_FALSE(Load(bytes).ok()) << est->name() << " len=" << len;
    }
  }
}

TEST(HostileInputTest, EveryReframedByteMutationErrorsOrLoadsSane) {
  // A mutated state payload under a valid CRC either fails validation or
  // loads an estimator whose answers are still probabilities.
  const std::vector<Query> queries = Workload();
  for (const auto& est : MakeSmallEstimators()) {
    const SplitSnapshot split = Split(SnapshotBytesOf(*est));
    std::vector<uint8_t> state = split.state;
    size_t insane = 0;
    std::string first_insane;
    for (size_t byte : SweepPositions(state.size())) {
      for (const uint8_t mask :
           {uint8_t{0xFF}, uint8_t{0x40}, static_cast<uint8_t>(1u << (byte % 8))}) {
        state[byte] = split.state[byte] ^ mask;
        Result<std::unique_ptr<selectivity::SelectivityEstimator>> restored =
            Load(Reframe(split, state));
        if (!restored.ok()) continue;
        for (double answer : AnswersOf(**restored, queries)) {
          if (answer >= 0.0 && answer <= 1.0) continue;
          if (insane++ == 0) {
            first_insane = "byte=" + std::to_string(byte) + " mask=" +
                           std::to_string(mask) + " answer=" + std::to_string(answer);
          }
          break;
        }
      }
      state[byte] = split.state[byte];
    }
    EXPECT_EQ(insane, 0u) << est->name() << ": first at " << first_insane;
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

  // The version u32 (little-endian) follows the 8-byte magic; every version
  // but the current one is rejected, older ones included.
  for (uint8_t version : {uint8_t{0xFF}, uint8_t{4}, uint8_t{1}, uint8_t{0}}) {
    std::vector<uint8_t> other(bytes);
    other[8] = version;
    Result<std::unique_ptr<selectivity::SelectivityEstimator>> other_result =
        Load(other);
    ASSERT_FALSE(other_result.ok()) << int{version};
    EXPECT_NE(other_result.status().message().find("version"), std::string::npos);
  }
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
  const std::vector<uint8_t> dims = {1, 0, 0, 0};
  ASSERT_TRUE(
      io::WriteChunk(sink, selectivity::internal::kChunkEstimatorDims, dims).ok());
  const std::vector<uint8_t> garbage(64, 0xA5);
  ASSERT_TRUE(
      io::WriteChunk(sink, selectivity::internal::kChunkEstimatorState, garbage).ok());
  io::SpanSource source(sink.bytes());
  EXPECT_FALSE(selectivity::LoadEstimatorSnapshot(source).ok());
}

TEST(HostileInputTest, EnvelopesWithoutTheirDimsChunkAreRejected) {
  // Every envelope carries DIMS, 1-D included; absence no longer means 1.
  for (const auto& est : MakeSmallEstimators()) {
    const SplitSnapshot split = Split(SnapshotBytesOf(*est));
    io::VectorSink sink;
    ASSERT_TRUE(io::WriteSnapshotHeader(sink).ok());
    ASSERT_TRUE(io::WriteChunk(sink, split.type.tag, split.type.payload).ok());
    ASSERT_TRUE(io::WriteChunk(sink, selectivity::internal::kChunkEstimatorState,
                               split.state)
                    .ok());
    EXPECT_FALSE(Load(sink.bytes()).ok()) << est->name();
  }
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

/// Replaces, in the state payload of `bytes`, the encoding of the first
/// inserted value that the payload holds with `to`; re-framed with a valid
/// CRC.
std::vector<uint8_t> ReplaceValue(const std::vector<uint8_t>& bytes,
                                  std::span<const double> inserted, double to) {
  SplitSnapshot split = Split(bytes);
  io::VectorSink to_sink;
  WDE_CHECK_OK(io::WriteDouble(to_sink, to));
  for (double from : inserted) {
    io::VectorSink from_sink;
    WDE_CHECK_OK(io::WriteDouble(from_sink, from));
    const auto at = std::search(split.state.begin(), split.state.end(),
                                from_sink.bytes().begin(), from_sink.bytes().end());
    if (at == split.state.end()) continue;
    std::copy(to_sink.bytes().begin(), to_sink.bytes().end(), at);
    return Reframe(split, split.state);
  }
  WDE_CHECK(false, "no inserted value in the state payload");
  return {};
}

/// `bytes` of a kde-rot snapshot with its saved fitted count replaced;
/// re-framed with a valid CRC.
std::vector<uint8_t> WithFittedCount(const std::vector<uint8_t>& bytes,
                                     uint64_t fitted) {
  const size_t at = 8 + 8 + 8;  // domain, interval
  SplitSnapshot split = Split(bytes);
  io::VectorSink sink;
  WDE_CHECK_OK(io::WriteU64(sink, fitted));
  std::copy(sink.bytes().begin(), sink.bytes().end(), split.state.begin() + at);
  return Reframe(split, split.state);
}

/// `bytes` with the 8 bytes at `offset` of its state payload replaced by
/// `to`'s encoding; re-framed with a valid CRC.
std::vector<uint8_t> PlantAt(const std::vector<uint8_t>& bytes, size_t offset,
                             double to) {
  SplitSnapshot split = Split(bytes);
  io::VectorSink sink;
  WDE_CHECK_OK(io::WriteDouble(sink, to));
  std::copy(sink.bytes().begin(), sink.bytes().end(), split.state.begin() + offset);
  return Reframe(split, split.state);
}

/// Planted-value inputs for a fitted wavelet-cv snapshot, found by walking
/// its state payload: the first scaling-level S1 made NaN, its S2 made
/// infinite and negative, the first α made NaN, the estimate's scaling k_lo
/// moved off its basis window, the first non-zero θ made infinite, and that
/// θ's level `kept` count made one short.
std::vector<std::vector<uint8_t>> WaveletCvPlantedInputs(
    const std::vector<uint8_t>& bytes) {
  const std::vector<uint8_t> state = Split(bytes).state;
  io::SpanSource source(state);
  const auto at = [&] { return state.size() - source.remaining(); };
  const auto skip = [&](size_t n) { WDE_CHECK(source.View(n) != nullptr); };
  const auto vector_at = [&] {  // offset of the first element, then skip it
    const size_t offset = at() + 8;
    const std::vector<double> values = *io::ReadDoubleVector(source);
    return std::make_pair(offset, values);
  };
  skip(8 + 8 + 4 + 4 + 1 + 8 + 8 + 8);  // options, fit domain
  const Result<std::string> filter_name = io::ReadString(source, 64);
  WDE_CHECK_OK(filter_name.status());
  skip(4);  // table_levels
  const int32_t j0 = *io::ReadI32(source);
  const int32_t j_max = *io::ReadI32(source);
  skip(8);  // count
  skip(4);  // scaling k_lo
  const size_t s1 = vector_at().first;
  const size_t s2 = vector_at().first;
  for (int32_t j = j0; j <= j_max; ++j) {
    skip(4);
    vector_at();
    vector_at();
  }
  skip(8);  // fitted_at_count
  WDE_CHECK_EQ(*io::ReadU8(source), 1u, "the snapshot must carry an estimate");
  skip(8 + 8 + 4);  // domain, j0
  const size_t k_lo_at = at();
  skip(4);
  const size_t alpha = vector_at().first;
  const uint64_t n_details = *io::ReadU64(source);
  const auto plant_i32 = [&bytes](size_t offset, int32_t to) {
    SplitSnapshot split = Split(bytes);
    io::VectorSink sink;
    WDE_CHECK_OK(io::WriteI32(sink, to));
    std::copy(sink.bytes().begin(), sink.bytes().end(), split.state.begin() + offset);
    return Reframe(split, split.state);
  };
  std::vector<std::vector<uint8_t>> inputs = {
      PlantAt(bytes, s1, std::nan("")),
      PlantAt(bytes, s2, std::numeric_limits<double>::infinity()),
      PlantAt(bytes, s2, -1.0), PlantAt(bytes, alpha, std::nan("")),
      plant_i32(k_lo_at, std::numeric_limits<int32_t>::max() - 2)};
  for (uint64_t i = 0; i < n_details; ++i) {
    skip(4 + 4);  // j, k_lo
    const size_t kept_at = at();
    const int32_t kept = *io::ReadI32(source);
    const auto [theta_at, theta] = vector_at();
    if (kept == 0) continue;
    const size_t first = static_cast<size_t>(
        std::find_if(theta.begin(), theta.end(), [](double v) { return v != 0.0; }) -
        theta.begin());
    inputs.push_back(PlantAt(bytes, theta_at + 8 * first,
                             std::numeric_limits<double>::infinity()));
    inputs.push_back(plant_i32(kept_at, kept - 1));
    return inputs;
  }
  WDE_CHECK(false, "the estimate keeps no detail coefficient");
  return {};
}

TEST(SnapshotValidationTest, RawObservationLoadersRejectNonFiniteAndOutOfDomainValues) {
  // The loaders that keep raw observations validate them: Insert drops
  // non-finite values, and the clamping ones never hold a value outside
  // their domain. The KDE also rejects a fitted count no live estimator
  // records. wavelet-cv keeps sums and coefficients instead, and rejects
  // non-finite ones, a negative S2, a level off its basis window and a
  // `kept` count that disagrees with θ. grid2d keeps cell counts over a
  // saved (lo, span) per axis, and rejects an axis whose upper edge lo + span
  // rounds back onto lo (every answer would be NaN).
  // A rejected load leaves the target untouched.
  const std::vector<double> xs = UnitStream(41, 600);
  const std::vector<Query> queries = Workload();
  std::vector<std::unique_ptr<selectivity::SelectivityEstimator>> targets =
      MakeIngestedEstimators(300);
  for (const auto& est : MakeIngestedEstimators(0)) {
    const std::string tag = est->snapshot_type_tag();
    const bool keeps_values = tag == "kde-rot" || tag == "equi-depth" ||
                              tag == "reservoir";
    if (!keeps_values && tag != "wavelet-cv" && tag != "grid2d") continue;
    selectivity::SelectivityEstimator& target = **std::find_if(
        targets.begin(), targets.end(),
        [&tag](const auto& t) { return t->snapshot_type_tag() == tag; });
    est->InsertBatch(xs);
    AnswersOf(*est, queries);  // fit, so a kde-rot payload leads with its sorted sample
    const std::vector<uint8_t> bytes = SnapshotBytesOf(*est);
    std::vector<std::vector<uint8_t>> inputs;
    if (keeps_values) {
      std::vector<double> replacements = {std::nan(""),
                                          std::numeric_limits<double>::infinity()};
      // The reservoir declares no domain; the others clamp into [0, 1].
      if (tag != "reservoir") replacements.insert(replacements.end(), {7.5, -0.25});
      for (double bad : replacements) inputs.push_back(ReplaceValue(bytes, xs, bad));
    } else if (tag == "grid2d") {
      // Axis 0 at lo = 1e16 with span 0.9: lo + span == lo in doubles.
      inputs.push_back(PlantAt(PlantAt(bytes, 0, 1e16), 8, 0.9));
    } else {
      inputs = WaveletCvPlantedInputs(bytes);
    }
    if (tag == "kde-rot") {
      // A live estimator fits only at four or more observations, and only
      // when the fit does not degenerate (all values equal).
      for (const uint64_t fitted : {1, 2, 3}) {
        inputs.push_back(WithFittedCount(bytes, fitted));
      }
      std::unique_ptr<selectivity::SelectivityEstimator> flat = est->CloneEmpty();
      flat->InsertBatch(std::vector<double>(600, 0.5));
      AnswersOf(*flat, queries);
      const std::vector<uint8_t> flat_bytes = SnapshotBytesOf(*flat);
      ASSERT_TRUE(Load(flat_bytes).ok());
      inputs.push_back(WithFittedCount(flat_bytes, 4));
    }
    for (size_t input = 0; input < inputs.size(); ++input) {
      const std::vector<uint8_t>& corrupt = inputs[input];
      Result<std::unique_ptr<selectivity::SelectivityEstimator>> loaded = Load(corrupt);
      ASSERT_FALSE(loaded.ok()) << tag << " input=" << input;
      EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << tag;

      const std::vector<double> before = AnswersOf(target, queries);
      const size_t count_before = target.count();
      io::SpanSource source(corrupt);
      ASSERT_TRUE(io::ReadSnapshotHeader(source).ok());
      EXPECT_FALSE(target.LoadState(source).ok()) << tag;
      EXPECT_EQ(target.count(), count_before) << tag << " was touched";
      EXPECT_EQ(AnswersOf(target, queries), before) << tag << " was touched";
    }
  }
}

/// `bytes` of a fitted wavelet-cv snapshot over `levels` detail levels with
/// `mutate` applied to the cross-validation result that ends its state
/// payload; re-framed with a valid CRC.
std::vector<uint8_t> WithCvResult(
    const std::vector<uint8_t>& bytes, int levels,
    const std::function<void(core::CrossValidationResult&)>& mutate) {
  SplitSnapshot split = Split(bytes);
  // has_cv, then kind, j0, j_star, j1_hat, the level count and per level
  // j, λ̂, CV value, kept, total and the largest magnitude.
  constexpr size_t kLevelBytes = 4 + 8 + 8 + 4 + 4 + 8;
  const size_t cv_at =
      split.state.size() - (1 + 4 + 4 + 4 + 8) - kLevelBytes * static_cast<size_t>(levels);
  WDE_CHECK_EQ(split.state[cv_at - 1], 1u, "the snapshot must carry a CV result");
  io::SpanSource source(std::span(split.state).subspan(cv_at));
  core::CrossValidationResult cv;
  cv.kind = static_cast<core::ThresholdKind>(*io::ReadU8(source));
  cv.j0 = *io::ReadI32(source);
  cv.j_star = *io::ReadI32(source);
  cv.j1_hat = *io::ReadI32(source);
  WDE_CHECK_EQ(*io::ReadU64(source), static_cast<uint64_t>(levels));
  for (int i = 0; i < levels; ++i) {
    core::LevelCvResult level;
    level.j = *io::ReadI32(source);
    level.lambda_hat = *io::ReadDouble(source);
    level.cv_value = *io::ReadDouble(source);
    level.kept = *io::ReadI32(source);
    level.total = *io::ReadI32(source);
    level.max_magnitude = *io::ReadDouble(source);
    cv.levels.push_back(level);
  }
  WDE_CHECK_EQ(source.remaining(), 0u);
  mutate(cv);
  io::VectorSink sink;
  WDE_CHECK_OK(io::WriteU8(sink, static_cast<uint8_t>(cv.kind)));
  WDE_CHECK_OK(io::WriteI32(sink, cv.j0));
  WDE_CHECK_OK(io::WriteI32(sink, cv.j_star));
  WDE_CHECK_OK(io::WriteI32(sink, cv.j1_hat));
  WDE_CHECK_OK(io::WriteU64(sink, cv.levels.size()));
  for (const core::LevelCvResult& level : cv.levels) {
    WDE_CHECK_OK(io::WriteI32(sink, level.j));
    WDE_CHECK_OK(io::WriteDouble(sink, level.lambda_hat));
    WDE_CHECK_OK(io::WriteDouble(sink, level.cv_value));
    WDE_CHECK_OK(io::WriteI32(sink, level.kept));
    WDE_CHECK_OK(io::WriteI32(sink, level.total));
    WDE_CHECK_OK(io::WriteDouble(sink, level.max_magnitude));
  }
  split.state.resize(cv_at);
  split.state.insert(split.state.end(), sink.bytes().begin(), sink.bytes().end());
  return Reframe(split, split.state);
}

TEST(SnapshotValidationTest, WaveletCvRestoreRejectsACvResultThatDoesNotFitTheSketch) {
  // A restored CV result is read through Level(j), which indexes
  // levels[j - j0] for any j in [j0, j_star]. A CRC-valid payload whose CV
  // result disagrees with the fit (here j0 = 2, j_star = 11: ten levels) is
  // corrupt, and a rejected load leaves the target untouched.
  constexpr int kLevels = 10;
  const std::vector<Query> queries = Workload();
  selectivity::StreamingWaveletSelectivity est = MakeSketch(1024, Sym8Basis(), 11);
  est.InsertBatch(UnitStream(43, 3000));
  AnswersOf(est, queries);  // fit, so the snapshot carries a CV result
  const std::vector<uint8_t> bytes = SnapshotBytesOf(est);
  ASSERT_EQ(WithCvResult(bytes, kLevels, [](core::CrossValidationResult&) {}), bytes);

  using Mutation = std::function<void(core::CrossValidationResult&)>;
  const std::vector<Mutation> mutations = {
      // j_star = 12 over the ten levels of [2, 11]: Level(12) would read
      // levels[10].
      [](core::CrossValidationResult& cv) { cv.j_star += 1; },
      // A well-formed result for [2, 12]: the fit has no level 12.
      [](core::CrossValidationResult& cv) {
        cv.levels.push_back(cv.levels.back());
        cv.levels.back().j = ++cv.j_star;
      },
      // A well-formed result for [3, 11].
      [](core::CrossValidationResult& cv) {
        cv.levels.erase(cv.levels.begin());
        ++cv.j0;
      },
      [](core::CrossValidationResult& cv) { cv.levels.pop_back(); },
      [](core::CrossValidationResult& cv) { cv.levels[1].j = cv.levels[0].j; },
      [](core::CrossValidationResult& cv) {
        cv.kind = cv.kind == core::ThresholdKind::kSoft ? core::ThresholdKind::kHard
                                                        : core::ThresholdKind::kSoft;
      },
      [](core::CrossValidationResult& cv) { cv.j1_hat = cv.j_star + 1; },
      [](core::CrossValidationResult& cv) {
        cv.levels[0].kept = cv.levels[0].total + 1;
      },
      [](core::CrossValidationResult& cv) { cv.levels[0].kept = -1; },
  };
  selectivity::StreamingWaveletSelectivity target = MakeSketch(1024, Sym8Basis(), 11);
  target.InsertBatch(UnitStream(44, 500));
  const std::vector<double> before = AnswersOf(target, queries);
  for (size_t m = 0; m < mutations.size(); ++m) {
    const std::vector<uint8_t> corrupt = WithCvResult(bytes, kLevels, mutations[m]);
    Result<std::unique_ptr<selectivity::SelectivityEstimator>> loaded = Load(corrupt);
    ASSERT_FALSE(loaded.ok()) << "mutation " << m;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << "mutation " << m;

    io::SpanSource source(corrupt);
    ASSERT_TRUE(io::ReadSnapshotHeader(source).ok());
    EXPECT_FALSE(target.LoadState(source).ok()) << "mutation " << m;
    EXPECT_EQ(target.count(), 500u) << "mutation " << m;
    EXPECT_EQ(AnswersOf(target, queries), before) << "mutation " << m;
  }
}

TEST(SnapshotValidationTest, KdeRestoreAdoptsTheSortedPrefixAndRejectsDisorder) {
  // The kde-rot payload leads with the fitted sample in sorted order; restore
  // refits on it without sorting, bitwise: same answers, same bandwidth, same
  // re-saved bytes. A prefix out of order is corrupt.
  selectivity::KdeSelectivity::Options options;
  options.refit_interval = 4096;
  selectivity::KdeSelectivity kde(options);
  const std::vector<double> xs = UnitStream(43, 5000);
  kde.InsertBatch(std::span<const double>(xs).first(3000));
  const std::vector<Query> queries = Workload();
  AnswersOf(kde, queries);  // fits 3000; the rest stays an unfitted tail
  kde.InsertBatch(std::span<const double>(xs).subspan(3000));
  const std::vector<uint8_t> bytes = SnapshotBytesOf(kde);
  Result<std::unique_ptr<selectivity::SelectivityEstimator>> restored = Load(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(SnapshotBytesOf(**restored), bytes);
  EXPECT_EQ(AnswersOf(**restored, queries), AnswersOf(kde, queries));
  EXPECT_EQ((*restored)->Answer(selectivity::Query::Quantile(0.3)),
            kde.Answer(selectivity::Query::Quantile(0.3)));

  // Swap the first two sorted values: still finite and in the domain, but
  // no longer ascending.
  SplitSnapshot split = Split(bytes);
  constexpr size_t kVectorStart = 8 + 8 + 8 + 8 + 8;  // domain, interval, fit point, count
  ASSERT_GT(split.state.size(), kVectorStart + 16);
  std::swap_ranges(split.state.begin() + kVectorStart,
                   split.state.begin() + kVectorStart + 8,
                   split.state.begin() + kVectorStart + 8);
  ASSERT_NE(Reframe(split, split.state), bytes);
  Result<std::unique_ptr<selectivity::SelectivityEstimator>> disordered =
      Load(Reframe(split, split.state));
  ASSERT_FALSE(disordered.ok());
  EXPECT_EQ(disordered.status().code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotValidationTest, DomainsWhoseWidthOverflowsAreRejectedUntouched) {
  // [−1e308, 1e308] has finite ends, but hi − lo overflows to inf, and every
  // tag maps values through (x − lo) / (hi − lo). Planted over the (lo, hi)
  // that leads the state payload of each tag saving its domain as two ends,
  // it is InvalidArgument, and a rejected load leaves the target untouched.
  // (wavelet-cv's fit saves lo and a finite width, which then disagree.)
  const std::vector<Query> queries = Workload();
  std::vector<std::unique_ptr<selectivity::SelectivityEstimator>> targets =
      MakeIngestedEstimators(300);
  size_t planted = 0;
  for (const auto& est : MakeIngestedEstimators(600)) {
    const std::string tag = est->snapshot_type_tag();
    if (tag != "kde-rot" && tag != "wavelet-cv" && tag != "haar-synopsis" &&
        tag != "equi-depth") {
      continue;
    }
    ++planted;
    AnswersOf(*est, queries);
    const std::vector<uint8_t> corrupt =
        PlantAt(PlantAt(SnapshotBytesOf(*est), 0, -1e308), 8, 1e308);
    Result<std::unique_ptr<selectivity::SelectivityEstimator>> loaded = Load(corrupt);
    ASSERT_FALSE(loaded.ok()) << tag;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << tag;

    selectivity::SelectivityEstimator& target = **std::find_if(
        targets.begin(), targets.end(),
        [&tag](const auto& t) { return t->snapshot_type_tag() == tag; });
    const std::vector<double> before = AnswersOf(target, queries);
    const std::vector<uint8_t> bytes_before = SnapshotBytesOf(target);
    io::SpanSource source(corrupt);
    ASSERT_TRUE(io::ReadSnapshotHeader(source).ok());
    const Status status = target.LoadState(source);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << tag;
    EXPECT_EQ(SnapshotBytesOf(target), bytes_before) << tag << " was touched";
    EXPECT_EQ(AnswersOf(target, queries), before) << tag << " was touched";
  }
  EXPECT_EQ(planted, 4u);
}

TEST(SnapshotValidationTest, KdeRestoreAcceptsZerosOutOfKeyOrder) {
  // Before the fold ordered −0.0 before +0.0, a fitted prefix could hold
  // them in either order. Such a prefix is still ascending: it loads,
  // answers like the canonical one, and folds later values without error.
  selectivity::KdeSelectivity::Options options;
  options.refit_interval = 4096;
  selectivity::KdeSelectivity kde(options);
  std::vector<double> xs = UnitStream(47, 3000);
  for (size_t i = 0; i < 40; ++i) xs[7 * i] = i % 2 == 0 ? 0.0 : -0.0;
  kde.InsertBatch(xs);
  const std::vector<Query> queries = Workload();
  AnswersOf(kde, queries);  // fits all 3000: the prefix leads with 20 −0.0, 20 +0.0
  const std::vector<uint8_t> bytes = SnapshotBytesOf(kde);

  SplitSnapshot split = Split(bytes);
  // domain, interval, fit point, count
  constexpr size_t kVectorStart = 8 + 8 + 8 + 8 + 8;
  const auto bits_at = [&split](size_t i) {
    uint64_t bits = 0;
    std::memcpy(&bits, split.state.data() + kVectorStart + 8 * i, 8);
    return bits;
  };
  ASSERT_EQ(bits_at(0), std::bit_cast<uint64_t>(-0.0));
  ASSERT_EQ(bits_at(39), std::bit_cast<uint64_t>(0.0));
  std::swap_ranges(split.state.begin() + kVectorStart,
                   split.state.begin() + kVectorStart + 8,
                   split.state.begin() + kVectorStart + 8 * 39);
  const std::vector<uint8_t> legacy = Reframe(split, split.state);
  Result<std::unique_ptr<selectivity::SelectivityEstimator>> restored = Load(legacy);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(SnapshotBytesOf(**restored), legacy);
  EXPECT_EQ(AnswersOf(**restored, queries), AnswersOf(kde, queries));

  std::vector<double> more = UnitStream(48, 5000);
  for (size_t i = 0; i < 50; ++i) more[11 * i] = i % 2 == 0 ? -0.0 : 0.0;
  (*restored)->InsertBatch(more);
  kde.InsertBatch(more);
  (*restored)->ForceRefit();
  kde.ForceRefit();
  EXPECT_EQ(AnswersOf(**restored, queries), AnswersOf(kde, queries));
  EXPECT_EQ((*restored)->count(), kde.count());
}

// ------------------------------------------- cross-process-style merging

TEST(SnapshotMergeTest, IntegerStateEstimatorsMergeFromSnapshotsBitExactly) {
  const std::vector<double> xs = UnitStream(10, 8000);
  const std::span<const double> all(xs);
  const std::vector<Query> queries = Workload();

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
    const double got = combiner.Answer(Query::Range(a, a + 0.1));
    const double want = sequential.Answer(Query::Range(a, a + 0.1));
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

/// Restores a whole-file snapshot in place: the header, then the envelope
/// through LoadState, which keeps the target's runtime resources.
Status LoadFileInPlace(selectivity::SelectivityEstimator& target,
                       const std::string& path) {
  WDE_ASSIGN_OR_RETURN(io::FileSource file, io::FileSource::Open(path));
  WDE_RETURN_IF_ERROR(io::ReadSnapshotHeader(file).status());
  return target.LoadState(file);
}

TEST(ShardedCheckpointTest, CheckpointRestoreContinueMatchesUninterruptedRun) {
  const std::string path = testing::TempDir() + "/wde_sharded_checkpoint.snap";
  const std::vector<double> xs = UnitStream(13, 40000);
  const std::span<const double> all(xs);
  const std::vector<Query> queries = Workload();

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
    ASSERT_TRUE(selectivity::SaveEstimatorSnapshotFile(node, path).ok());
  }
  selectivity::ShardedSelectivityEstimator restored = make();
  ASSERT_TRUE(LoadFileInPlace(restored, path).ok());
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
  ASSERT_TRUE(selectivity::SaveEstimatorSnapshotFile(node, path).ok());

  // Truncate the file: the load must fail and leave the target untouched.
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
  EXPECT_FALSE(LoadFileInPlace(target, path).ok());
  EXPECT_EQ(target.count(), 100u);  // untouched
  std::remove(path.c_str());
}

TEST(ShardedCheckpointTest, ShardedSnapshotBytesDoNotDependOnQueries) {
  // The merged view is derived state and is never saved: querying,
  // quiescing or extracting from an engine leaves its snapshot bytes as
  // they were.
  const std::vector<Query> queries = Workload();
  for (const char* inner : {"kde-rot", "equi-depth", "wavelet-cv"}) {
    SCOPED_TRACE(inner);
    selectivity::EstimatorSpec spec;
    spec.tag = "sharded";
    spec.sharded_inner_tag = inner;
    spec.shards = 3;
    spec.block_size = 256;
    spec.j_max = 8;
    Result<std::unique_ptr<selectivity::SelectivityEstimator>> engine =
        selectivity::MakeEstimator(spec);
    ASSERT_TRUE(engine.ok());
    (*engine)->InsertBatch(UnitStream(61, 5000));
    const std::vector<uint8_t> before = SnapshotBytesOf(**engine);
    (void)AnswersOf(**engine, queries);
    (*engine)->InsertBatch(UnitStream(62, 700));
    const std::vector<uint8_t> grown = SnapshotBytesOf(**engine);
    (*engine)->ForceRefit();
    (void)static_cast<const selectivity::ShardedSelectivityEstimator&>(**engine)
        .ExtractMergedView();
    (void)AnswersOf(**engine, queries);
    EXPECT_NE(before, grown);
    EXPECT_EQ(SnapshotBytesOf(**engine), grown);
  }
}

/// `bytes` of a sharded snapshot re-framed in the older writer's layout: a
/// refresh interval of 1000000, `pending` values not yet in the saved view,
/// and `view` saved as the merged view.
std::vector<uint8_t> WithSavedView(const std::vector<uint8_t>& bytes,
                                   uint64_t pending,
                                   const selectivity::SelectivityEstimator& view) {
  SplitSnapshot split = Split(bytes);
  const auto plant_u64 = [&split](size_t offset, uint64_t value) {
    io::VectorSink sink;
    WDE_CHECK_OK(io::WriteU64(sink, value));
    std::copy(sink.bytes().begin(), sink.bytes().end(),
              split.state.begin() + static_cast<ptrdiff_t>(offset));
  };
  plant_u64(16, 1000000);  // after shards and block size
  plant_u64(32, pending);  // after the refresh interval and position
  WDE_CHECK_EQ(split.state.back(), 0u);
  split.state.back() = 1;
  io::VectorSink envelope;
  WDE_CHECK_OK(selectivity::SaveEstimatorEnvelope(view, envelope));
  split.state.insert(split.state.end(), envelope.bytes().begin(),
                     envelope.bytes().end());
  return Reframe(split, split.state);
}

TEST(ShardedCheckpointTest, OlderSnapshotsWithASavedViewLoadAndDropIt) {
  // An older writer paced its merged view and saved it: here a view that
  // predates 4000 of the 8000 values. The loader validates the retired
  // fields and the view's type, then drops them; the restored engine
  // answers from the replicas like a live engine over the same stream, and
  // re-saves the canonical bytes.
  selectivity::KdeSelectivity::Options kde_options;
  kde_options.refit_interval = 512;
  selectivity::KdeSelectivity prototype(kde_options);
  selectivity::ShardedSelectivityEstimator::Options options;
  options.shards = 3;
  options.block_size = 256;
  selectivity::ShardedSelectivityEstimator live =
      *selectivity::ShardedSelectivityEstimator::Create(prototype, options);
  stats::Rng rng(17);
  std::vector<double> low(4000), high(4000);
  for (double& x : low) x = rng.Uniform(0.0, 0.5);
  for (double& x : high) x = rng.Uniform(0.5, 1.0);
  live.InsertBatch(low);
  std::unique_ptr<selectivity::SelectivityEstimator> stale = live.ExtractMergedView();
  live.InsertBatch(high);
  const std::vector<uint8_t> canonical = SnapshotBytesOf(live);

  const std::vector<uint8_t> legacy = WithSavedView(canonical, 4000, *stale);
  Result<std::unique_ptr<selectivity::SelectivityEstimator>> restored = Load(legacy);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->count(), 8000u);
  const std::vector<Query> queries = Workload();
  EXPECT_EQ(AnswersOf(**restored, queries), AnswersOf(live, queries));
  EXPECT_EQ(SnapshotBytesOf(**restored), canonical);
  EXPECT_NE((*restored)->Answer(Query::Range(0.5, 1.0)),
            stale->Answer(Query::Range(0.5, 1.0)));

  // A saved view of another type is still corrupt, and the target of an
  // in-place load keeps its state.
  selectivity::EquiDepthHistogram other(0.0, 1.0, 16);
  other.InsertBatch(low);
  const std::vector<uint8_t> mismatched = WithSavedView(canonical, 0, other);
  selectivity::ShardedSelectivityEstimator target =
      *selectivity::ShardedSelectivityEstimator::Create(prototype, options);
  target.InsertBatch(UnitStream(15, 100));
  const std::vector<double> target_before = AnswersOf(target, queries);
  io::SpanSource source(mismatched);
  ASSERT_TRUE(io::ReadSnapshotHeader(source).ok());
  const Status status = target.LoadState(source);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_EQ(target.count(), 100u);
  EXPECT_EQ(AnswersOf(target, queries), target_before);
}

TEST(ShardedCheckpointTest, DistributedNodesMergeViaSnapshots) {
  // The full distributed story: two sharded ingest nodes over disjoint
  // partitions write snapshots; a combiner node restores + merges them and
  // answers exactly like one node over the whole stream.
  const std::vector<double> xs = UnitStream(16, 30000);
  const std::span<const double> all(xs);
  const std::vector<Query> queries = Workload();
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

TEST(ShardedCheckpointTest, KdeReplicasRestoreBitwise) {
  const std::string path = testing::TempDir() + "/wde_kde_checkpoint.snap";
  const std::vector<Query> queries = Workload();
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
  ASSERT_TRUE(selectivity::SaveEstimatorSnapshotFile(node, path).ok());

  selectivity::ShardedSelectivityEstimator restored =
      *selectivity::ShardedSelectivityEstimator::Create(prototype, options);
  ASSERT_TRUE(LoadFileInPlace(restored, path).ok());
  EXPECT_EQ(restored.count(), node.count());
  EXPECT_EQ(AnswersOf(restored, queries), before);
  std::remove(path.c_str());
}

// --------------------------------------------- restore, then keep ingesting

TEST(SnapshotRoundTripTest, EveryTagContinuesIngestingLikeItsLiveTwin) {
  // restore ≡ live: a restored estimator and its never-serialized twin take
  // the same further ingest and keep answering bitwise alike, and the
  // restored one re-saves to the bytes it was loaded from.
  const std::vector<Query> queries = Workload();
  const std::vector<double> tail = UnitStream(20, 500);
  std::vector<std::unique_ptr<selectivity::SelectivityEstimator>> twins =
      MakeIngestedEstimators();
  for (auto& twin : twins) {
    AnswersOf(*twin, queries);  // warm the lazy caches before the save
    const std::vector<uint8_t> bytes = SnapshotBytesOf(*twin);
    Result<std::unique_ptr<selectivity::SelectivityEstimator>> restored = Load(bytes);
    ASSERT_TRUE(restored.ok()) << twin->name() << ": " << restored.status().ToString();
    EXPECT_EQ(SnapshotBytesOf(**restored), bytes) << twin->name();
    twin->InsertBatch(tail);
    (*restored)->InsertBatch(tail);
    EXPECT_EQ((*restored)->count(), twin->count()) << twin->name();
    twin->ForceRefit();
    (*restored)->ForceRefit();
    EXPECT_EQ(AnswersOf(**restored, queries), AnswersOf(*twin, queries)) << twin->name();
  }
}

}  // namespace
}  // namespace wde
