// Tier-1 tests for the memory module's arenas and the io byte plumbing
// under them: canonical column layout, 64-byte alignment of every column,
// zero-initialization, copy-on-write sharing and first-mutation divergence,
// bitwise relocation, the reuse of parked large blocks, zero-copy chunk
// reads, the slicing-by-8 CRC's equivalence to the bytewise definition, the
// whole-file FileSource, and the write-then-rename file helper. Run under
// ASan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "io/chunk.hpp"
#include "io/serialize.hpp"
#include "memory/arena.hpp"
#include "util/check.hpp"

namespace wde {
namespace {

using memory::Arena;
using memory::ColumnKind;
using memory::ColumnSpec;
using memory::kColumnAlignment;

bool Aligned(const void* p) {
  return reinterpret_cast<uintptr_t>(p) % kColumnAlignment == 0;
}

TEST(ColumnLayout, CanonicalOffsetsAndTotal) {
  const ColumnSpec specs[] = {{ColumnKind::kF64, 3},
                              {ColumnKind::kF64, 1},
                              {ColumnKind::kF64, 10}};
  uint64_t total = 0;
  auto columns = memory::ComputeColumnLayout(specs, &total);
  ASSERT_TRUE(columns.ok());
  ASSERT_EQ(columns->size(), 3u);
  EXPECT_EQ((*columns)[0].offset, 0u);
  EXPECT_EQ((*columns)[1].offset, 64u);   // 24 bytes rounded up
  EXPECT_EQ((*columns)[2].offset, 128u);  // 72 bytes rounded up
  EXPECT_EQ(total, 128u + 80u);           // unpadded end of the last column
}

TEST(ColumnLayout, EmptyAndZeroCountColumns) {
  uint64_t total = 1;
  auto none = memory::ComputeColumnLayout({}, &total);
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(total, 0u);

  const ColumnSpec specs[] = {{ColumnKind::kF64, 0}, {ColumnKind::kF64, 5}};
  auto columns = memory::ComputeColumnLayout(specs, &total);
  ASSERT_TRUE(columns.ok());
  EXPECT_EQ((*columns)[0].offset, 0u);
  EXPECT_EQ((*columns)[1].offset, 0u);  // empty column consumes no space
  EXPECT_EQ(total, 40u);
}

TEST(ColumnLayout, RejectsOverflowingCounts) {
  const ColumnSpec specs[] = {{ColumnKind::kF64, UINT64_MAX / 4}};
  uint64_t total = 0;
  EXPECT_FALSE(memory::ComputeColumnLayout(specs, &total).ok());
}

TEST(Arena, CreateAlignsAndZeroInitializes) {
  const ColumnSpec specs[] = {{ColumnKind::kF64, 7},
                              {ColumnKind::kF64, 3},
                              {ColumnKind::kF64, 100}};
  Arena arena = Arena::Create(specs);
  EXPECT_TRUE(Aligned(arena.payload()));
  for (size_t i = 0; i < arena.num_columns(); ++i) {
    EXPECT_TRUE(Aligned(arena.F64(i).data()));
    for (double v : arena.F64(i)) EXPECT_EQ(v, 0.0);
  }
}

TEST(Arena, CopySharesUntilMutation) {
  const ColumnSpec specs[] = {{ColumnKind::kF64, 4}};
  Arena a = Arena::Create(specs);
  std::iota(a.MutableF64(0).begin(), a.MutableF64(0).end(), 1.0);

  Arena b = a;  // CoW share: publishing a view costs two pointer copies
  EXPECT_TRUE(a.shares_storage_with(b));
  EXPECT_EQ(a.payload(), b.payload());

  b.MutableF64(0)[2] = 99.0;  // first mutation un-shares
  EXPECT_FALSE(a.shares_storage_with(b));
  EXPECT_EQ(a.F64(0)[2], 3.0);
  EXPECT_EQ(b.F64(0)[2], 99.0);
  EXPECT_EQ(b.F64(0)[0], 1.0);  // relocation preserved the other elements
}

TEST(Arena, EnsureWritableIsNoOpForSoleOwner) {
  const ColumnSpec specs[] = {{ColumnKind::kF64, 16}};
  Arena arena = Arena::Create(specs);
  const uint8_t* before = arena.payload();
  arena.EnsureWritable();
  arena.MutableF64(0)[0] = 42.0;
  EXPECT_EQ(arena.payload(), before);
}

/// True when every byte of the arena's block outside its columns is zero:
/// the gaps between columns and the pad after the last one, up to the next
/// kColumnAlignment multiple (the allocation's end).
size_t PaddedBytes(const Arena& arena) {
  return (arena.payload_bytes() + kColumnAlignment - 1) / kColumnAlignment *
         kColumnAlignment;
}

bool PadBytesAreZero(const Arena& arena) {
  const uint8_t* base = arena.payload();
  const size_t padded = PaddedBytes(arena);
  const auto zero = [base](size_t from, size_t to) {
    return std::all_of(base + from, base + to, [](uint8_t b) { return b == 0; });
  };
  size_t end = 0;
  for (const memory::ColumnDesc& desc : arena.columns()) {
    if (!zero(end, desc.offset)) return false;
    end = desc.offset + desc.count * sizeof(double);
  }
  return zero(end, padded);
}

/// Allocates 64 blocks of `specs`' size full of 0xFF bytes and frees them,
/// so the next allocation of that size likely reuses dirty memory.
void DirtyTheHeap(std::span<const ColumnSpec> specs) {
  std::vector<Arena> junk;
  for (int i = 0; i < 64; ++i) {
    junk.push_back(Arena::Create(specs));
    std::memset(const_cast<uint8_t*>(junk.back().payload()), 0xFF,
                PaddedBytes(junk.back()));
  }
}

TEST(Arena, CreateForOverwriteZeroesOnlyThePadAndRelocationKeepsItZero) {
  // Columns of 7, 3 and 100 doubles: gaps after the first two columns and a
  // 32-byte pad after the last.
  const ColumnSpec specs[] = {{ColumnKind::kF64, 7},
                              {ColumnKind::kF64, 3},
                              {ColumnKind::kF64, 100}};
  DirtyTheHeap(specs);
  Arena arena = Arena::CreateForOverwrite(specs);
  EXPECT_TRUE(Aligned(arena.payload()));
  EXPECT_TRUE(PadBytesAreZero(arena));
  for (size_t i = 0; i < arena.num_columns(); ++i) {
    EXPECT_TRUE(Aligned(arena.F64(i).data()));
    std::iota(arena.MutableF64(i).begin(), arena.MutableF64(i).end(), 1.0);
  }
  EXPECT_TRUE(PadBytesAreZero(arena));

  const Arena shared = arena;
  DirtyTheHeap(specs);
  arena.MutableF64(2)[0] = -5.0;  // relocates
  EXPECT_FALSE(arena.shares_storage_with(shared));
  EXPECT_TRUE(PadBytesAreZero(arena));
  EXPECT_EQ(arena.F64(0)[6], 7.0);
  EXPECT_EQ(arena.F64(1)[2], 3.0);
  EXPECT_EQ(arena.F64(2)[0], -5.0);
  EXPECT_EQ(arena.F64(2)[99], 100.0);
  EXPECT_EQ(shared.F64(2)[0], 1.0);
}

// ------------------------------------------------------------ parked blocks

constexpr size_t kMiB = size_t{1} << 20;

/// One F64 column of `bytes` bytes.
std::vector<ColumnSpec> ColumnOf(size_t bytes) {
  return {{ColumnKind::kF64, bytes / sizeof(double)}};
}

TEST(ArenaParking, ADirtyParkedBlockIsReusedWithOnlyItsPadZeroed) {
  // A 2 MiB block full of -1.0, parked beside one too large to serve 2 MiB.
  Arena dirty = Arena::CreateForOverwrite(ColumnOf(2 * kMiB));
  Arena large = Arena::CreateForOverwrite(ColumnOf(16 * kMiB));
  std::fill(dirty.MutableF64(0).begin(), dirty.MutableF64(0).end(), -1.0);
  const uint8_t* block = dirty.payload();
  dirty = Arena();
  large = Arena();

  // Gaps after the first two columns and a pad after the last, all inside
  // the dirty bytes.
  const ColumnSpec specs[] = {{ColumnKind::kF64, 7},
                              {ColumnKind::kF64, 3},
                              {ColumnKind::kF64, 2 * kMiB / sizeof(double) - 37}};
  Arena reused = Arena::CreateForOverwrite(specs);
  ASSERT_EQ(reused.payload(), block);
  EXPECT_TRUE(PadBytesAreZero(reused));
  EXPECT_EQ(reused.F64(0)[0], -1.0);  // elements are the caller's to write
  EXPECT_EQ(reused.F64(2).back(), -1.0);

  reused = Arena();
  const Arena zeroed = Arena::Create(specs);
  ASSERT_EQ(zeroed.payload(), block);
  EXPECT_TRUE(PadBytesAreZero(zeroed));
  for (size_t i = 0; i < zeroed.num_columns(); ++i) {
    EXPECT_TRUE(std::ranges::all_of(zeroed.F64(i), [](double v) { return v == 0.0; }));
  }
}

TEST(ArenaParking, AGrownColumnFitsTheSpareOfItsRetiredBlock) {
  Arena column = Arena::CreateForOverwrite(ColumnOf(4 * kMiB));
  const uint8_t* block = column.payload();
  column = Arena();
  const Arena grown = Arena::CreateForOverwrite(ColumnOf(4 * kMiB + 300 * 1024));
  EXPECT_EQ(grown.payload(), block);
}

TEST(ArenaParking, ABlockALiveCopyHoldsIsNeverHandedOut) {
  Arena column = Arena::Create(ColumnOf(2 * kMiB));
  std::iota(column.MutableF64(0).begin(), column.MutableF64(0).end(), 1.0);
  const Arena copy = column;
  const size_t parked = memory::ParkedBlockCount();
  column = Arena();  // the copy still owns the block
  EXPECT_EQ(memory::ParkedBlockCount(), parked);

  Arena other = Arena::CreateForOverwrite(ColumnOf(2 * kMiB));
  EXPECT_NE(other.payload(), copy.payload());
  std::fill(other.MutableF64(0).begin(), other.MutableF64(0).end(), 7.0);
  EXPECT_EQ(copy.F64(0)[0], 1.0);
  EXPECT_EQ(copy.F64(0).back(), static_cast<double>(copy.F64(0).size()));
}

TEST(ArenaParking, TooSmallBlocksAreFreedBeforeALargerOneIsAllocated) {
  Arena a = Arena::CreateForOverwrite(ColumnOf(kMiB + kMiB / 2));
  Arena b = Arena::CreateForOverwrite(ColumnOf(2 * kMiB));
  a = Arena();
  b = Arena();
  EXPECT_EQ(memory::ParkedBlockCount(), 2u);  // the spot's two slots

  Arena c = Arena::CreateForOverwrite(ColumnOf(8 * kMiB));
  EXPECT_EQ(memory::ParkedBlockCount(), 0u);  // neither fits 8 MiB
  c = Arena();
  EXPECT_EQ(memory::ParkedBlockCount(), 1u);
}

TEST(ArenaParking, BlocksUnderHalfAMiBAreNeverParked) {
  // A block larger than anything parked empties the spot.
  const Arena drain = Arena::CreateForOverwrite(ColumnOf(64 * kMiB));
  ASSERT_EQ(memory::ParkedBlockCount(), 0u);
  Arena small = Arena::Create(ColumnOf(kMiB / 2 - kColumnAlignment));
  small = Arena();
  EXPECT_EQ(memory::ParkedBlockCount(), 0u);
  Arena half_mib = Arena::Create(ColumnOf(kMiB / 2));
  half_mib = Arena();
  EXPECT_EQ(memory::ParkedBlockCount(), 1u);
}

#if defined(__SANITIZE_ADDRESS__)
TEST(ArenaParkingDeathTest, AParkedBlockIsPoisonedUnderAsan) {
  Arena column = Arena::Create(ColumnOf(2 * kMiB));
  const volatile double* stale = column.F64(0).data();
  column = Arena();  // parked, not freed
  EXPECT_DEATH((void)stale[0], "use-after-poison");
}
#endif

// ------------------------------------------------------ chunk + crc + file

TEST(ChunkRef, ViewsPayloadZeroCopyAndValidatesCrc) {
  io::VectorSink artifact;
  const std::vector<uint8_t> payload = {10, 20, 30, 40, 50};
  ASSERT_TRUE(io::WriteChunk(artifact, 0x41424344, payload).ok());

  io::SpanSource source(artifact.bytes());
  auto chunk = io::ReadChunkRef(source);
  ASSERT_TRUE(chunk.ok());
  EXPECT_EQ(chunk->tag, 0x41424344u);
  ASSERT_EQ(chunk->payload.size(), payload.size());
  EXPECT_TRUE(chunk->owned.empty());  // zero-copy: views the artifact buffer
  EXPECT_GE(chunk->payload.data(), artifact.bytes().data());
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                         chunk->payload.begin()));

  // Any flipped payload bit must fail the CRC.
  std::vector<uint8_t> corrupt(artifact.bytes().begin(),
                               artifact.bytes().end());
  corrupt[4 + 8 + 2] ^= 0x01;
  io::SpanSource corrupt_source(corrupt);
  EXPECT_FALSE(io::ReadChunkRef(corrupt_source).ok());
}

TEST(Crc32, SlicedImplementationMatchesBytewiseDefinition) {
  std::vector<uint8_t> bytes(4099);
  uint32_t state = 0x12345678;
  for (uint8_t& b : bytes) {
    state = state * 1664525u + 1013904223u;
    b = static_cast<uint8_t>(state >> 24);
  }
  for (size_t len : {0u, 1u, 7u, 8u, 9u, 63u, 64u, 4099u}) {
    std::span<const uint8_t> view(bytes.data(), len);
    // Bytewise reference straight from the CRC-32 definition.
    uint32_t crc = 0xFFFFFFFFu;
    for (uint8_t byte : view) {
      crc ^= byte;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
      }
    }
    EXPECT_EQ(io::Crc32(view), crc ^ 0xFFFFFFFFu) << "len=" << len;
  }
}

TEST(FileSource, ReadsAndViewsTheWholeFile) {
  const std::string path = "wde_memory_test_source.bin";
  std::vector<uint8_t> bytes(1000);
  for (size_t i = 0; i < bytes.size(); ++i) bytes[i] = static_cast<uint8_t>(i);
  {
    auto sink = io::FileSink::Open(path);
    ASSERT_TRUE(sink.ok());
    ASSERT_TRUE(sink->Append(bytes.data(), bytes.size()).ok());
    ASSERT_TRUE(sink->Close().ok());
  }

  auto source = io::FileSource::Open(path);
  ASSERT_TRUE(source.ok());
  EXPECT_EQ(source->remaining(), bytes.size());

  uint8_t first[10];
  ASSERT_TRUE(source->Read(first, sizeof first).ok());
  EXPECT_TRUE(std::equal(first, first + sizeof first, bytes.begin()));

  // Views point into the source's own buffer, which moves with the source.
  const uint8_t* view = source->View(100);
  ASSERT_NE(view, nullptr);
  io::FileSource moved = std::move(source).value();
  EXPECT_EQ(view[89], bytes[99]);
  EXPECT_EQ(moved.remaining(), bytes.size() - 110);
  EXPECT_EQ(moved.View(bytes.size()), nullptr);  // past the end: no view

  EXPECT_FALSE(io::FileSource::Open("does_not_exist.bin").ok());
  std::remove(path.c_str());
}

TEST(WriteFileAtomically, ReplacesOnSuccessAndKeepsThePreviousFileOnFailure) {
  const std::string path = "wde_memory_test_atomic.bin";
  const auto write_bytes = [](std::vector<uint8_t> bytes) {
    return [bytes](io::Sink& sink) { return sink.Append(bytes.data(), bytes.size()); };
  };
  const auto read_all = [&path]() {
    auto source = io::FileSource::Open(path);
    std::vector<uint8_t> bytes(source.ok() ? source->remaining() : 0);
    if (source.ok()) WDE_CHECK_OK(source->Read(bytes.data(), bytes.size()));
    return bytes;
  };
  ASSERT_TRUE(io::WriteFileAtomically(path, write_bytes({1, 2, 3})).ok());
  EXPECT_EQ(read_all(), (std::vector<uint8_t>{1, 2, 3}));
  ASSERT_TRUE(io::WriteFileAtomically(path, write_bytes({4, 5})).ok());
  EXPECT_EQ(read_all(), (std::vector<uint8_t>{4, 5}));

  // A writer that fails midway leaves the previous file and no temporary.
  const Status failed = io::WriteFileAtomically(path, [](io::Sink& sink) {
    WDE_RETURN_IF_ERROR(sink.Append("xyz", 3));
    return Status::Internal("disk full");
  });
  EXPECT_EQ(failed.code(), StatusCode::kInternal);
  EXPECT_EQ(read_all(), (std::vector<uint8_t>{4, 5}));
  EXPECT_FALSE(io::FileSource::Open(path + ".tmp").ok());

  // An unwritable destination directory fails cleanly.
  EXPECT_FALSE(io::WriteFileAtomically("no_such_dir/x.bin", write_bytes({1})).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace wde
