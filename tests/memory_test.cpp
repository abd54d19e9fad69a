// Tier-1 tests for the memory module's arenas and the io byte plumbing
// under them: canonical column layout, 64-byte alignment of every column,
// zero-initialization, copy-on-write sharing and first-mutation divergence,
// bitwise relocation, zero-copy chunk reads, the slicing-by-8 CRC's
// equivalence to the bytewise definition, the whole-file FileSource, and the
// write-then-rename file helper. Run under ASan in CI.
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
                              {ColumnKind::kU8, 1},
                              {ColumnKind::kI64, 10}};
  uint64_t total = 0;
  auto columns = memory::ComputeColumnLayout(specs, &total);
  ASSERT_TRUE(columns.ok());
  ASSERT_EQ(columns->size(), 3u);
  EXPECT_EQ((*columns)[0].offset, 0u);
  EXPECT_EQ((*columns)[1].offset, 64u);   // 24 bytes rounded up
  EXPECT_EQ((*columns)[2].offset, 128u);  // 65 bytes rounded up
  EXPECT_EQ(total, 128u + 80u);           // unpadded end of the last column
}

TEST(ColumnLayout, EmptyAndZeroCountColumns) {
  uint64_t total = 1;
  auto none = memory::ComputeColumnLayout({}, &total);
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(total, 0u);

  const ColumnSpec specs[] = {{ColumnKind::kF64, 0}, {ColumnKind::kU8, 5}};
  auto columns = memory::ComputeColumnLayout(specs, &total);
  ASSERT_TRUE(columns.ok());
  EXPECT_EQ((*columns)[0].offset, 0u);
  EXPECT_EQ((*columns)[1].offset, 0u);  // empty column consumes no space
  EXPECT_EQ(total, 5u);
}

TEST(ColumnLayout, RejectsOverflowingCounts) {
  const ColumnSpec specs[] = {{ColumnKind::kF64, UINT64_MAX / 4}};
  uint64_t total = 0;
  EXPECT_FALSE(memory::ComputeColumnLayout(specs, &total).ok());
}

TEST(Arena, CreateAlignsAndZeroInitializes) {
  const ColumnSpec specs[] = {{ColumnKind::kF64, 7},
                              {ColumnKind::kI64, 3},
                              {ColumnKind::kU8, 100}};
  Arena arena = Arena::Create(specs);
  EXPECT_TRUE(Aligned(arena.payload()));
  EXPECT_TRUE(Aligned(arena.F64(0).data()));
  EXPECT_TRUE(Aligned(arena.I64(1).data()));
  EXPECT_TRUE(Aligned(arena.U8(2).data()));
  for (double v : arena.F64(0)) EXPECT_EQ(v, 0.0);
  for (int64_t v : arena.I64(1)) EXPECT_EQ(v, 0);
  for (uint8_t v : arena.U8(2)) EXPECT_EQ(v, 0);
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
  const ColumnSpec specs[] = {{ColumnKind::kU8, 16}};
  Arena arena = Arena::Create(specs);
  const uint8_t* before = arena.payload();
  arena.EnsureWritable();
  arena.MutableU8(0)[0] = 42;
  EXPECT_EQ(arena.payload(), before);
}

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
