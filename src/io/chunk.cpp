#include "io/chunk.hpp"

#include <array>
#include <bit>
#include <cstring>

#include "util/string_util.hpp"

namespace wde {
namespace io {

namespace {

constexpr std::array<uint8_t, 8> kMagic = {'W', 'D', 'E', 'S', 'N', 'A', 'P', '1'};

/// Slicing-by-8 tables: table[0] is the classic bytewise table, table[k]
/// advances a byte through k additional zero bytes. Produces bit-identical
/// CRCs to the bytewise loop while processing 8 input bytes per iteration —
/// keeps CRC validation of multi-megabyte state chunks off the restore
/// critical path.
std::array<std::array<uint32_t, 256>, 8> MakeCrcTables() {
  std::array<std::array<uint32_t, 256>, 8> tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

}  // namespace

uint32_t Crc32(std::span<const uint8_t> bytes) {
  static const std::array<std::array<uint32_t, 256>, 8> tables = MakeCrcTables();
  uint32_t crc = 0xFFFFFFFFu;
  size_t i = 0;
  if constexpr (std::endian::native == std::endian::little) {
    for (; i + 8 <= bytes.size(); i += 8) {
      uint32_t lo;
      uint32_t hi;
      std::memcpy(&lo, bytes.data() + i, 4);
      std::memcpy(&hi, bytes.data() + i + 4, 4);
      lo ^= crc;
      crc = tables[7][lo & 0xFFu] ^ tables[6][(lo >> 8) & 0xFFu] ^
            tables[5][(lo >> 16) & 0xFFu] ^ tables[4][lo >> 24] ^
            tables[3][hi & 0xFFu] ^ tables[2][(hi >> 8) & 0xFFu] ^
            tables[1][(hi >> 16) & 0xFFu] ^ tables[0][hi >> 24];
    }
  }
  for (; i < bytes.size(); ++i) {
    crc = (crc >> 8) ^ tables[0][(crc ^ bytes[i]) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

Status WriteSnapshotHeader(Sink& sink) {
  WDE_RETURN_IF_ERROR(sink.Append(kMagic.data(), kMagic.size()));
  return WriteU32(sink, kSnapshotFormatVersion);
}

Result<uint32_t> ReadSnapshotHeader(Source& source) {
  std::array<uint8_t, 8> magic{};
  WDE_RETURN_IF_ERROR(source.Read(magic.data(), magic.size()));
  if (magic != kMagic) {
    return Status::InvalidArgument("not a WDE snapshot (bad magic)");
  }
  WDE_ASSIGN_OR_RETURN(const uint32_t version, ReadU32(source));
  if (version != kSnapshotFormatVersion) {
    return Status::InvalidArgument(
        Format("unsupported snapshot format version %u (this build reads %u)",
               static_cast<unsigned>(version),
               static_cast<unsigned>(kSnapshotFormatVersion)));
  }
  return version;
}

Status WriteChunk(Sink& sink, uint32_t tag, std::span<const uint8_t> payload) {
  WDE_RETURN_IF_ERROR(WriteU32(sink, tag));
  WDE_RETURN_IF_ERROR(WriteU64(sink, payload.size()));
  WDE_RETURN_IF_ERROR(sink.Append(payload.data(), payload.size()));
  return WriteU32(sink, Crc32(payload));
}

namespace {

struct ChunkHeader {
  uint32_t tag = 0;
  size_t size = 0;
};

/// Reads a chunk's tag and payload size. The CRC trailer also still has to
/// fit: catches truncation and hostile sizes before any allocation.
Result<ChunkHeader> ReadChunkHeader(Source& source) {
  ChunkHeader header;
  WDE_ASSIGN_OR_RETURN(header.tag, ReadU32(source));
  WDE_ASSIGN_OR_RETURN(const uint64_t size, ReadU64(source));
  if (size > source.remaining() || source.remaining() - size < 4) {
    return Status::OutOfRange(
        Format("corrupt chunk size %llu exceeds remaining %zu bytes",
               static_cast<unsigned long long>(size), source.remaining()));
  }
  header.size = static_cast<size_t>(size);
  return header;
}

}  // namespace

Result<Chunk> ReadChunk(Source& source) {
  WDE_ASSIGN_OR_RETURN(ChunkRef ref, ReadChunkRef(source));
  if (ref.owned.empty()) ref.owned.assign(ref.payload.begin(), ref.payload.end());
  return Chunk{ref.tag, std::move(ref.owned)};
}

Result<ChunkRef> ReadChunkRef(Source& source) {
  WDE_ASSIGN_OR_RETURN(const ChunkHeader header, ReadChunkHeader(source));
  ChunkRef chunk;
  chunk.tag = header.tag;
  if (const uint8_t* view = source.View(header.size);
      view != nullptr || header.size == 0) {
    chunk.payload = {view, header.size};
  } else {
    chunk.owned.resize(header.size);
    WDE_RETURN_IF_ERROR(source.Read(chunk.owned.data(), chunk.owned.size()));
    chunk.payload = chunk.owned;
  }
  WDE_ASSIGN_OR_RETURN(const uint32_t crc, ReadU32(source));
  if (crc != Crc32(chunk.payload)) {
    return Status::InvalidArgument(
        Format("chunk 0x%08x failed CRC validation", chunk.tag));
  }
  return chunk;
}

Status SkipChunk(Source& source) {
  WDE_ASSIGN_OR_RETURN(const ChunkHeader header, ReadChunkHeader(source));
  // The header check guarantees the payload and trailer remain, so only a
  // source that vends no views can refuse.
  if (source.View(header.size + 4) == nullptr) {
    return Status::FailedPrecondition("SkipChunk needs a memory-backed source");
  }
  return Status::OK();
}

Result<std::vector<uint8_t>> ReadChunkExpecting(Source& source, uint32_t tag) {
  WDE_ASSIGN_OR_RETURN(Chunk chunk, ReadChunk(source));
  if (chunk.tag != tag) {
    return Status::InvalidArgument(Format("expected chunk 0x%08x, found 0x%08x",
                                          tag, chunk.tag));
  }
  return std::move(chunk.payload);
}

}  // namespace io
}  // namespace wde
