#include "io/chunk.hpp"

#include <array>
#include <bit>
#include <cstring>

#include "util/string_util.hpp"

namespace wde {
namespace io {

namespace {

constexpr std::array<uint8_t, 8> kMagic = {'W', 'D', 'E', 'S', 'N', 'A', 'P', '1'};

/// Slicing-by-16 tables: table[0] is the classic bytewise table, table[k]
/// advances a byte through k additional zero bytes. Produces bit-identical
/// CRCs to the bytewise loop while processing 16 input bytes per iteration
/// (16 KB of tables, resident in L1) — the CRC is taken over every
/// multi-megabyte state chunk a checkpoint writes or a restore reads.
using CrcTables = std::array<std::array<uint32_t, 256>, 16>;

CrcTables MakeCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

uint32_t LoadU32(const uint8_t* bytes) {
  uint32_t word;
  std::memcpy(&word, bytes, 4);
  return word;
}

/// The counting pass: adds up the bytes a payload writer appends.
class CountingSink final : public Sink {
 public:
  Status Append(const void* data, size_t size) override {
    (void)data;
    bytes_ += size;
    return Status::OK();
  }
  uint64_t bytes() const { return bytes_; }

 private:
  uint64_t bytes_ = 0;
};

/// The streaming pass: forwards to `out`, takes the CRC of every byte, and
/// refuses to write past the size the counting pass announced.
class CrcSink final : public Sink {
 public:
  CrcSink(Sink& out, uint64_t expected) : out_(out), left_(expected) {}

  Status Append(const void* data, size_t size) override {
    if (size > left_) {
      return Status::Internal("chunk payload writer is not deterministic: "
                              "it wrote more bytes than its counting pass");
    }
    left_ -= size;
    crc_ = Crc32Update(crc_, {static_cast<const uint8_t*>(data), size});
    return out_.Append(data, size);
  }
  uint64_t left() const { return left_; }
  uint32_t crc() const { return crc_; }

 private:
  Sink& out_;
  uint64_t left_;
  uint32_t crc_ = 0;
};

}  // namespace

uint32_t Crc32Update(uint32_t crc, std::span<const uint8_t> bytes) {
  static const CrcTables t = MakeCrcTables();
  crc = ~crc;
  size_t i = 0;
  if constexpr (std::endian::native == std::endian::little) {
    for (; i + 16 <= bytes.size(); i += 16) {
      const uint8_t* p = bytes.data() + i;
      const uint32_t w0 = LoadU32(p) ^ crc;
      const uint32_t w1 = LoadU32(p + 4);
      const uint32_t w2 = LoadU32(p + 8);
      const uint32_t w3 = LoadU32(p + 12);
      crc = t[15][w0 & 0xFFu] ^ t[14][(w0 >> 8) & 0xFFu] ^
            t[13][(w0 >> 16) & 0xFFu] ^ t[12][w0 >> 24] ^
            t[11][w1 & 0xFFu] ^ t[10][(w1 >> 8) & 0xFFu] ^
            t[9][(w1 >> 16) & 0xFFu] ^ t[8][w1 >> 24] ^
            t[7][w2 & 0xFFu] ^ t[6][(w2 >> 8) & 0xFFu] ^
            t[5][(w2 >> 16) & 0xFFu] ^ t[4][w2 >> 24] ^
            t[3][w3 & 0xFFu] ^ t[2][(w3 >> 8) & 0xFFu] ^
            t[1][(w3 >> 16) & 0xFFu] ^ t[0][w3 >> 24];
    }
  }
  for (; i < bytes.size(); ++i) {
    crc = (crc >> 8) ^ t[0][(crc ^ bytes[i]) & 0xFFu];
  }
  return ~crc;
}

uint32_t Crc32(std::span<const uint8_t> bytes) { return Crc32Update(0, bytes); }

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

Status WriteChunkStreamed(Sink& sink, uint32_t tag,
                          const std::function<Status(Sink&)>& write) {
  if (auto* counter = dynamic_cast<CountingSink*>(&sink)) {
    // The counting pass of an enclosing chunk needs only this chunk's size:
    // the framing (tag, size, CRC) plus the payload, counted once.
    WDE_RETURN_IF_ERROR(counter->Append(nullptr, 4 + 8 + 4));
    return write(*counter);
  }
  CountingSink counted;
  WDE_RETURN_IF_ERROR(write(counted));
  WDE_RETURN_IF_ERROR(WriteU32(sink, tag));
  WDE_RETURN_IF_ERROR(WriteU64(sink, counted.bytes()));
  CrcSink payload(sink, counted.bytes());
  WDE_RETURN_IF_ERROR(write(payload));
  if (payload.left() != 0) {
    return Status::Internal("chunk payload writer is not deterministic: "
                            "it wrote fewer bytes than its counting pass");
  }
  return WriteU32(sink, payload.crc());
}

Status WriteChunk(Sink& sink, uint32_t tag, std::span<const uint8_t> payload) {
  return WriteChunkStreamed(sink, tag, [payload](Sink& out) {
    return out.Append(payload.data(), payload.size());
  });
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
