/// \file io/chunk.hpp
/// Chunk framing for the versioned snapshot wire format. A snapshot is
///
///   magic "WDESNAP1" (8 bytes) · u32 format_version · chunk*
///
/// and every chunk is
///
///   u32 tag · u64 payload_size · payload bytes · u32 crc32(payload)
///
/// (all integers little-endian; CRC-32 is the IEEE/zlib polynomial). The
/// reader validates the magic, rejects every version but its own,
/// bounds-checks every payload size against the bytes actually present, and
/// verifies the CRC *before* any payload byte is parsed — so truncation and
/// bit flips surface as Status errors, never as UB in a decoder. Chunks nest
/// naturally: a payload may itself contain chunks (the sharded estimator's
/// state embeds one framed envelope per shard).
#ifndef WDE_IO_CHUNK_HPP_
#define WDE_IO_CHUNK_HPP_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "io/serialize.hpp"
#include "util/result.hpp"

namespace wde {
namespace io {

/// CRC-32 (IEEE 802.3 / zlib polynomial, reflected, table-driven).
uint32_t Crc32(std::span<const uint8_t> bytes);

/// Continues a CRC-32 over more bytes: Crc32Update(Crc32(a), b) equals the
/// Crc32 of a followed by b, and Crc32Update(0, b) equals Crc32(b).
uint32_t Crc32Update(uint32_t crc, std::span<const uint8_t> bytes);

/// The snapshot format version this build writes and the only one it reads.
/// Policy: one version at a time. A reader rejects every other version with
/// a descriptive error — never silent misparsing — and a format change bumps
/// the number instead of adding a compatibility branch.
/// v5: every estimator envelope is TYPE · DIMS (u32 dimensionality, 1-D
/// included) · STAT (the estimator's portable io-primitive state).
/// Versions 1–4 were only ever written by this repository's own tests; see
/// docs/ARCHITECTURE.md "Version policy".
inline constexpr uint32_t kSnapshotFormatVersion = 5;

/// Writes the 12-byte snapshot header (magic + format version).
Status WriteSnapshotHeader(Sink& sink);

/// Validates the magic and version; returns the version on success.
Result<uint32_t> ReadSnapshotHeader(Source& source);

/// One framed chunk, CRC-validated at read time.
struct Chunk {
  uint32_t tag = 0;
  std::vector<uint8_t> payload;
};

/// Writes one chunk whose payload `write` produces, without buffering it:
/// a first pass runs `write` into a byte counter to learn the payload size,
/// a second streams the same bytes into `sink` and takes the CRC on the way.
/// `write` must be deterministic; if the second pass writes more or fewer
/// bytes than the first, the call fails with Internal (and
/// WriteFileAtomically then keeps the previous file). Written into a
/// counting pass of an enclosing chunk, a nested chunk only adds its size,
/// so a payload at nesting depth d is serialized d + 1 times.
Status WriteChunkStreamed(Sink& sink, uint32_t tag,
                          const std::function<Status(Sink&)>& write);

/// WriteChunkStreamed over a payload already in memory.
Status WriteChunk(Sink& sink, uint32_t tag, std::span<const uint8_t> payload);

/// Reads the next chunk: bounds-checks the payload size against
/// source.remaining() before allocating and verifies the CRC before
/// returning.
Result<Chunk> ReadChunk(Source& source);

/// Skips the next chunk of a memory-backed source (Source::View): reads its
/// tag and size with ReadChunk's bounds checks, then passes over the payload
/// and CRC trailer WITHOUT verifying the CRC. For a framing-only walk —
/// finding where a run of chunks ends — ahead of a pass that reads the same
/// chunks with CRC verification.
Status SkipChunk(Source& source);

/// Reads the next chunk and requires its tag; returns the payload.
Result<std::vector<uint8_t>> ReadChunkExpecting(Source& source, uint32_t tag);

/// One framed chunk whose payload is a *view* when the source supports
/// zero-copy (Source::View) and an owned copy otherwise. Either way the CRC
/// is verified before the payload is handed out. A viewed payload lives as
/// long as the source's buffer; an owned payload moves with the struct
/// (`payload` tracks `owned`'s heap buffer).
struct ChunkRef {
  uint32_t tag = 0;
  std::span<const uint8_t> payload;
  std::vector<uint8_t> owned;
};

/// Zero-copy counterpart of ReadChunk: identical validation, but avoids the
/// payload copy for memory-backed sources, so restoring a large estimator
/// never holds its state payload twice.
Result<ChunkRef> ReadChunkRef(Source& source);

}  // namespace io
}  // namespace wde

#endif  // WDE_IO_CHUNK_HPP_
