/// \file io/serialize.hpp
/// Entry header of the `io` module: byte sinks/sources and the
/// endianness-explicit primitive encoding every snapshot in the library is
/// built from. Invariants: all multi-byte values are little-endian on the
/// wire regardless of the host (doubles travel as their IEEE-754 bit
/// pattern, so round trips are bit-exact, including ±0.0, ±inf and NaN
/// payloads); decoding NEVER aborts or reads out of bounds — every read is
/// bounds-checked against `Source::remaining()` and returns a non-OK
/// `Status`/`Result` on truncated input, so hostile bytes degrade into
/// errors, not UB. Length-prefixed reads validate the prefix against the
/// remaining byte count *before* allocating, so a corrupt length cannot
/// trigger an OOM. Chunk framing and the snapshot header live in io/chunk.hpp.
#ifndef WDE_IO_SERIALIZE_HPP_
#define WDE_IO_SERIALIZE_HPP_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.hpp"

namespace wde {
namespace io {

/// Destination of serialized bytes. Implementations report failures through
/// Status (the library never throws).
class Sink {
 public:
  virtual ~Sink() = default;

  /// Appends `size` bytes. Either all bytes are accepted or a non-OK status
  /// is returned.
  virtual Status Append(const void* data, size_t size) = 0;
};

/// Sink into an owned, growable byte buffer. Append never fails.
class VectorSink final : public Sink {
 public:
  Status Append(const void* data, size_t size) override;

  std::span<const uint8_t> bytes() const { return buffer_; }
  std::vector<uint8_t> TakeBytes() { return std::move(buffer_); }

 private:
  std::vector<uint8_t> buffer_;
};

/// Sink into a file (created/truncated at Open). Close() flushes and reports
/// write-back errors; the destructor closes silently.
class FileSink final : public Sink {
 public:
  static Result<FileSink> Open(const std::string& path);

  FileSink(FileSink&& other) noexcept : file_(other.file_) { other.file_ = nullptr; }
  FileSink& operator=(FileSink&& other) noexcept;
  FileSink(const FileSink&) = delete;
  FileSink& operator=(const FileSink&) = delete;
  ~FileSink();

  Status Append(const void* data, size_t size) override;
  Status Close();

 private:
  explicit FileSink(std::FILE* file) : file_(file) {}

  std::FILE* file_ = nullptr;
};

/// Origin of serialized bytes with a known end: `remaining()` lets decoders
/// validate length prefixes before allocating.
class Source {
 public:
  virtual ~Source() = default;

  /// Bytes left to read.
  virtual size_t remaining() const = 0;

  /// Reads exactly `size` bytes into `out`, or returns OutOfRange on
  /// truncated input without consuming anything.
  virtual Status Read(void* out, size_t size) = 0;

  /// Zero-copy variant of Read for memory-backed sources: returns a pointer
  /// to the next `size` bytes and consumes them, or nullptr when the source
  /// cannot vend stable views (streaming source, or fewer than `size` bytes
  /// remain — the caller falls back to Read, which reports the truncation).
  /// The pointer stays valid as long as the underlying buffer.
  virtual const uint8_t* View(size_t size) {
    (void)size;
    return nullptr;
  }
};

/// Source over caller-owned bytes (e.g. a VectorSink buffer or one chunk's
/// payload). Does not copy; the span must outlive the source.
class SpanSource final : public Source {
 public:
  explicit SpanSource(std::span<const uint8_t> bytes) : bytes_(bytes) {}

  size_t remaining() const override { return bytes_.size() - offset_; }
  Status Read(void* out, size_t size) override;
  const uint8_t* View(size_t size) override;

 private:
  std::span<const uint8_t> bytes_;
  size_t offset_ = 0;
};

/// Source over a whole file, loaded into memory at Open() (snapshots are
/// bounded artifacts; loading up front gives every decoder an exact
/// remaining() to validate hostile length prefixes against). Views point
/// into the source's own buffer and live as long as the source.
class FileSource final : public Source {
 public:
  static Result<FileSource> Open(const std::string& path);

  size_t remaining() const override { return bytes_.size() - offset_; }
  Status Read(void* out, size_t size) override;
  const uint8_t* View(size_t size) override;

 private:
  explicit FileSource(std::vector<uint8_t> bytes) : bytes_(std::move(bytes)) {}

  std::vector<uint8_t> bytes_;
  size_t offset_ = 0;
};

/// Writes a file through `write` crash-safely: the bytes go to
/// `path` + ".tmp", which is renamed over `path` only after every write and
/// the close succeeded. A kill or a full disk midway leaves the previous
/// file at `path` intact (checkpoint loops overwrite the same path); on any
/// error the temporary file is removed. No fsync: the guarantee covers a
/// killed process, not a power loss.
Status WriteFileAtomically(const std::string& path,
                           const std::function<Status(Sink&)>& write);

// ------------------------------------------------------------- primitives
//
// Fixed-width little-endian encodings. Writers only fail when the sink
// fails; readers fail on truncation (and on a length prefix exceeding the
// source's remaining bytes).

Status WriteU8(Sink& sink, uint8_t value);
Status WriteU32(Sink& sink, uint32_t value);
Status WriteU64(Sink& sink, uint64_t value);
/// Two's-complement via uint32_t.
Status WriteI32(Sink& sink, int32_t value);
/// IEEE-754 bit pattern via uint64_t; round trips are bit-exact.
Status WriteDouble(Sink& sink, double value);
/// u32 byte length + raw bytes.
Status WriteString(Sink& sink, std::string_view value);
/// u64 element count + per-element doubles.
Status WriteDoubleVector(Sink& sink, std::span<const double> values);
/// The per-element doubles alone (no count): lets a writer emit one
/// WriteDoubleVector-compatible vector from several spans.
Status WriteDoubles(Sink& sink, std::span<const double> values);

Result<uint8_t> ReadU8(Source& source);
Result<uint32_t> ReadU32(Source& source);
Result<uint64_t> ReadU64(Source& source);
Result<int32_t> ReadI32(Source& source);
Result<double> ReadDouble(Source& source);
/// Rejects lengths beyond the remaining bytes or `max_size`.
Result<std::string> ReadString(Source& source, size_t max_size = 1 << 20);
Result<std::vector<double>> ReadDoubleVector(Source& source);

}  // namespace io
}  // namespace wde

#endif  // WDE_IO_SERIALIZE_HPP_
