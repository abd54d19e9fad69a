#include "io/serialize.hpp"

#include <bit>
#include <cstdio>
#include <cstring>

#include "util/string_util.hpp"

namespace wde {
namespace io {

namespace {

/// Encodes `value` as `Bytes` little-endian bytes, independent of host order.
template <size_t Bytes, typename T>
Status WriteLittleEndian(Sink& sink, T value) {
  uint8_t bytes[Bytes];
  for (size_t i = 0; i < Bytes; ++i) {
    bytes[i] = static_cast<uint8_t>((value >> (8 * i)) & 0xFF);
  }
  return sink.Append(bytes, Bytes);
}

template <size_t Bytes, typename T>
Result<T> ReadLittleEndian(Source& source) {
  uint8_t bytes[Bytes];
  WDE_RETURN_IF_ERROR(source.Read(bytes, Bytes));
  T value = 0;
  for (size_t i = 0; i < Bytes; ++i) {
    value |= static_cast<T>(bytes[i]) << (8 * i);
  }
  return value;
}

}  // namespace

Status VectorSink::Append(const void* data, size_t size) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  buffer_.insert(buffer_.end(), bytes, bytes + size);
  return Status::OK();
}

Result<FileSink> FileSink::Open(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::NotFound(Format("cannot open '%s' for writing", path.c_str()));
  }
  return FileSink(file);
}

FileSink& FileSink::operator=(FileSink&& other) noexcept {
  if (this != &other) {
    if (file_ != nullptr) std::fclose(file_);
    file_ = other.file_;
    other.file_ = nullptr;
  }
  return *this;
}

FileSink::~FileSink() {
  if (file_ != nullptr) std::fclose(file_);
}

Status FileSink::Append(const void* data, size_t size) {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("FileSink is closed");
  }
  if (size != 0 && std::fwrite(data, 1, size, file_) != size) {
    return Status::Internal("short write to snapshot file");
  }
  return Status::OK();
}

Status FileSink::Close() {
  if (file_ == nullptr) return Status::OK();
  const int rc = std::fclose(file_);
  file_ = nullptr;
  if (rc != 0) return Status::Internal("error flushing snapshot file on close");
  return Status::OK();
}

Status SpanSource::Read(void* out, size_t size) {
  if (size > remaining()) {
    return Status::OutOfRange(
        Format("truncated input: need %zu bytes, have %zu", size, remaining()));
  }
  if (size != 0) std::memcpy(out, bytes_.data() + offset_, size);
  offset_ += size;
  return Status::OK();
}

const uint8_t* SpanSource::View(size_t size) {
  if (size > remaining()) return nullptr;
  const uint8_t* view = bytes_.data() + offset_;
  offset_ += size;
  return view;
}

Result<FileSource> FileSource::Open(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::NotFound(Format("cannot open '%s' for reading", path.c_str()));
  }
  std::vector<uint8_t> buffer;
  uint8_t block[1 << 16];
  size_t got;
  while ((got = std::fread(block, 1, sizeof(block), file)) > 0) {
    buffer.insert(buffer.end(), block, block + got);
  }
  const bool failed = std::ferror(file) != 0;
  std::fclose(file);
  if (failed) {
    return Status::Internal(Format("error reading '%s'", path.c_str()));
  }
  return FileSource(std::move(buffer));
}

Status FileSource::Read(void* out, size_t size) {
  if (size > remaining()) {
    return Status::OutOfRange(
        Format("truncated input: need %zu bytes, have %zu", size, remaining()));
  }
  if (size != 0) std::memcpy(out, bytes_.data() + offset_, size);
  offset_ += size;
  return Status::OK();
}

const uint8_t* FileSource::View(size_t size) {
  if (size > remaining()) return nullptr;
  const uint8_t* view = bytes_.data() + offset_;
  offset_ += size;
  return view;
}

Status WriteFileAtomically(const std::string& path,
                           const std::function<Status(Sink&)>& write) {
  const std::string tmp_path = path + ".tmp";
  Result<FileSink> sink = FileSink::Open(tmp_path);
  if (!sink.ok()) return sink.status();
  Status written = write(*sink);
  if (written.ok()) written = sink->Close();
  if (!written.ok()) {
    std::remove(tmp_path.c_str());
    return written;
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::Internal("cannot move finished file over '" + path + "'");
  }
  return Status::OK();
}

Status WriteU8(Sink& sink, uint8_t value) { return sink.Append(&value, 1); }

Status WriteU32(Sink& sink, uint32_t value) {
  return WriteLittleEndian<4>(sink, value);
}

Status WriteU64(Sink& sink, uint64_t value) {
  return WriteLittleEndian<8>(sink, value);
}

Status WriteI32(Sink& sink, int32_t value) {
  return WriteU32(sink, static_cast<uint32_t>(value));
}

Status WriteDouble(Sink& sink, double value) {
  return WriteU64(sink, std::bit_cast<uint64_t>(value));
}

Status WriteString(Sink& sink, std::string_view value) {
  if (value.size() > UINT32_MAX) {
    return Status::InvalidArgument("string too long to serialize");
  }
  WDE_RETURN_IF_ERROR(WriteU32(sink, static_cast<uint32_t>(value.size())));
  return sink.Append(value.data(), value.size());
}

Status WriteDoubleVector(Sink& sink, std::span<const double> values) {
  WDE_RETURN_IF_ERROR(WriteU64(sink, values.size()));
  return WriteDoubles(sink, values);
}

Status WriteDoubles(Sink& sink, std::span<const double> values) {
  if constexpr (std::endian::native == std::endian::little) {
    // The wire format *is* the host representation: one bulk append.
    return sink.Append(values.data(), values.size() * sizeof(double));
  } else {
    for (double v : values) WDE_RETURN_IF_ERROR(WriteDouble(sink, v));
    return Status::OK();
  }
}

Result<uint8_t> ReadU8(Source& source) {
  uint8_t value;
  WDE_RETURN_IF_ERROR(source.Read(&value, 1));
  return value;
}

Result<uint32_t> ReadU32(Source& source) {
  return ReadLittleEndian<4, uint32_t>(source);
}

Result<uint64_t> ReadU64(Source& source) {
  return ReadLittleEndian<8, uint64_t>(source);
}

Result<int32_t> ReadI32(Source& source) {
  WDE_ASSIGN_OR_RETURN(const uint32_t raw, ReadU32(source));
  return static_cast<int32_t>(raw);
}

Result<double> ReadDouble(Source& source) {
  WDE_ASSIGN_OR_RETURN(const uint64_t raw, ReadU64(source));
  return std::bit_cast<double>(raw);
}

Result<std::string> ReadString(Source& source, size_t max_size) {
  WDE_ASSIGN_OR_RETURN(const uint32_t size, ReadU32(source));
  if (size > source.remaining()) {
    return Status::OutOfRange(
        Format("corrupt string length %u exceeds remaining %zu bytes",
               static_cast<unsigned>(size), source.remaining()));
  }
  if (size > max_size) {
    return Status::OutOfRange(Format("string length %u exceeds limit %zu",
                                     static_cast<unsigned>(size), max_size));
  }
  std::string value(size, '\0');
  WDE_RETURN_IF_ERROR(source.Read(value.data(), size));
  return value;
}

Result<std::vector<double>> ReadDoubleVector(Source& source) {
  WDE_ASSIGN_OR_RETURN(const uint64_t count, ReadU64(source));
  if (count > source.remaining() / sizeof(double)) {
    return Status::OutOfRange(
        Format("corrupt vector length %llu exceeds remaining %zu bytes",
               static_cast<unsigned long long>(count), source.remaining()));
  }
  std::vector<double> values(static_cast<size_t>(count));
  if constexpr (std::endian::native == std::endian::little) {
    WDE_RETURN_IF_ERROR(
        source.Read(values.data(), values.size() * sizeof(double)));
  } else {
    for (double& v : values) {
      WDE_ASSIGN_OR_RETURN(v, ReadDouble(source));
    }
  }
  return values;
}

}  // namespace io
}  // namespace wde
