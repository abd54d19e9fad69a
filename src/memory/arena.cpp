#include "memory/arena.hpp"

#include <cstdlib>
#include <cstring>
#include <limits>

#include "util/check.hpp"

namespace wde {
namespace memory {

namespace {

uint64_t AlignUp(uint64_t value, uint64_t alignment) {
  return (value + alignment - 1) / alignment * alignment;
}

}  // namespace

size_t ColumnKindSize(ColumnKind kind) {
  WDE_CHECK(kind == ColumnKind::kF64, "invalid ColumnKind");
  return sizeof(double);
}

Result<std::vector<ColumnDesc>> ComputeColumnLayout(
    std::span<const ColumnSpec> specs, uint64_t* total_bytes) {
  std::vector<ColumnDesc> columns;
  columns.reserve(specs.size());
  uint64_t offset = 0;
  for (const ColumnSpec& spec : specs) {
    const uint64_t elem = ColumnKindSize(spec.kind);
    if (spec.count > std::numeric_limits<uint64_t>::max() / elem ||
        offset > std::numeric_limits<uint64_t>::max() - spec.count * elem) {
      return Status::InvalidArgument("column layout overflows");
    }
    columns.push_back(ColumnDesc{spec.kind, spec.count, offset});
    offset += spec.count * elem;
    // Next column starts at the next cache line; AlignUp cannot overflow
    // because the addend is < kColumnAlignment and offsets this close to
    // 2^64 were rejected above for any nonzero column.
    if (offset > std::numeric_limits<uint64_t>::max() - kColumnAlignment) {
      return Status::InvalidArgument("column layout overflows");
    }
    offset = AlignUp(offset, kColumnAlignment);
  }
  // Report the unpadded end of the last column: trailing pad carries no data.
  uint64_t total = 0;
  if (!columns.empty()) {
    const ColumnDesc& last = columns.back();
    total = last.offset + last.count * ColumnKindSize(last.kind);
  }
  *total_bytes = total;
  return columns;
}

struct Arena::Storage {
  /// Base of the payload: an aligned allocation freed at destruction.
  uint8_t* data = nullptr;
  size_t size = 0;

  ~Storage() { std::free(data); }
};

std::shared_ptr<Arena::Storage> Arena::AllocateOwned(size_t bytes) {
  auto storage = std::make_shared<Storage>();
  // aligned_alloc requires a size that is a multiple of the alignment; the
  // pad bytes are never read but kept zero.
  const size_t padded =
      static_cast<size_t>(AlignUp(bytes == 0 ? 1 : bytes, kColumnAlignment));
  storage->data = static_cast<uint8_t*>(std::aligned_alloc(kColumnAlignment, padded));
  WDE_CHECK(storage->data != nullptr, "arena allocation failed");
  std::memset(storage->data + bytes, 0, padded - bytes);
  storage->size = bytes;
  return storage;
}

Arena Arena::CreateForOverwrite(std::span<const ColumnSpec> specs) {
  uint64_t total = 0;
  Result<std::vector<ColumnDesc>> columns = ComputeColumnLayout(specs, &total);
  WDE_CHECK(columns.ok(), columns.status().ToString().c_str());
  std::shared_ptr<Storage> storage = AllocateOwned(static_cast<size_t>(total));
  // The gaps between columns: every element is the caller's to write.
  uint64_t end = 0;
  for (const ColumnDesc& desc : *columns) {
    std::memset(storage->data + end, 0, static_cast<size_t>(desc.offset - end));
    end = desc.offset + desc.count * ColumnKindSize(desc.kind);
  }
  return Arena(std::move(storage), std::move(columns).value());
}

Arena Arena::Create(std::span<const ColumnSpec> specs) {
  Arena arena = CreateForOverwrite(specs);
  std::memset(arena.storage_->data, 0, arena.storage_->size);
  return arena;
}

const ColumnDesc& Arena::column(size_t i) const {
  WDE_CHECK_LT(i, columns_.size(), "arena column index out of range");
  return columns_[i];
}

const uint8_t* Arena::ColumnBase(size_t i, ColumnKind kind) const {
  const ColumnDesc& desc = column(i);
  WDE_CHECK(desc.kind == kind, "arena column kind mismatch");
  WDE_CHECK(storage_ != nullptr, "arena has no storage");
  return storage_->data + desc.offset;
}

uint8_t* Arena::MutableColumnBase(size_t i, ColumnKind kind) {
  EnsureWritable();
  return const_cast<uint8_t*>(ColumnBase(i, kind));
}

std::span<const double> Arena::F64(size_t i) const {
  return {reinterpret_cast<const double*>(ColumnBase(i, ColumnKind::kF64)),
          static_cast<size_t>(column(i).count)};
}

std::span<double> Arena::MutableF64(size_t i) {
  return {reinterpret_cast<double*>(MutableColumnBase(i, ColumnKind::kF64)),
          static_cast<size_t>(column(i).count)};
}

void Arena::EnsureWritable() {
  if (storage_ == nullptr) return;
  // use_count == 1 means this handle is the only owner: no other Arena can
  // observe the mutation. The count can only over-report sharing for
  // handles being destroyed concurrently, which at worst costs one
  // redundant relocation.
  if (storage_.use_count() == 1) return;
  // The copy writes the whole payload, gaps included; AllocateOwned zeroes
  // only the trailing pad.
  std::shared_ptr<Storage> fresh = AllocateOwned(storage_->size);
  if (storage_->size != 0) {
    std::memcpy(fresh->data, storage_->data, storage_->size);
  }
  storage_ = std::move(fresh);
}

const uint8_t* Arena::payload() const {
  return storage_ == nullptr ? nullptr : storage_->data;
}

size_t Arena::payload_bytes() const {
  return storage_ == nullptr ? 0 : storage_->size;
}

bool Arena::shares_storage_with(const Arena& other) const {
  return storage_ != nullptr && storage_ == other.storage_;
}

}  // namespace memory
}  // namespace wde
