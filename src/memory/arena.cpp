#include "memory/arena.hpp"

#include <cstdlib>
#include <cstring>
#include <limits>
#include <mutex>
#include <optional>
#include <vector>

#include "util/check.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define WDE_ARENA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define WDE_ARENA_ASAN 1
#endif
#endif
#ifdef WDE_ARENA_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace wde {
namespace memory {

namespace {

uint64_t AlignUp(uint64_t value, uint64_t alignment) {
  return (value + alignment - 1) / alignment * alignment;
}

/// Blocks of at least this many bytes are large: they get spare capacity
/// and are parked for reuse when retired. Half a MiB, so the kde-rot moment
/// index (48 bytes per 64 samples) is recycled with its column from about
/// 700k values on; every smaller block is allocated and freed as before.
constexpr size_t kParkMinBytes = size_t{1} << 19;
/// A sorted column and its moment index retire together.
constexpr size_t kParkSlots = 2;

/// An aligned allocation of `capacity` bytes, a multiple of
/// kColumnAlignment.
struct Block {
  uint8_t* data = nullptr;
  size_t capacity = 0;
};

Block AllocateBlock(size_t capacity) {
  auto* data = static_cast<uint8_t*>(std::aligned_alloc(kColumnAlignment, capacity));
  WDE_CHECK(data != nullptr, "arena allocation failed");
  return {data, capacity};
}

void FreeBlock(const Block& block) {
#ifdef WDE_ARENA_ASAN
  ASAN_UNPOISON_MEMORY_REGION(block.data, block.capacity);
#endif
  std::free(block.data);
}

/// The process-wide spot for retired large blocks: at most kParkSlots, oldest
/// first. Blocks are freed outside the lock.
class ParkingSpot {
 public:
  /// Never destroyed, so a block retired during static destruction still
  /// finds it; what it holds at exit stays reachable.
  static ParkingSpot& Get() {
    static ParkingSpot* const spot = new ParkingSpot();
    return *spot;
  }

  /// Parks `block`; the oldest block is freed when the spot is full.
  void Park(const Block& block) {
#ifdef WDE_ARENA_ASAN
    ASAN_POISON_MEMORY_REGION(block.data, block.capacity);
#endif
    Block evicted;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      blocks_.push_back(block);
      if (blocks_.size() > kParkSlots) {
        evicted = blocks_.front();
        blocks_.erase(blocks_.begin());
      }
    }
    if (evicted.data != nullptr) FreeBlock(evicted);
  }

  /// The smallest parked block of `bytes` to 2·`bytes`, if any. Without
  /// one, every parked block under `bytes` is freed first, so parked memory
  /// never stays resident beside the block the caller allocates instead.
  std::optional<Block> Take(size_t bytes) {
    std::optional<Block> found;
    std::vector<Block> too_small;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      auto best = blocks_.end();
      for (auto it = blocks_.begin(); it != blocks_.end(); ++it) {
        if (it->capacity >= bytes && it->capacity / 2 <= bytes &&
            (best == blocks_.end() || it->capacity < best->capacity)) {
          best = it;
        }
      }
      if (best != blocks_.end()) {
        found = *best;
        blocks_.erase(best);
      } else {
        std::erase_if(blocks_, [&](const Block& block) {
          if (block.capacity >= bytes) return false;
          too_small.push_back(block);
          return true;
        });
      }
    }
    for (const Block& block : too_small) FreeBlock(block);
#ifdef WDE_ARENA_ASAN
    if (found) ASAN_UNPOISON_MEMORY_REGION(found->data, found->capacity);
#endif
    return found;
  }

  size_t Count() {
    const std::lock_guard<std::mutex> lock(mu_);
    return blocks_.size();
  }

 private:
  std::mutex mu_;
  std::vector<Block> blocks_;
};

}  // namespace

size_t ParkedBlockCount() { return ParkingSpot::Get().Count(); }

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
  /// The payload: `block.data`, parked at destruction when large and freed
  /// otherwise.
  Block block;
  size_t size = 0;

  ~Storage() {
    if (block.capacity >= kParkMinBytes) {
      ParkingSpot::Get().Park(block);
    } else {
      FreeBlock(block);
    }
  }
};

std::shared_ptr<Arena::Storage> Arena::AllocateOwned(size_t bytes) {
  auto storage = std::make_shared<Storage>();
  // aligned_alloc requires a size that is a multiple of the alignment; the
  // pad bytes are never read but kept zero.
  const size_t padded =
      static_cast<size_t>(AlignUp(bytes == 0 ? 1 : bytes, kColumnAlignment));
  if (padded < kParkMinBytes) {
    storage->block = AllocateBlock(padded);
  } else if (std::optional<Block> parked = ParkingSpot::Get().Take(padded)) {
    storage->block = *parked;
  } else {
    // 1/8 spare that nothing writes, so its pages stay unmapped until a
    // column that has grown since reuses the block.
    const auto spare = static_cast<size_t>(AlignUp(padded / 8, kColumnAlignment));
    storage->block = AllocateBlock(padded + spare);
  }
  std::memset(storage->block.data + bytes, 0, padded - bytes);
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
    std::memset(storage->block.data + end, 0, static_cast<size_t>(desc.offset - end));
    end = desc.offset + desc.count * ColumnKindSize(desc.kind);
  }
  return Arena(std::move(storage), std::move(columns).value());
}

Arena Arena::Create(std::span<const ColumnSpec> specs) {
  Arena arena = CreateForOverwrite(specs);
  std::memset(arena.storage_->block.data, 0, arena.storage_->size);
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
  return storage_->block.data + desc.offset;
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
    std::memcpy(fresh->block.data, storage_->block.data, storage_->size);
  }
  storage_ = std::move(fresh);
}

const uint8_t* Arena::payload() const {
  return storage_ == nullptr ? nullptr : storage_->block.data;
}

size_t Arena::payload_bytes() const {
  return storage_ == nullptr ? 0 : storage_->size;
}

bool Arena::shares_storage_with(const Arena& other) const {
  return storage_ != nullptr && storage_ == other.storage_;
}

}  // namespace memory
}  // namespace wde
