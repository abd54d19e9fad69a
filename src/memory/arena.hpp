/// \file memory/arena.hpp
/// Entry header of the `memory` module: aligned, relocatable columnar
/// storage for estimator fitted state. An `Arena` carves a fixed set of
/// typed columns (`f64`) out of ONE contiguous
/// allocation, every column starting on a 64-byte boundary
/// (`kColumnAlignment`) — the layout the SIMD batch kernels want.
///
/// Ownership is copy-on-write: copying an Arena shares the underlying
/// storage block (publishing an immutable view costs two pointer copies,
/// independent of state size), and the first mutation through a
/// `Mutable*()` accessor un-shares it by relocating into a fresh
/// allocation. Relocation never changes column offsets — only the base
/// pointer — so the column directory stays valid; raw spans cached by
/// callers across a mutation do NOT, which is why the mutable accessors
/// re-derive the span on every call.
///
/// Thread-safety matches std::shared_ptr CoW: concurrent readers of
/// Arena copies are safe; a writer mutating its own handle while other
/// handles exist relocates first (the use_count check can only
/// over-approximate sharing, never miss a live reader that was published
/// before the write).
///
/// Large blocks (512 KiB and up) are recycled: when the last handle lets go
/// of one, it is parked in one process-wide, mutex-guarded spot of at most
/// two blocks, and the next large allocation that it fits (up to twice the
/// request) takes it instead of mapping fresh pages. Every allocation path
/// either writes each byte it hands out or zeroes it, so reuse never
/// changes contents.
#ifndef WDE_MEMORY_ARENA_HPP_
#define WDE_MEMORY_ARENA_HPP_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "util/result.hpp"

namespace wde {
namespace memory {

/// Every column begins at a multiple of this within the arena payload and in
/// memory — 64 bytes: one cache line and the widest vector register.
inline constexpr size_t kColumnAlignment = 64;

/// Element type of one column.
enum class ColumnKind : uint8_t {
  kF64 = 0,
};

/// Element size in bytes.
size_t ColumnKindSize(ColumnKind kind);

/// Requested column: element kind + element count.
struct ColumnSpec {
  ColumnKind kind = ColumnKind::kF64;
  uint64_t count = 0;
};

/// Materialized column: spec + byte offset of the first element within the
/// arena payload. Offsets are a pure function of the spec sequence (the
/// canonical 64-byte-aligned packing of ComputeColumnLayout).
struct ColumnDesc {
  ColumnKind kind = ColumnKind::kF64;
  uint64_t count = 0;
  uint64_t offset = 0;
};

/// The canonical packing: columns in declaration order, each starting at
/// the next 64-byte boundary. Returns the descriptors and writes the total
/// payload size (end of the last column, unpadded) to `*total_bytes`.
/// Fails on element-count overflow.
Result<std::vector<ColumnDesc>> ComputeColumnLayout(
    std::span<const ColumnSpec> specs, uint64_t* total_bytes);

/// Retired large blocks currently parked for reuse (0, 1 or 2).
size_t ParkedBlockCount();

class Arena {
 public:
  /// Empty arena: no storage, no columns.
  Arena() = default;

  /// Copies share storage (copy-on-write); moves transfer it.
  Arena(const Arena&) = default;
  Arena& operator=(const Arena&) = default;
  Arena(Arena&&) noexcept = default;
  Arena& operator=(Arena&&) noexcept = default;

  /// Owned, writable, zero-initialized storage for `specs` in the canonical
  /// layout. Aborts on allocation failure (like every other allocation in
  /// the library) and on overflowing counts (a caller bug: every column
  /// count comes from state already held in memory).
  static Arena Create(std::span<const ColumnSpec> specs);

  /// As Create, but the column elements are left uninitialized for a caller
  /// that writes every one of them before the first read (a refit fold, a
  /// snapshot restore): only the pad bytes are zeroed, so a large column is
  /// written once instead of twice.
  static Arena CreateForOverwrite(std::span<const ColumnSpec> specs);

  size_t num_columns() const { return columns_.size(); }
  std::span<const ColumnDesc> columns() const { return columns_; }
  const ColumnDesc& column(size_t i) const;

  /// Typed read-only element spans. The column's kind must match (checked).
  std::span<const double> F64(size_t i) const;

  /// Typed writable element spans. Un-shares storage first (see
  /// EnsureWritable), so the returned span is exclusively owned; any
  /// previously obtained span into this arena may be invalidated.
  std::span<double> MutableF64(size_t i);

  /// Guarantees exclusively owned storage: relocates into a fresh
  /// 64-byte-aligned allocation when the current block is shared with
  /// another Arena handle. Contents are preserved bitwise; column offsets
  /// never change.
  void EnsureWritable();

  /// The contiguous payload. Null/0 for an empty arena. The allocation is
  /// padded to a multiple of kColumnAlignment; the pad bytes (between
  /// columns and after the last one) are always zero.
  const uint8_t* payload() const;
  size_t payload_bytes() const;

  bool empty() const { return storage_ == nullptr; }
  /// True when both arenas view the same storage block (CoW not yet broken).
  bool shares_storage_with(const Arena& other) const;

 private:
  struct Storage;

  Arena(std::shared_ptr<Storage> storage, std::vector<ColumnDesc> columns)
      : storage_(std::move(storage)), columns_(std::move(columns)) {}

  /// An aligned block of `bytes` whose trailing pad (up to the next
  /// kColumnAlignment multiple) is zeroed; the payload is uninitialized (a
  /// reused parked block still holds its last owner's bytes).
  static std::shared_ptr<Storage> AllocateOwned(size_t bytes);

  const uint8_t* ColumnBase(size_t i, ColumnKind kind) const;
  uint8_t* MutableColumnBase(size_t i, ColumnKind kind);

  std::shared_ptr<Storage> storage_;
  std::vector<ColumnDesc> columns_;
};

}  // namespace memory
}  // namespace wde

#endif  // WDE_MEMORY_ARENA_HPP_
