/// \file serving/query_cache.hpp
/// Sharded, epoch-tagged result cache for typed selectivity queries — the
/// hot-query layer of the serving engine. The typed `Query` tagged union is
/// the cache key: keys hash and compare on the BIT PATTERNS of the kind and
/// both parameter payloads, so any two byte-identical queries share an entry
/// (including dirty queries with NaN parameters, whose documented answer 0.0
/// caches like any other value) and no floating-point comparison semantics
/// leak into key identity. Every entry is tagged with the epoch of the
/// published view it was computed against; a lookup only hits when the
/// entry's epoch equals the reader's current epoch, so publishing a new view
/// invalidates the entire cache at zero cost — no sweep, no generation list.
///
/// The cache is strictly an accelerator and never a source of truth: all
/// locking is try_lock on small per-shard stripes, and contention degrades
/// to a miss (lookup) or a drop (insert) instead of blocking, so the serving
/// hot path keeps its no-lock-wait guarantee. Correctness is unaffected
/// because a published view is immutable for its epoch and query answers are
/// deterministic — a cached value is bit-identical to recomputation, which
/// tests/query_taxonomy_test.cpp (cache-on ≡ cache-off) enforces.
#ifndef WDE_SERVING_QUERY_CACHE_HPP_
#define WDE_SERVING_QUERY_CACHE_HPP_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "selectivity/selectivity_estimator.hpp"

namespace wde {
namespace serving {

/// Bitwise key hash of a query: splitmix64-style mixing over the kind and
/// axis bytes and the bit patterns of all four parameters (a/b and the
/// axis-1 interval c/d of the multi-dimensional kinds). NaN payloads hash by
/// their exact bit pattern; +0.0 and -0.0 are distinct keys (both cache
/// their — equal — answers independently, which is harmless).
uint64_t QueryKeyHash(const selectivity::Query& query);

/// Bitwise key equality: same kind and axis, same a/b/c/d bits.
bool QueryKeyEquals(const selectivity::Query& lhs,
                    const selectivity::Query& rhs);

/// Monotonic counters describing cache effectiveness (relaxed atomics; exact
/// under a quiesced service, monotone-approximate while concurrent).
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;          // probed, no current-epoch entry
  uint64_t lookup_bypasses = 0;  // stripe contended; treated as a miss
  uint64_t insert_drops = 0;     // stripe contended; value not cached
};

/// A fixed-geometry cache: `shards` independent stripes, each a direct-mapped
/// table of `slots_per_shard` entries (rounded up to a power of two). Bounded
/// memory, O(1) lookup/insert, eviction by slot overwrite. Thread-safe; see
/// the file comment for the try_lock contention policy.
///
/// The stripes' tables are consecutive ranges of one slot array, so a cache
/// is one allocation, released in one piece when the cache is destroyed,
/// instead of one mid-sized heap block per stripe.
class QueryResultCache {
 public:
  QueryResultCache(size_t shards, size_t slots_per_shard);

  QueryResultCache(const QueryResultCache&) = delete;
  QueryResultCache& operator=(const QueryResultCache&) = delete;

  /// True and `*out` filled when a value for `query` computed at exactly
  /// `epoch` is cached. Epoch 0 never hits (the reserved empty-slot tag).
  bool Lookup(const selectivity::Query& query, uint64_t epoch,
              double* out) const;

  /// Caches `value` for `query` at `epoch`, overwriting whatever occupied
  /// the slot. Epoch 0 is reserved and ignored. Best-effort under
  /// contention (see insert_drops).
  void Insert(const selectivity::Query& query, uint64_t epoch, double value);

  CacheStats stats() const;

  size_t shards() const { return stripes_.size(); }
  size_t slots_per_shard() const { return slot_mask_ + 1; }

 private:
  struct Slot {
    uint64_t hash = 0;
    uint64_t epoch = 0;  // 0 = empty
    selectivity::Query query;
    double value = 0.0;
  };
  /// One lock per cache shard, padded to its own cache line so stripe
  /// mutexes never false-share.
  struct alignas(64) Stripe {
    mutable std::mutex mu;
  };

  size_t StripeIndex(uint64_t hash) const {
    // High bits pick the stripe, low bits the slot, so the two indices stay
    // independent even for hash families with weak low bits.
    return (hash >> 48) % stripes_.size();
  }
  /// Slot `hash & slot_mask_` of stripe `stripe`'s range of slots_.
  size_t SlotIndex(size_t stripe, uint64_t hash) const {
    return stripe * (slot_mask_ + 1) + (hash & slot_mask_);
  }

  std::vector<Stripe> stripes_;
  std::vector<Slot> slots_;  // stripe s owns [s * n, (s + 1) * n), n = slot_mask_ + 1
  uint64_t slot_mask_ = 0;

  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  mutable std::atomic<uint64_t> lookup_bypasses_{0};
  mutable std::atomic<uint64_t> insert_drops_{0};
};

}  // namespace serving
}  // namespace wde

#endif  // WDE_SERVING_QUERY_CACHE_HPP_
