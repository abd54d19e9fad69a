#include "serving/query_cache.hpp"

#include <bit>

#include "util/check.hpp"

namespace wde {
namespace serving {

namespace {

/// splitmix64 finalizer — cheap, well-distributed mixing for table indices.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

uint64_t QueryKeyHash(const selectivity::Query& query) {
  uint64_t h = Mix64(static_cast<uint64_t>(query.kind) |
                     (static_cast<uint64_t>(query.axis) << 8));
  h = Mix64(h ^ std::bit_cast<uint64_t>(query.a));
  h = Mix64(h ^ std::bit_cast<uint64_t>(query.b));
  h = Mix64(h ^ std::bit_cast<uint64_t>(query.c));
  h = Mix64(h ^ std::bit_cast<uint64_t>(query.d));
  return h;
}

bool QueryKeyEquals(const selectivity::Query& lhs,
                    const selectivity::Query& rhs) {
  return lhs.kind == rhs.kind && lhs.axis == rhs.axis &&
         std::bit_cast<uint64_t>(lhs.a) == std::bit_cast<uint64_t>(rhs.a) &&
         std::bit_cast<uint64_t>(lhs.b) == std::bit_cast<uint64_t>(rhs.b) &&
         std::bit_cast<uint64_t>(lhs.c) == std::bit_cast<uint64_t>(rhs.c) &&
         std::bit_cast<uint64_t>(lhs.d) == std::bit_cast<uint64_t>(rhs.d);
}

QueryResultCache::QueryResultCache(size_t shards, size_t slots_per_shard) {
  WDE_CHECK(shards > 0, "QueryResultCache needs at least one shard");
  WDE_CHECK(slots_per_shard > 0, "QueryResultCache needs at least one slot");
  const size_t slots = RoundUpPow2(slots_per_shard);
  slot_mask_ = slots - 1;
  stripes_ = std::vector<Stripe>(shards);
  slots_.resize(shards * slots);
}

bool QueryResultCache::Lookup(const selectivity::Query& query, uint64_t epoch,
                              double* out) const {
  const uint64_t hash = QueryKeyHash(query);
  const size_t stripe = StripeIndex(hash);
  std::unique_lock<std::mutex> lock(stripes_[stripe].mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    // Never wait on the read path: a contended stripe is just a miss.
    lookup_bypasses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const Slot& slot = slots_[SlotIndex(stripe, hash)];
  if (slot.epoch == epoch && epoch != 0 && slot.hash == hash &&
      QueryKeyEquals(slot.query, query)) {
    *out = slot.value;
    hits_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void QueryResultCache::Insert(const selectivity::Query& query, uint64_t epoch,
                              double value) {
  if (epoch == 0) return;  // reserved empty-slot tag
  const uint64_t hash = QueryKeyHash(query);
  const size_t stripe = StripeIndex(hash);
  std::unique_lock<std::mutex> lock(stripes_[stripe].mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    insert_drops_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Slot& slot = slots_[SlotIndex(stripe, hash)];
  slot.hash = hash;
  slot.epoch = epoch;
  slot.query = query;
  slot.value = value;
}

CacheStats QueryResultCache::stats() const {
  CacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.lookup_bypasses = lookup_bypasses_.load(std::memory_order_relaxed);
  stats.insert_drops = insert_drops_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace serving
}  // namespace wde
