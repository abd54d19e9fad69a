/// \file selectivity/sorted_prefix.hpp
/// The refit fold of kde-rot and equi-depth, which keep each observation
/// once: an ascending prefix column (shared copy-on-write with views, so
/// never mutated) plus an arrival-order tail of later inserts.
#ifndef WDE_SELECTIVITY_SORTED_PREFIX_HPP_
#define WDE_SELECTIVITY_SORTED_PREFIX_HPP_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

#include "memory/arena.hpp"
#include "selectivity/selectivity_estimator.hpp"

namespace wde {
namespace selectivity {

/// The IEEE order key of a non-NaN double: an unsigned integer whose
/// ascending order is the numeric order, with −0.0 just before +0.0. Equal
/// keys are equal bit patterns.
inline uint64_t OrderKey(double x) {
  const uint64_t bits = std::bit_cast<uint64_t>(x);
  const uint64_t sign = static_cast<uint64_t>(static_cast<int64_t>(bits) >> 63);
  return bits ^ (sign | (uint64_t{1} << 63));
}

/// Strict weak order by OrderKey: `<` with −0.0 placed before +0.0.
struct OrderKeyLess {
  bool operator()(double a, double b) const { return OrderKey(a) < OrderKey(b); }
};

/// out = `values` sorted ascending by OrderKey, so byte for byte what
/// std::sort gives for data without both zeros. `values` must hold no NaN
/// and may be `out` itself. An LSD radix sort of 11-bit digits that skips
/// every digit all keys share; O(n) with n doubles of scratch.
void SortByOrderKey(std::span<const double> values, std::span<double> out);

/// A NEW one-column arena holding sort(prefix ∪ tail) in OrderKey order;
/// `prefix` must be ascending and `tail` free of NaN (it is only read).
/// kIncremental radix-sorts a copy of the tail and merges it with the
/// prefix straight into the column, copying each prefix run between two
/// tail values whole: O(Δ log(n/Δ) + n), with scratch sized by the tail;
/// kScratch copies both into the column and radix-sorts it, O(n). Same
/// bytes either way for an OrderKey-ordered prefix.
memory::Arena FoldSortedTail(std::span<const double> prefix,
                             std::span<const double> tail, RefitMode mode);

}  // namespace selectivity
}  // namespace wde

#endif  // WDE_SELECTIVITY_SORTED_PREFIX_HPP_
