/// \file selectivity/sorted_prefix.hpp
/// The refit fold of kde-rot and equi-depth, which keep each observation
/// once: an ascending prefix column (shared copy-on-write with views, so
/// never mutated) plus an arrival-order tail of later inserts.
#ifndef WDE_SELECTIVITY_SORTED_PREFIX_HPP_
#define WDE_SELECTIVITY_SORTED_PREFIX_HPP_

#include <algorithm>
#include <span>

#include "memory/arena.hpp"
#include "selectivity/selectivity_estimator.hpp"

namespace wde {
namespace selectivity {

/// A NEW one-column arena holding sort(prefix ∪ tail); `prefix` must be
/// ascending. kIncremental sorts the tail and merges, O(Δ log Δ + n);
/// kScratch sorts everything, O(n log n). Same sequence either way.
inline memory::Arena FoldSortedTail(std::span<const double> prefix,
                                    std::span<const double> tail, RefitMode mode) {
  const memory::ColumnSpec specs[] = {
      {memory::ColumnKind::kF64, prefix.size() + tail.size()}};
  memory::Arena column = memory::Arena::Create(specs);
  const std::span<double> out = column.MutableF64(0);
  const auto mid = std::copy(prefix.begin(), prefix.end(), out.begin());
  std::copy(tail.begin(), tail.end(), mid);
  if (mode == RefitMode::kIncremental) {
    std::sort(mid, out.end());
    std::inplace_merge(out.begin(), mid, out.end());
  } else {
    std::sort(out.begin(), out.end());
  }
  return column;
}

}  // namespace selectivity
}  // namespace wde

#endif  // WDE_SELECTIVITY_SORTED_PREFIX_HPP_
