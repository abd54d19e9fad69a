#include "selectivity/sorted_prefix.hpp"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace wde {
namespace selectivity {
namespace {

// std::merge(prefix, sorted_tail, out, OrderKeyLess()), for a tail far
// shorter than the prefix: each tail value's place is found by galloping
// from the last one's, and the prefix run before it is copied whole.
void MergeByRuns(std::span<const double> prefix, std::span<const double> sorted_tail,
                 double* out) {
  size_t from = 0;  // prefix[from..] is not written yet
  for (const double x : sorted_tail) {
    const uint64_t key = OrderKey(x);
    const auto not_after = [key](double p) { return OrderKey(p) <= key; };
    // Every value of prefix[from, lo) goes first; prefix[hi] (if any) after.
    size_t lo = from;
    size_t hi = from;
    for (size_t step = 1; hi < prefix.size() && not_after(prefix[hi]); step *= 2) {
      lo = hi + 1;
      hi += step;
    }
    hi = std::min(hi, prefix.size());
    const size_t to = static_cast<size_t>(
        std::partition_point(prefix.begin() + lo, prefix.begin() + hi, not_after) -
        prefix.begin());
    out = std::copy(prefix.begin() + from, prefix.begin() + to, out);
    *out++ = x;
    from = to;
  }
  std::copy(prefix.begin() + from, prefix.end(), out);
}

}  // namespace

void SortByOrderKey(std::span<const double> values, std::span<double> out) {
  WDE_CHECK_EQ(values.size(), out.size(), "SortByOrderKey spans must match");
  const size_t n = values.size();
  if (n == 0) return;
  constexpr int kBits = 11;
  constexpr size_t kBuckets = size_t{1} << kBits;
  constexpr uint64_t kMask = kBuckets - 1;
  constexpr int kDigits = (64 + kBits - 1) / kBits;
  // One read of the input counts every digit; a digit all keys share moves
  // nothing, so its pass is skipped.
  std::vector<size_t> counts(kDigits * kBuckets);
  for (const double x : values) {
    const uint64_t key = OrderKey(x);
    for (int d = 0; d < kDigits; ++d) {
      ++counts[d * kBuckets + ((key >> (d * kBits)) & kMask)];
    }
  }
  int digits[kDigits];
  int passes = 0;
  const uint64_t any_key = OrderKey(values[0]);
  for (int d = 0; d < kDigits; ++d) {
    const size_t shared = counts[d * kBuckets + ((any_key >> (d * kBits)) & kMask)];
    if (shared != n) digits[passes++] = d;
  }
  if (passes == 0) {  // every key equal: already sorted
    if (values.data() != out.data()) std::copy(values.begin(), values.end(), out.begin());
    return;
  }
  // The passes alternate between `out` and one scratch buffer, starting on
  // whichever makes the last pass land in `out`. An input that is `out`
  // itself and would be written by the first pass is copied away first.
  std::unique_ptr<double[]> spare = std::make_unique_for_overwrite<double[]>(n);
  const double* src = values.data();
  if (passes % 2 == 1 && src == out.data()) {
    std::copy(values.begin(), values.end(), spare.get());
    src = spare.get();
  }
  for (int p = 0; p < passes; ++p) {
    double* dst = (passes - 1 - p) % 2 == 0 ? out.data() : spare.get();
    const int shift = digits[p] * kBits;
    size_t* count = counts.data() + digits[p] * kBuckets;
    size_t offset = 0;
    for (size_t b = 0; b < kBuckets; ++b) offset += std::exchange(count[b], offset);
    for (size_t i = 0; i < n; ++i) {
      dst[count[(OrderKey(src[i]) >> shift) & kMask]++] = src[i];
    }
    src = dst;
  }
}

memory::Arena FoldSortedTail(std::span<const double> prefix,
                             std::span<const double> tail, RefitMode mode) {
  const memory::ColumnSpec specs[] = {
      {memory::ColumnKind::kF64, prefix.size() + tail.size()}};
  memory::Arena column = memory::Arena::CreateForOverwrite(specs);
  const std::span<double> out = column.MutableF64(0);
  if (prefix.empty()) {
    SortByOrderKey(tail, out);  // nothing to merge with, in either mode
  } else if (mode == RefitMode::kIncremental) {
    // The tail keeps its arrival order (the unfittable branch and
    // MergeTailFrom read it), so a copy is sorted; the merge is the one
    // write of the column.
    std::vector<double> sorted_tail(tail.size());
    SortByOrderKey(tail, sorted_tail);
    MergeByRuns(prefix, sorted_tail, out.data());
  } else {
    const auto mid = std::copy(prefix.begin(), prefix.end(), out.begin());
    std::copy(tail.begin(), tail.end(), mid);
    SortByOrderKey(out, out);
  }
  return column;
}

}  // namespace selectivity
}  // namespace wde
