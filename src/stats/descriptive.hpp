#ifndef WDE_STATS_DESCRIPTIVE_HPP_
#define WDE_STATS_DESCRIPTIVE_HPP_

#include <span>
#include <vector>

namespace wde {
namespace stats {

double Mean(std::span<const double> xs);

/// Unbiased sample variance (divides by n-1). Returns 0 for n < 2.
double Variance(std::span<const double> xs);

double StdDev(std::span<const double> xs);

/// Quantile conventions. `kType7` is the R default (linear interpolation of
/// order statistics at p(n-1)+1); `kMatlab` matches MATLAB's `quantile`
/// (midpoints, R type 5), which the paper's rule-of-thumb bandwidth uses.
enum class QuantileMethod { kType7, kMatlab };

/// p-th sample quantile, p in [0, 1]. Copies and sorts internally.
double Quantile(std::span<const double> xs, double p,
                QuantileMethod method = QuantileMethod::kType7);

/// Quantile over an already ascending-sorted span — bitwise-identical to
/// Quantile() on the same multiset (same interpolation arithmetic, no copy,
/// no sort). Callers that maintain a sorted buffer incrementally use this to
/// skip the O(n log n) copy+sort per evaluation.
double QuantileSorted(std::span<const double> sorted, double p,
                      QuantileMethod method = QuantileMethod::kType7);

/// Interquartile range q3 - q1 under the given convention.
double Iqr(std::span<const double> xs, QuantileMethod method = QuantileMethod::kMatlab);

/// Iqr over an already-sorted span; bitwise-identical to Iqr().
double IqrSorted(std::span<const double> sorted,
                 QuantileMethod method = QuantileMethod::kMatlab);

}  // namespace stats
}  // namespace wde

#endif  // WDE_STATS_DESCRIPTIVE_HPP_
