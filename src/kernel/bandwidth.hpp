#ifndef WDE_KERNEL_BANDWIDTH_HPP_
#define WDE_KERNEL_BANDWIDTH_HPP_

#include <span>

#include "kernel/kernels.hpp"

namespace wde {
namespace kernel {

/// MATLAB's rule of thumb, as spelled out in the paper (§5.4):
///   h = (q3 - q1) / (2 · 0.6745) · (4 / (3n))^{1/5},
/// with quartiles under MATLAB's quantile convention. Falls back to the
/// sample standard deviation when the IQR degenerates.
double RuleOfThumbBandwidth(std::span<const double> data);

/// RuleOfThumbBandwidth over an already ascending-sorted sample. The IQR is
/// read from order statistics in O(1) instead of two copy+sort passes, and
/// the StdDev fallback sums in sorted order — so two calls on the same sorted
/// span are bitwise-identical regardless of the insertion order that produced
/// it. Callers that maintain the sorted buffer incrementally (KDE refit) use
/// this on both the fit and restore paths to keep the fitted bandwidth
/// bit-exact across save/load.
double RuleOfThumbBandwidthSorted(std::span<const double> sorted);

namespace internal {

/// RuleOfThumbBandwidthSorted, bitwise, but 0 where that one aborts: for a
/// sample without positive spread, and for a span not yet known to be
/// ascending (a restored column, or one holding NaN), whose value is then
/// meaningless. For callers that verify the order afterwards.
double RuleOfThumbBandwidthSortedOrZero(std::span<const double> sorted);

}  // namespace internal

/// Least-squares cross-validation bandwidth: minimizes
///   CV(h) = ∫ f̂² − (2/n) Σ_i f̂_{-i}(X_i)
///         = Σ_{i,j} (K*K)((X_i−X_j)/h)/(n²h) − 2 Σ_{i≠j} K((X_i−X_j)/h)/(n(n−1)h)
/// exactly (via the kernel self-convolution), scanning a log-spaced grid of
/// `grid_points` bandwidths in [lo_factor, hi_factor] × rule-of-thumb and
/// refining with golden-section search. O(n · neighbors) per candidate via
/// sorted-window evaluation.
double LeastSquaresCvBandwidth(const Kernel& kernel, std::span<const double> data,
                               double lo_factor = 0.1, double hi_factor = 2.0,
                               int grid_points = 24);

/// The LSCV objective itself (exposed for tests and diagnostics).
double LeastSquaresCvCriterion(const Kernel& kernel, std::span<const double> sorted_data,
                               double bandwidth);

}  // namespace kernel
}  // namespace wde

#endif  // WDE_KERNEL_BANDWIDTH_HPP_
