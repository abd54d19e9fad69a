#include "kernel/bandwidth.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "numerics/optimize.hpp"
#include "stats/descriptive.hpp"
#include "util/check.hpp"

namespace wde {
namespace kernel {

double RuleOfThumbBandwidth(std::span<const double> data) {
  WDE_CHECK_GE(data.size(), 2u);
  const double n = static_cast<double>(data.size());
  double sigma =
      stats::Iqr(data, stats::QuantileMethod::kMatlab) / (2.0 * 0.6745);
  if (sigma <= 0.0) sigma = stats::StdDev(data);
  WDE_CHECK_GT(sigma, 0.0, "degenerate sample: zero spread");
  return sigma * std::pow(4.0 / (3.0 * n), 0.2);
}

namespace {

// The rule's scale over a sorted sample: IQR / (2 · 0.6745), or the standard
// deviation when the IQR degenerates.
double SortedSpread(std::span<const double> sorted) {
  WDE_CHECK_GE(sorted.size(), 2u);
  double sigma =
      stats::IqrSorted(sorted, stats::QuantileMethod::kMatlab) / (2.0 * 0.6745);
  if (sigma <= 0.0) sigma = stats::StdDev(sorted);
  return sigma;
}

double RuleOfThumbFromSpread(double sigma, size_t size) {
  const double n = static_cast<double>(size);
  return sigma * std::pow(4.0 / (3.0 * n), 0.2);
}

}  // namespace

double RuleOfThumbBandwidthSorted(std::span<const double> sorted) {
  const double sigma = SortedSpread(sorted);
  WDE_CHECK_GT(sigma, 0.0, "degenerate sample: zero spread");
  return RuleOfThumbFromSpread(sigma, sorted.size());
}

namespace internal {

double RuleOfThumbBandwidthSortedOrZero(std::span<const double> sorted) {
  const double sigma = SortedSpread(sorted);
  return sigma > 0.0 ? RuleOfThumbFromSpread(sigma, sorted.size()) : 0.0;
}

}  // namespace internal

double LeastSquaresCvCriterion(const Kernel& kernel,
                               std::span<const double> sorted_data,
                               double bandwidth) {
  const size_t n = sorted_data.size();
  WDE_CHECK_GE(n, 2u);
  WDE_CHECK_GT(bandwidth, 0.0);
  const double radius = kernel.support_radius() * bandwidth;
  // Pair sums over |X_i − X_j| ≤ 2R·h (the self-convolution support) using
  // the sorted order. Diagonal terms handled in closed form.
  double conv_sum = 0.0;   // Σ_{i<j} (K*K)(Δ/h)
  double kernel_sum = 0.0; // Σ_{i<j} K(Δ/h)
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const double delta = sorted_data[j] - sorted_data[i];
      if (delta > 2.0 * radius) break;
      conv_sum += kernel.SelfConvolution(delta / bandwidth);
      if (delta <= radius) kernel_sum += kernel.Evaluate(delta / bandwidth);
    }
  }
  const double nn = static_cast<double>(n);
  const double integral_f2 =
      (nn * kernel.Roughness() + 2.0 * conv_sum) / (nn * nn * bandwidth);
  const double leave_one_out = 2.0 * (2.0 * kernel_sum) / (nn * (nn - 1.0) * bandwidth);
  return integral_f2 - leave_one_out;
}

double LeastSquaresCvBandwidth(const Kernel& kernel, std::span<const double> data,
                               double lo_factor, double hi_factor, int grid_points) {
  WDE_CHECK_GE(data.size(), 4u);
  WDE_CHECK(lo_factor > 0.0 && hi_factor > lo_factor);
  std::vector<double> sorted(data.begin(), data.end());
  std::sort(sorted.begin(), sorted.end());
  const double pilot = RuleOfThumbBandwidthSorted(sorted);
  const double log_lo = std::log(lo_factor * pilot);
  const double log_hi = std::log(hi_factor * pilot);
  const double best_log = numerics::GridThenGoldenMinimize(
      [&](double lh) {
        return LeastSquaresCvCriterion(kernel, sorted, std::exp(lh));
      },
      log_lo, log_hi, grid_points, 1e-4);
  return std::exp(best_log);
}

}  // namespace kernel
}  // namespace wde
