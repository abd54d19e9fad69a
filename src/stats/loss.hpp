#ifndef WDE_STATS_LOSS_HPP_
#define WDE_STATS_LOSS_HPP_

#include <span>

namespace wde {
namespace stats {

/// Integrated squared error between two functions sampled on the same uniform
/// grid with spacing dx (trapezoid rule).
double IntegratedSquaredError(std::span<const double> estimate,
                              std::span<const double> truth, double dx);

/// ∫ |estimate - truth|^p dx on a shared uniform grid. This is the p-th power
/// of the L^p distance (the paper's risks are E||g-f||_p^p, aggregated by the
/// Monte-Carlo harness before taking the 1/p-th root).
double LpErrorPow(std::span<const double> estimate, std::span<const double> truth,
                  double dx, double p);

}  // namespace stats
}  // namespace wde

#endif  // WDE_STATS_LOSS_HPP_
