#ifndef WDE_CORE_BINNED_HPP_
#define WDE_CORE_BINNED_HPP_

#include <span>
#include <vector>

#include "core/thresholding.hpp"
#include "util/result.hpp"
#include "wavelet/dwt.hpp"
#include "wavelet/filter.hpp"

namespace wde {
namespace core {

/// WaveLab-style fast batch fitting — the computational scheme the paper's
/// own simulations use ("the usual DWT algorithm ... on an equidistant
/// grid"): bin the data into 2^J cells, treat the scaled counts
/// s_k = 2^{J/2}·count_k/n as finest-level scaling coefficients, and run the
/// periodized Mallat pyramid down to j0. Costs O(n + 2^J·L) total versus
/// O(n·levels·L) for the exact streaming path, at the price of two
/// approximations: the O(2^{-J}) binning error and periodized (wrap-around)
/// boundary handling. Exact and binned coefficients agree away from the
/// boundary — asserted by tests.
///
/// The binned path carries no per-coefficient pair sums, so it supports
/// fixed threshold schedules (e.g. `TheoreticalSchedule`) but not the
/// HTCV/STCV criteria; use `WaveletDensityFit` for cross-validation.
class BinnedWaveletFit {
 public:
  /// Bins `data` (values inside [lo, hi]; outside is an error) into 2^J
  /// cells and runs the pyramid. Requires j0 >= 0 and J > j0.
  static Result<BinnedWaveletFit> Fit(const wavelet::WaveletFilter& filter,
                                      std::span<const double> data, int j0,
                                      int finest_level, double lo = 0.0,
                                      double hi = 1.0);

  int j0() const { return j0_; }
  int finest_level() const { return finest_level_; }
  size_t count() const { return count_; }

  /// Approximate β̂_{j,k} for j0 <= j < finest_level and periodized
  /// k in [0, 2^j).
  double BetaHat(int j, int k) const;
  /// Approximate α̂_{j0,k} for periodized k in [0, 2^{j0}).
  double AlphaHat(int k) const;

  /// Thresholds the detail levels with `schedule` and reconstructs density
  /// values at the 2^J cell centers (on the original [lo, hi] scale).
  Result<std::vector<double>> EstimateOnGrid(const ThresholdSchedule& schedule,
                                             ThresholdKind kind) const;

  /// Cell centers matching `EstimateOnGrid`.
  std::vector<double> GridCenters() const;

 private:
  BinnedWaveletFit(wavelet::WaveletFilter filter, wavelet::DwtCoefficients pyramid,
                   int j0, int finest_level, double lo, double width, size_t count)
      : filter_(std::move(filter)),
        pyramid_(std::move(pyramid)),
        j0_(j0),
        finest_level_(finest_level),
        lo_(lo),
        width_(width),
        count_(count) {}

  wavelet::WaveletFilter filter_;
  wavelet::DwtCoefficients pyramid_;  // approximation = level j0
  int j0_;
  int finest_level_;
  double lo_;
  double width_;
  size_t count_;
};

}  // namespace core
}  // namespace wde

#endif  // WDE_CORE_BINNED_HPP_
