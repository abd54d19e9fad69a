#include "core/binned.hpp"

#include <algorithm>
#include <cmath>

#include "util/string_util.hpp"

namespace wde {
namespace core {

Result<BinnedWaveletFit> BinnedWaveletFit::Fit(const wavelet::WaveletFilter& filter,
                                               std::span<const double> data, int j0,
                                               int finest_level, double lo,
                                               double hi) {
  if (data.empty()) return Status::InvalidArgument("no data to bin");
  if (j0 < 0 || finest_level <= j0 || finest_level > 24) {
    return Status::InvalidArgument(
        Format("invalid level range [%d, %d)", j0, finest_level));
  }
  if (!(lo < hi)) return Status::InvalidArgument("empty domain");

  const size_t cells = 1ULL << finest_level;
  const double width = hi - lo;
  std::vector<double> counts(cells, 0.0);
  for (double x : data) {
    const double t = (x - lo) / width;
    if (!(t >= 0.0 && t <= 1.0)) {  // NaN too: the cell index would be UB
      return Status::OutOfRange(Format("observation %.6g outside [%.6g, %.6g]",
                                       x, lo, lo + width));
    }
    counts[std::min(cells - 1, static_cast<size_t>(t * cells))] += 1.0;
  }
  // Scaled counts s_k = 2^{J/2}·count_k/n are the finest-level scaling
  // coefficients.
  const double scale = std::exp2(0.5 * static_cast<double>(finest_level)) /
                       static_cast<double>(data.size());
  for (double& c : counts) c *= scale;
  Result<wavelet::DwtCoefficients> pyramid =
      wavelet::ForwardDwt(filter, counts, finest_level - j0);
  if (!pyramid.ok()) return pyramid.status();
  return BinnedWaveletFit(filter, std::move(pyramid).value(), j0, finest_level, lo,
                          width, data.size());
}

double BinnedWaveletFit::BetaHat(int j, int k) const {
  WDE_CHECK(j >= j0_ && j < finest_level_, "detail level out of range");
  // pyramid_.details[0] is the finest level (finest_level_ - 1).
  const size_t index = static_cast<size_t>(finest_level_ - 1 - j);
  const std::vector<double>& level = pyramid_.details[index];
  WDE_CHECK(k >= 0 && static_cast<size_t>(k) < level.size(),
            "translation out of range");
  return level[static_cast<size_t>(k)];
}

double BinnedWaveletFit::AlphaHat(int k) const {
  WDE_CHECK(k >= 0 && static_cast<size_t>(k) < pyramid_.approximation.size(),
            "translation out of range");
  return pyramid_.approximation[static_cast<size_t>(k)];
}

Result<std::vector<double>> BinnedWaveletFit::EstimateOnGrid(
    const ThresholdSchedule& schedule, ThresholdKind kind) const {
  wavelet::DwtCoefficients thresholded = pyramid_;
  for (size_t index = 0; index < thresholded.details.size(); ++index) {
    const int j = finest_level_ - 1 - static_cast<int>(index);
    const double lambda = schedule.LevelLambda(j);
    for (double& beta : thresholded.details[index]) {
      beta = ApplyThreshold(kind, beta, lambda);
    }
  }
  Result<std::vector<double>> reconstructed =
      wavelet::InverseDwt(filter_, thresholded);
  if (!reconstructed.ok()) return reconstructed.status();
  const double scale =
      std::exp2(0.5 * static_cast<double>(finest_level_)) / width_;
  for (double& v : *reconstructed) v *= scale;
  return reconstructed;
}

std::vector<double> BinnedWaveletFit::GridCenters() const {
  const size_t cells = 1ULL << finest_level_;
  std::vector<double> centers(cells);
  for (size_t i = 0; i < cells; ++i) {
    centers[i] =
        lo_ + width_ * (static_cast<double>(i) + 0.5) / static_cast<double>(cells);
  }
  return centers;
}

}  // namespace core
}  // namespace wde
