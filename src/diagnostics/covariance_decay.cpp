#include "diagnostics/covariance_decay.hpp"

#include <cmath>

#include "stats/autocovariance.hpp"
#include "util/check.hpp"

namespace wde {
namespace diagnostics {
namespace {

/// Ordinary least squares of y on x with intercept; returns {intercept,
/// slope, R²}.
DecayFit FitLine(const std::vector<double>& x, const std::vector<double>& y) {
  DecayFit fit;
  const size_t n = x.size();
  if (n < 2) return fit;
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
  }
  const double nn = static_cast<double>(n);
  const double denom = nn * sxx - sx * sx;
  if (std::fabs(denom) < 1e-12) return fit;
  const double slope = (nn * sxy - sx * sy) / denom;
  const double intercept = (sy - slope * sx) / nn;
  double ss_res = 0.0, ss_tot = 0.0;
  const double mean_y = sy / nn;
  for (size_t i = 0; i < n; ++i) {
    const double pred = intercept + slope * x[i];
    ss_res += (y[i] - pred) * (y[i] - pred);
    ss_tot += (y[i] - mean_y) * (y[i] - mean_y);
  }
  fit.log_c = intercept;
  fit.rate = -slope;  // decay rates reported positive
  fit.r_squared = ss_tot > 0.0 ? 1.0 - ss_res / ss_tot : 0.0;
  return fit;
}

}  // namespace

CovarianceDecayReport MeasureCovarianceDecay(
    const std::function<std::vector<double>(stats::Rng&)>& sampler,
    const std::function<double(double)>& g, int max_lag, int replicates,
    uint64_t seed) {
  WDE_CHECK_GT(max_lag, 0);
  WDE_CHECK_GT(replicates, 0);
  CovarianceDecayReport report;
  std::vector<double> acc(static_cast<size_t>(max_lag) + 1, 0.0);
  stats::Rng root(seed);
  for (int rep = 0; rep < replicates; ++rep) {
    stats::Rng rng = root.Fork(static_cast<uint64_t>(rep));
    const std::vector<double> path = sampler(rng);
    WDE_CHECK_GT(path.size(), static_cast<size_t>(max_lag));
    const std::vector<double> gamma =
        stats::AutocovarianceOfTransform(path, g, max_lag);
    for (size_t r = 0; r < gamma.size(); ++r) acc[r] += gamma[r];
  }
  for (double& v : acc) v /= static_cast<double>(replicates);
  report.variance = acc[0];

  // Monte-Carlo noise floor of an autocovariance estimate at one lag:
  // sd ≈ Var(g)/√(path_length · replicates).
  size_t path_length = 0;
  {
    stats::Rng probe = root.Fork(0);
    path_length = sampler(probe).size();
  }
  const double noise_floor =
      3.0 * report.variance /
      std::sqrt(static_cast<double>(path_length) * static_cast<double>(replicates));

  // Fit the decay models only on lags whose covariance clears the noise
  // floor: below it the estimates are Monte-Carlo noise and would drag both
  // regressions toward a spurious flat (power-law-looking) tail.
  std::vector<double> lags_lin, lags_log, log_cov;
  double max_cov = 0.0;
  for (int r = 1; r <= max_lag; ++r) {
    const double cov = std::fabs(acc[static_cast<size_t>(r)]);
    report.lags.push_back(static_cast<double>(r));
    report.covariance.push_back(cov);
    max_cov = std::max(max_cov, cov);
    if (cov > noise_floor) {
      lags_lin.push_back(static_cast<double>(r));
      lags_log.push_back(std::log(static_cast<double>(r)));
      log_cov.push_back(std::log(cov));
    }
  }
  report.dependence_detected = max_cov > noise_floor;
  report.exponential = FitLine(lags_lin, log_cov);
  report.power = FitLine(lags_log, log_cov);
  report.exponential_preferred =
      report.exponential.r_squared >= report.power.r_squared;
  return report;
}

const char* CovarianceDecayReport::Verdict() const {
  if (!dependence_detected) return "negligible";
  return exponential_preferred ? "exponential" : "polynomial";
}

}  // namespace diagnostics
}  // namespace wde
