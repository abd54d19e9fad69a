/// \file diagnostics/covariance_decay.hpp
/// Entry header of the `diagnostics` module: the empirical check of the
/// paper's Assumption (D), which requires |Cov(g(X_0), g(X_r))| ≤ c·e^{-a r^b}
/// for Theorem 3.1's risk bound to hold. Exponential vs power-law fits
/// separate the good regime from the LSV regime of Proposition 5.1 (decay
/// ~ r^{1-1/α'}), where thresholded estimators lose their guarantees.
/// Invariant: reports are Monte-Carlo averages over deterministic RNG forks,
/// so diagnostics reproduce exactly for a fixed seed.
#ifndef WDE_DIAGNOSTICS_COVARIANCE_DECAY_HPP_
#define WDE_DIAGNOSTICS_COVARIANCE_DECAY_HPP_

#include <functional>
#include <vector>

#include "stats/rng.hpp"

namespace wde {
namespace diagnostics {

/// Least-squares fit of log|cov| against a lag feature. For the exponential
/// model log ρ(r) = log c − a·r (Assumption (D) with b = 1); for the power
/// model log ρ(r) = log c − p·log r (the LSV regime of Proposition 5.1).
struct DecayFit {
  double log_c = 0.0;
  double rate = 0.0;  // a (exponential) or p (power)
  double r_squared = 0.0;
};

/// Empirical measurement of the covariance decay |Cov(g(X_0), g(X_r))| that
/// Assumption (D) bounds, with a model comparison telling whether the decay
/// looks exponential (weak dependence strong enough for Theorem 3.1) or
/// polynomial (Proposition 5.1 territory).
struct CovarianceDecayReport {
  std::vector<double> lags;        // 1..max_lag
  std::vector<double> covariance;  // MC-averaged |Cov(g(X_0), g(X_r))|
  double variance = 0.0;           // Var(g(X_0)), the lag-0 term
  /// False when every lag ≥ 1 covariance sits below the Monte-Carlo noise
  /// floor ~ Var(g)/√(path·replicates) — e.g. iid streams — in which case the
  /// model comparison below is fitting noise and should be ignored.
  bool dependence_detected = false;
  DecayFit exponential;
  DecayFit power;
  bool exponential_preferred = false;

  /// "negligible", "exponential" or "polynomial".
  const char* Verdict() const;
};

/// Monte-Carlo estimate of the covariance decay of g(X_t) for paths produced
/// by `sampler` (which must return a fresh stationary path of length
/// `path_length` per call).
CovarianceDecayReport MeasureCovarianceDecay(
    const std::function<std::vector<double>(stats::Rng&)>& sampler,
    const std::function<double(double)>& g, int max_lag, int replicates,
    uint64_t seed);

}  // namespace diagnostics
}  // namespace wde

#endif  // WDE_DIAGNOSTICS_COVARIANCE_DECAY_HPP_
