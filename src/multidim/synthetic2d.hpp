/// \file multidim/synthetic2d.hpp
/// Correlated 2-D synthetic data for the multi-dimensional harness and
/// benches: covariant Gaussian mixtures (each component carries a
/// correlation, realized through stats::Rng::GaussianPair) and an
/// "anti-product" distribution whose marginals are near-uniform while the
/// joint concentrates on the two diagonals — the adversarial case for any
/// independence-assuming (product-of-marginals) estimator, which the 2-D
/// grid must still capture. All draws flow through the deterministic
/// stats::Rng, so data sets reproduce bit-for-bit from (seed, parameters).
///
/// Output convention: observations are appended interleaved —
/// x0, y0, x1, y1, ... — exactly the stream layout the dims() == 2
/// estimators ingest, so a generated buffer feeds InsertBatch directly.
#ifndef WDE_MULTIDIM_SYNTHETIC2D_HPP_
#define WDE_MULTIDIM_SYNTHETIC2D_HPP_

#include <cstddef>
#include <span>
#include <vector>

#include "stats/rng.hpp"

namespace wde {
namespace multidim {

/// One mixture component: N(mean, Σ) with
///   Σ = [sx²      ρ·sx·sy]
///       [ρ·sx·sy  sy²    ]
/// realized as mean + diag(sx, sy) · L·z where L is the Cholesky factor of
/// the correlation matrix (GaussianPair) — full covariance without a matrix
/// library. Weights need not sum to 1; they are normalized at sampling.
struct GaussianComponent2d {
  double weight = 1.0;
  double mean_x = 0.5;
  double mean_y = 0.5;
  double stddev_x = 0.1;
  double stddev_y = 0.1;
  /// Correlation ρ ∈ [-1, 1].
  double rho = 0.0;
};

/// Appends n observations (2n interleaved values) drawn from the mixture.
/// Component choice and the Gaussian pair both come from `rng` in a fixed
/// per-observation draw order, so the stream is deterministic in (rng state,
/// components, n).
void SampleGaussianMixture2d(stats::Rng& rng,
                             std::span<const GaussianComponent2d> components,
                             size_t n, std::vector<double>* out);

/// Appends n observations (2n interleaved values) from the anti-product
/// distribution on [0, 1]²: x ~ U[0, 1); with probability 1/2,
/// y = x + N(0, noise), else y = (1 − x) + N(0, noise); y is reflected back
/// into [0, 1]. Both marginals are near-uniform, so the product of marginals
/// is near-flat while the true joint mass rides the two diagonals —
/// rectangle queries off the diagonals expose any estimator that assumes
/// independence.
void SampleAntiProduct2d(stats::Rng& rng, size_t n, double noise,
                         std::vector<double>* out);

}  // namespace multidim
}  // namespace wde

#endif  // WDE_MULTIDIM_SYNTHETIC2D_HPP_
