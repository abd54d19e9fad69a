/// \file core/estimator.hpp
/// Entry header of the `core` module: reconstruction of the thresholded
/// wavelet density estimate
///   f̂ = Σ_k α̂_{j0,k} φ_{j0,k} + Σ_{j=j0}^{ĵ1} Σ_k γ_{λ̂_j}(β̂_{j,k}) ψ_{j,k}
/// (the paper's Eq. (2.4)-style expansion with the §5.1 level defaults; see
/// adaptive.hpp for the one-call HTCV/STCV facade). Invariants: the estimate
/// is a *signed* measure — thresholding does not preserve positivity, so
/// Evaluate() may go below 0 and IntegrateRange() slightly outside [0, 1];
/// IntegrateRange is exact w.r.t. the basis antiderivative tables, making
/// range queries consistent with pointwise evaluation.
#ifndef WDE_CORE_ESTIMATOR_HPP_
#define WDE_CORE_ESTIMATOR_HPP_

#include <span>
#include <vector>

#include "core/coefficients.hpp"
#include "core/thresholding.hpp"
#include "numerics/interpolation.hpp"
#include "util/result.hpp"
#include "wavelet/scaled_function.hpp"

namespace wde {
namespace core {

/// A fitted (reconstructed) thresholded wavelet density estimate
///   f̂ = Σ_k α̂_{j0,k} φ_{j0,k} + Σ_{j=j0}^{j1} Σ_k γ_{λ_j}(β̂_{j,k}) ψ_{j,k}
/// on an arbitrary domain [lo, hi] (internally mapped to [0, 1]).
class WaveletEstimate {
 public:
  struct DetailLevel {
    int j = 0;
    int k_lo = 0;
    std::vector<double> theta;  // thresholded coefficients
    int kept = 0;               // non-zero coefficients after thresholding
  };

  double Evaluate(double x) const;

  /// Batch evaluation: out[i] = Evaluate(xs[i]), bit-identical to the scalar
  /// call, but reconstructed one pass per level (hoisted 2^j/2^{j/2}/table
  /// setup) instead of one pass per point.
  void EvaluateMany(std::span<const double> xs, std::span<double> out) const;

  /// Built on EvaluateMany; one level pass over the whole grid.
  std::vector<double> EvaluateOnGrid(double lo, double hi, size_t points) const;

  /// Exact ∫_a^b f̂ via the basis antiderivative tables (what a selectivity
  /// query is). The estimate is a signed measure — thresholding does not
  /// preserve positivity — so values may fall slightly outside [0, 1].
  double IntegrateRange(double a, double b) const;

  /// Batch range integration: out[i] = IntegrateRange(a[i], b[i]),
  /// bit-identical to the scalar call, one pass per level across all ranges.
  /// The batch query path of the selectivity layer.
  void IntegrateRangeMany(std::span<const double> a, std::span<const double> b,
                          std::span<double> out) const;

  /// Total mass ∫ f̂ over the domain.
  double TotalMass() const;

  /// u-quantile of the normalized estimate: the x with
  /// ∫_{domain_lo}^{x} f̂ = u · TotalMass(), found by bisection. The signed
  /// estimate's running integral can be locally non-monotone, so the result
  /// is the bisection root of the (approximately increasing) CDF.
  double Quantile(double u) const;

  /// Writes the reconstructed expansion (domain, α coefficients, thresholded
  /// detail levels) WITHOUT the basis — the owner serializes the basis
  /// identity once and passes the rebuilt basis to Deserialize. Round trips
  /// are bit-exact, so a restored estimate answers Evaluate/IntegrateRange
  /// bit-identically.
  Status Serialize(io::Sink& sink) const;

  /// Restores an estimate written by Serialize over `basis`. Corrupt input
  /// yields a non-OK Result.
  static Result<WaveletEstimate> Deserialize(const wavelet::WaveletBasis& basis,
                                             io::Source& source);

  double domain_lo() const { return lo_; }
  double domain_hi() const { return lo_ + width_; }
  int j0() const { return j0_; }
  /// Highest detail level carried by this estimate.
  int j_max() const;
  const std::vector<DetailLevel>& details() const { return details_; }
  /// Fraction of coefficients at level j set to zero by thresholding.
  double ThresholdedFraction(int j) const;

 private:
  friend class WaveletDensityFit;

  explicit WaveletEstimate(wavelet::WaveletBasis basis) : basis_(std::move(basis)) {}

  wavelet::WaveletBasis basis_;
  double lo_ = 0.0;
  double width_ = 1.0;
  int j0_ = 0;
  int scaling_k_lo_ = 0;
  std::vector<double> alpha_;
  std::vector<DetailLevel> details_;
};

/// Options controlling a fit. Negative values select the paper's defaults at
/// fit time (j0 from Theorem 3.1 / §5.1, j_max = j* = log2 n).
struct FitOptions {
  int j0 = -1;
  int j_max = -1;
  double domain_lo = 0.0;
  double domain_hi = 1.0;
};

/// The estimation engine: accumulates empirical coefficients for data on
/// [domain_lo, domain_hi] and reconstructs estimates under any threshold
/// schedule. Batch fitting uses `Fit`; the streaming selectivity layer uses
/// `CreateStreaming` + `Add` (levels fixed up front since n grows).
class WaveletDensityFit {
 public:
  static Result<WaveletDensityFit> Fit(const wavelet::WaveletBasis& basis,
                                       std::span<const double> data,
                                       const FitOptions& options = {});

  static Result<WaveletDensityFit> CreateStreaming(const wavelet::WaveletBasis& basis,
                                                   int j0, int j_max,
                                                   double domain_lo = 0.0,
                                                   double domain_hi = 1.0);

  /// Adds one observation (must lie inside the domain; checked).
  void Add(double x);

  /// Batch insert: equivalent to Add(x) per element in order (bit-identical
  /// coefficient sums), routed through the batched accumulator. An empty
  /// span is an explicit no-op.
  void AddBatch(std::span<const double> xs);

  /// Folds another fit's coefficient sums into this one (see
  /// `EmpiricalCoefficients::Merge`). After a successful merge, `Estimate`
  /// reconstructs from the combined sums — the rebuild-from-merged path the
  /// sharded selectivity engine queries through — and matches a fit of the
  /// concatenated stream to ~1e-12 relative (summation order differs).
  /// Fails, leaving this fit untouched, when the domain, filter or level
  /// range differ.
  Status Merge(const WaveletDensityFit& other);

  /// Writes the fit domain plus the full coefficient accumulator (see
  /// EmpiricalCoefficients::Serialize); round trips are bit-exact.
  Status Serialize(io::Sink& sink) const;

  /// Restores a fit written by Serialize, rebuilding the basis from its
  /// serialized identity.
  static Result<WaveletDensityFit> Deserialize(io::Source& source);

  size_t count() const { return coefficients_.count(); }
  const EmpiricalCoefficients& coefficients() const { return coefficients_; }
  double domain_lo() const { return lo_; }
  double domain_hi() const { return lo_ + width_; }

  /// Reconstructs the estimate under a threshold schedule. Detail levels not
  /// covered by the schedule are dropped.
  WaveletEstimate Estimate(const ThresholdSchedule& schedule,
                           ThresholdKind kind) const;

  /// Linear (non-thresholded) estimate keeping all detail levels up to j1;
  /// j1 < j0 gives the pure projection onto V_{j0}. The paper's reference
  /// non-adaptive estimator.
  WaveletEstimate LinearEstimate(int j1) const;

 private:
  WaveletDensityFit(EmpiricalCoefficients coefficients, double lo, double width)
      : coefficients_(std::move(coefficients)), lo_(lo), width_(width) {}

  EmpiricalCoefficients coefficients_;
  double lo_;
  double width_;
};

}  // namespace core
}  // namespace wde

#endif  // WDE_CORE_ESTIMATOR_HPP_
