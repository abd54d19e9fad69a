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
  /// A one-element IntegrateRangeMany call.
  double IntegrateRange(double a, double b) const;

  /// Batch range integration: out[i] = IntegrateRange(a[i], b[i]),
  /// bit-identical to the scalar call. The batch query path of the
  /// selectivity layer. Costs O(levels × support) per range whatever its
  /// width: per level, only the translates whose supports straddle an
  /// endpoint are integrated through the antiderivative table; the ones
  /// wholly inside [a, b] each contribute c · A_full · 2^{-j/2} and come from
  /// a prefix sum.
  void IntegrateRangeMany(std::span<const double> a, std::span<const double> b,
                          std::span<double> out) const;

  /// Total mass ∫ f̂ over the domain.
  double TotalMass() const;

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
  const std::vector<DetailLevel>& details() const { return details_; }

 private:
  friend class WaveletDensityFit;

  /// Derived per reconstruction level — levels_[0] is the scaling level,
  /// levels_[1 + i] is details_[i] — and never serialized: the hoisted
  /// evaluator, built once so queries copy no shared_ptr, and the prefix
  /// sums prefix[i] = Σ_{i' < i} c_{i'} · A_full · 2^{-j/2} over the
  /// level's coefficients (empty for a fully thresholded detail level).
  struct LevelIndex {
    wavelet::ScaledLevelEvaluator eval;
    int k_lo = 0;
    double factor = 1.0;  // 2^{-j/2}
    std::vector<double> prefix;
  };

  explicit WaveletEstimate(wavelet::WaveletBasis basis) : basis_(std::move(basis)) {}

  /// Rebuilds levels_ from the coefficients; called by whoever sets them.
  void IndexLevels();

  wavelet::WaveletBasis basis_;
  double lo_ = 0.0;
  double width_ = 1.0;
  int j0_ = 0;
  int scaling_k_lo_ = 0;
  std::vector<double> alpha_;
  std::vector<DetailLevel> details_;
  std::vector<LevelIndex> levels_;
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

  /// AddBatch on a buffer the caller hands over: maps xs onto the unit
  /// interval in place, with AddBatch's arithmetic, and accumulates it there,
  /// so the batch is not copied again.
  void AddBatchInPlace(std::span<double> xs);

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
