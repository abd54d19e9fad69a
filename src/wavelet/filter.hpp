#ifndef WDE_WAVELET_FILTER_HPP_
#define WDE_WAVELET_FILTER_HPP_

#include <string>
#include <vector>

#include "util/result.hpp"

namespace wde {
namespace wavelet {

/// An orthonormal conjugate-quadrature-mirror filter pair (h, g) defining a
/// compactly supported scaling function φ and wavelet ψ through
///   φ(x) = √2 Σ_k h_k φ(2x − k),   ψ(x) = √2 Σ_k g_k φ(2x − k),
/// with g_k = (−1)^k h_{L−1−k}. Both φ and ψ are supported on [0, L−1].
///
/// Filters are *derived*, not hard-coded: the Daubechies half-band polynomial
/// is factorized numerically (Durand–Kerner roots), giving the extremal-phase
/// family; Symmlets pick, among the 2^G reciprocal root-group selections, the
/// one whose frequency response has the most linear phase (least-asymmetric
/// family, the paper's choice with N = 8).
///
/// Each filter is derived at most once per process: `Haar`, `Daubechies` and
/// `Symmlet` memoize their result per (family, order) — at most 19 derived
/// filters plus Haar, strong entries, thread-safe — and hand out copies.
/// Since these builders are the only way to make a filter, a filter's
/// `name()` determines its taps within a process.
class WaveletFilter {
 public:
  /// Haar filter (N = 1).
  static WaveletFilter Haar();

  /// Daubechies extremal-phase filter with N vanishing moments (length 2N).
  /// Supports 1 <= N <= 10.
  static Result<WaveletFilter> Daubechies(int vanishing_moments);

  /// Least-asymmetric (Symmlet) filter with N vanishing moments (length 2N).
  /// Supports 1 <= N <= 10; N = 1 degenerates to Haar.
  static Result<WaveletFilter> Symmlet(int vanishing_moments);

  /// Rebuilds a filter from its `name()` ("haar", "dbN", "symN") — the
  /// self-describing handle snapshots store instead of raw coefficients.
  /// Forwards to the memoized builders above, so a restored filter is the
  /// very filter live estimators use, and a restore after the first derives
  /// nothing. Names outside those three forms, and orders outside 1..10, are
  /// InvalidArgument and never reach the memo.
  static Result<WaveletFilter> FromName(const std::string& name);

  const std::vector<double>& h() const { return h_; }
  const std::vector<double>& g() const { return g_; }
  int length() const { return static_cast<int>(h_.size()); }
  /// Length of the support interval of φ and ψ: [0, support_length()].
  int support_length() const { return length() - 1; }
  int vanishing_moments() const { return vanishing_moments_; }
  const std::string& name() const { return name_; }

  /// Max deviation from the CQF orthonormality conditions
  /// Σ_k h_k h_{k+2m} = δ_{m0}; useful for tests and construction checks.
  double OrthonormalityDefect() const;

 private:
  WaveletFilter(std::vector<double> h, int vanishing_moments, std::string name);

  /// The memoized Daubechies (least_asymmetric = false) or Symmlet builder.
  static Result<WaveletFilter> Derived(int vanishing_moments, bool least_asymmetric);

  std::vector<double> h_;
  std::vector<double> g_;
  int vanishing_moments_;
  std::string name_;
};

}  // namespace wavelet
}  // namespace wde

#endif  // WDE_WAVELET_FILTER_HPP_
