#ifndef WDE_TESTS_DAUBECHIES_LAGARIAS_HPP_
#define WDE_TESTS_DAUBECHIES_LAGARIAS_HPP_

#include "wavelet/filter.hpp"

namespace wde {
namespace wavelet {

/// Pointwise evaluation of φ and ψ by the Daubechies–Lagarias local
/// pyramid algorithm (products of the two refinement matrices selected by the
/// binary digits of the fractional part). A test oracle, independent of the
/// cascade tables: wavelet_test cross-validates the tables against it.
/// Evaluation costs O(digits · L²) per call.
class DaubechiesLagariasEvaluator {
 public:
  explicit DaubechiesLagariasEvaluator(const WaveletFilter& filter, int digits = 40);

  /// φ(x); 0 outside [0, L−1].
  double Phi(double x) const;

  /// ψ(x) = √2 Σ_k g_k φ(2x − k); 0 outside [0, L−1].
  double Psi(double x) const;

 private:
  /// Fills values[i] = φ(t + i) for t in [0, 1), i = 0..L−2.
  void PhiVector(double t, std::vector<double>* values) const;

  WaveletFilter filter_;
  int digits_;
  int dim_;  // L − 1
  std::vector<double> a0_;  // refinement matrix for digit 0, row-major
  std::vector<double> a1_;  // refinement matrix for digit 1
};

}  // namespace wavelet
}  // namespace wde

#endif  // WDE_TESTS_DAUBECHIES_LAGARIAS_HPP_
