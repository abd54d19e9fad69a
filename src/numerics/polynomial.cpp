#include "numerics/polynomial.hpp"

#include <cmath>

namespace wde {
namespace numerics {

Complex EvaluatePolynomial(const std::vector<Complex>& coeffs, Complex z) {
  Complex acc(0.0, 0.0);
  for (size_t i = coeffs.size(); i-- > 0;) acc = acc * z + coeffs[i];
  return acc;
}

std::vector<Complex> MultiplyPolynomials(const std::vector<Complex>& a,
                                         const std::vector<Complex>& b) {
  if (a.empty() || b.empty()) return {};
  std::vector<Complex> out(a.size() + b.size() - 1, Complex(0.0, 0.0));
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < b.size(); ++j) out[i + j] += a[i] * b[j];
  }
  return out;
}

std::vector<double> MultiplyPolynomials(const std::vector<double>& a,
                                        const std::vector<double>& b) {
  if (a.empty() || b.empty()) return {};
  std::vector<double> out(a.size() + b.size() - 1, 0.0);
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < b.size(); ++j) out[i + j] += a[i] * b[j];
  }
  return out;
}

Result<std::vector<Complex>> FindPolynomialRoots(std::vector<Complex> coeffs,
                                                 double tolerance,
                                                 int max_iterations) {
  // Trim (numerically) zero leading coefficients.
  while (coeffs.size() > 1 && std::abs(coeffs.back()) < 1e-300) coeffs.pop_back();
  if (coeffs.size() <= 1) return std::vector<Complex>{};
  const size_t degree = coeffs.size() - 1;
  // Normalize to a monic polynomial.
  const Complex lead = coeffs.back();
  for (Complex& c : coeffs) c /= lead;

  // Standard Durand-Kerner initialization: powers of a point that is neither
  // real nor on the unit circle.
  std::vector<Complex> roots(degree);
  const Complex seed(0.4, 0.9);
  Complex acc(1.0, 0.0);
  for (size_t i = 0; i < degree; ++i) {
    acc *= seed;
    roots[i] = acc;
  }

  for (int iter = 0; iter < max_iterations; ++iter) {
    double max_update = 0.0;
    for (size_t i = 0; i < degree; ++i) {
      Complex denom(1.0, 0.0);
      for (size_t j = 0; j < degree; ++j) {
        if (j == i) continue;
        denom *= roots[i] - roots[j];
      }
      if (std::abs(denom) < 1e-300) {
        // Perturb coincident iterates and retry next sweep.
        roots[i] += Complex(1e-8, 1e-8);
        max_update = 1.0;
        continue;
      }
      const Complex delta = EvaluatePolynomial(coeffs, roots[i]) / denom;
      roots[i] -= delta;
      max_update = std::max(max_update, std::abs(delta));
    }
    if (max_update < tolerance) return roots;
  }
  return Status::FailedPrecondition("Durand-Kerner iteration did not converge");
}

Result<std::vector<Complex>> FindPolynomialRoots(const std::vector<double>& coeffs,
                                                 double tolerance,
                                                 int max_iterations) {
  std::vector<Complex> c(coeffs.size());
  for (size_t i = 0; i < coeffs.size(); ++i) c[i] = Complex(coeffs[i], 0.0);
  return FindPolynomialRoots(std::move(c), tolerance, max_iterations);
}

}  // namespace numerics
}  // namespace wde
