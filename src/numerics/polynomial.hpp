#ifndef WDE_NUMERICS_POLYNOMIAL_HPP_
#define WDE_NUMERICS_POLYNOMIAL_HPP_

#include <complex>
#include <vector>

#include "util/result.hpp"

namespace wde {
namespace numerics {

using Complex = std::complex<double>;

/// Polynomials are coefficient vectors in ascending degree order:
/// p(z) = c[0] + c[1] z + ... + c[d] z^d.

/// Evaluates a complex-coefficient polynomial by Horner's rule.
Complex EvaluatePolynomial(const std::vector<Complex>& coeffs, Complex z);

/// Product of two polynomials (complex coefficients).
std::vector<Complex> MultiplyPolynomials(const std::vector<Complex>& a,
                                         const std::vector<Complex>& b);

/// Product of two polynomials (real coefficients).
std::vector<double> MultiplyPolynomials(const std::vector<double>& a,
                                        const std::vector<double>& b);

/// All complex roots of a polynomial via the Durand-Kerner (Weierstrass)
/// iteration. Intended for the modest degrees used by filter construction
/// (degree <= ~20). Fails if the iteration does not converge.
Result<std::vector<Complex>> FindPolynomialRoots(std::vector<Complex> coeffs,
                                                 double tolerance = 1e-13,
                                                 int max_iterations = 2000);

/// Convenience overload for real coefficients.
Result<std::vector<Complex>> FindPolynomialRoots(const std::vector<double>& coeffs,
                                                 double tolerance = 1e-13,
                                                 int max_iterations = 2000);

}  // namespace numerics
}  // namespace wde

#endif  // WDE_NUMERICS_POLYNOMIAL_HPP_
