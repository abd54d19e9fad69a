#ifndef WDE_NUMERICS_SPECIAL_FUNCTIONS_HPP_
#define WDE_NUMERICS_SPECIAL_FUNCTIONS_HPP_

#include <cstdint>

namespace wde {
namespace numerics {

/// Standard normal density.
double NormalPdf(double x);

/// Standard normal cumulative distribution function.
double NormalCdf(double x);

/// Binomial coefficient C(n, k) as a double (exact for the small arguments
/// used by filter construction).
double BinomialCoefficient(int n, int k);

}  // namespace numerics
}  // namespace wde

#endif  // WDE_NUMERICS_SPECIAL_FUNCTIONS_HPP_
