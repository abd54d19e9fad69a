/// \file numerics/integration.hpp
/// Entry header of the `numerics` module: quadrature over sampled grids and
/// callables. These rules back every ∫f̂, ISE/MISE (paper §5.3) and L^p risk
/// computation in the library. Invariants: integrands are assumed finite on
/// the closed interval; all rules are deterministic (no adaptive subdivision)
/// so results are bit-reproducible across runs and platforms.
#ifndef WDE_NUMERICS_INTEGRATION_HPP_
#define WDE_NUMERICS_INTEGRATION_HPP_

#include <functional>
#include <span>
#include <vector>

namespace wde {
namespace numerics {

/// Trapezoid rule over equally spaced samples with spacing `dx`.
double TrapezoidIntegral(std::span<const double> values, double dx);

/// Integrates `f` over [a, b] with the composite Simpson rule on `intervals`
/// subintervals (rounded up to an even count).
double IntegrateFunction(const std::function<double(double)>& f, double a, double b,
                         int intervals = 1024);

/// Running cumulative trapezoid integral: out[i] = integral of values[0..i].
/// out[0] = 0.
std::vector<double> CumulativeTrapezoid(std::span<const double> values, double dx);

}  // namespace numerics
}  // namespace wde

#endif  // WDE_NUMERICS_INTEGRATION_HPP_
