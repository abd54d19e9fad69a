#include "numerics/special_functions.hpp"

#include <cmath>

#include "util/check.hpp"

namespace wde {
namespace numerics {
namespace {

constexpr double kSqrt2 = 1.4142135623730951;
constexpr double kSqrt2Pi = 2.5066282746310002;

}  // namespace

double NormalPdf(double x) { return std::exp(-0.5 * x * x) / kSqrt2Pi; }

double NormalCdf(double x) { return 0.5 * std::erfc(-x / kSqrt2); }

double BinomialCoefficient(int n, int k) {
  WDE_CHECK(n >= 0 && k >= 0, "BinomialCoefficient requires non-negative arguments");
  if (k > n) return 0.0;
  k = std::min(k, n - k);
  double result = 1.0;
  for (int i = 1; i <= k; ++i) {
    result *= static_cast<double>(n - k + i);
    result /= static_cast<double>(i);
  }
  return result;
}

}  // namespace numerics
}  // namespace wde
