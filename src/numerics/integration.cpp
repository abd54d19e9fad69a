#include "numerics/integration.hpp"

#include "util/check.hpp"

namespace wde {
namespace numerics {

double TrapezoidIntegral(std::span<const double> values, double dx) {
  if (values.size() < 2) return 0.0;
  double acc = 0.5 * (values.front() + values.back());
  for (size_t i = 1; i + 1 < values.size(); ++i) acc += values[i];
  return acc * dx;
}

double IntegrateFunction(const std::function<double(double)>& f, double a, double b,
                         int intervals) {
  WDE_CHECK_GT(intervals, 0);
  if (intervals % 2 != 0) ++intervals;
  const double h = (b - a) / intervals;
  double acc = f(a) + f(b);
  for (int i = 1; i < intervals; ++i) {
    acc += f(a + i * h) * (i % 2 == 1 ? 4.0 : 2.0);
  }
  return acc * h / 3.0;
}

std::vector<double> CumulativeTrapezoid(std::span<const double> values, double dx) {
  std::vector<double> out(values.size(), 0.0);
  for (size_t i = 1; i < values.size(); ++i) {
    out[i] = out[i - 1] + 0.5 * dx * (values[i - 1] + values[i]);
  }
  return out;
}

}  // namespace numerics
}  // namespace wde
