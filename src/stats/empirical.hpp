#ifndef WDE_STATS_EMPIRICAL_HPP_
#define WDE_STATS_EMPIRICAL_HPP_

#include <functional>
#include <span>

namespace wde {
namespace stats {

/// One-sample Kolmogorov-Smirnov statistic sup_x |F_n(x) - F(x)| against a
/// reference CDF.
double KolmogorovSmirnovDistance(std::span<const double> sample,
                                 const std::function<double(double)>& cdf);

}  // namespace stats
}  // namespace wde

#endif  // WDE_STATS_EMPIRICAL_HPP_
