#ifndef WDE_PROCESSES_TRANSFORMED_PROCESS_HPP_
#define WDE_PROCESSES_TRANSFORMED_PROCESS_HPP_

#include <memory>

#include "processes/process.hpp"
#include "processes/target_density.hpp"

namespace wde {
namespace processes {

/// The paper's sampling scheme (§5.2): X_i = F^{-1}(G(Y_i)) where Y is a raw
/// stationary process with marginal CDF G and F is the target marginal. The
/// transform is monotone, so it preserves the dependence structure (weak
/// dependence coefficients of bounded-variation transforms) while imposing
/// the target density — the three "cases" differ only in the raw process.
class TransformedProcess {
 public:
  TransformedProcess(std::shared_ptr<const RawProcess> raw,
                     std::shared_ptr<const TargetDensity> target);

  /// Generates X_1..X_n with marginal density `target()`.
  std::vector<double> Sample(size_t n, stats::Rng& rng) const;

  const RawProcess& raw() const { return *raw_; }
  const TargetDensity& target() const { return *target_; }

 private:
  std::shared_ptr<const RawProcess> raw_;
  std::shared_ptr<const TargetDensity> target_;
};

}  // namespace processes
}  // namespace wde

#endif  // WDE_PROCESSES_TRANSFORMED_PROCESS_HPP_
