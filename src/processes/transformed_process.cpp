#include "processes/transformed_process.hpp"

#include "util/check.hpp"

namespace wde {
namespace processes {

TransformedProcess::TransformedProcess(std::shared_ptr<const RawProcess> raw,
                                       std::shared_ptr<const TargetDensity> target)
    : raw_(std::move(raw)), target_(std::move(target)) {
  WDE_CHECK(raw_ != nullptr && target_ != nullptr);
}

std::vector<double> TransformedProcess::Sample(size_t n, stats::Rng& rng) const {
  std::vector<double> path = raw_->Path(n, rng);
  for (double& y : path) y = target_->InverseCdf(raw_->MarginalCdf(y));
  return path;
}

}  // namespace processes
}  // namespace wde
